"""Smoke runs of the two oracle sweep scripts, loaded by file path."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("oracle_sweep", ["--count", "100"]),
    ("model_check_sweep", ["--degrees", "2", "3", "--count", "20"]),
])
def test_sweep_agrees_with_oracle(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert "agree" in capsys.readouterr().out
