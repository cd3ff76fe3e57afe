"""Runs of the scripts under scripts/, loaded by file path: the two oracle
sweeps, and the BENCH file recording and comparison."""

import json
import os
import subprocess
from types import SimpleNamespace

import pytest

from conftest import load_script


@pytest.mark.parametrize("name, argv", [
    ("oracle_sweep", ["--count", "100"]),
    ("model_check_sweep", ["--degrees", "2", "3", "--count", "20"]),
    ("model_check_sweep", ["--degrees", "2", "3", "--count", "20", "--sets", "class"]),
])
def test_sweep_agrees_with_oracle(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert "agree" in capsys.readouterr().out


def test_oracle_sweep_fails_on_a_wrong_checker(capsys, monkeypatch):
    from pbsg.checkers import _CHECKERS, check_commutative
    from pbsg.properties import CheckReport, PropertyName

    monkeypatch.setitem(_CHECKERS, PropertyName.COMMUTATIVE,
                        lambda gens: CheckReport(not check_commutative(gens).holds))
    assert load_script("oracle_sweep").main(["--degrees", "3", "--count", "5"]) == 1
    out = capsys.readouterr().out
    assert "DISAGREEMENTS FOUND {'commutative': 5}" in out.splitlines()


def test_model_check_sweep_fails_on_a_wrong_model_checker(capsys):
    from pbsg.model_checker import ModelCheckResult

    sweep = load_script("model_check_sweep")
    sweep.models = lambda gens, ident: ModelCheckResult(None, gens)  # always "holds"
    assert sweep.main(["--degrees", "3", "--count", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("DISAGREEMENTS [(") for line in lines)
    assert "model checker agrees with the oracle; all counterexamples replay" not in lines


def test_small_sweep_meets_the_oracle_at_degree_16(capsys):
    # the small-closure families keep the oracle in reach at degree 16; each
    # identity holds on one of the three sets and fails on the others, and
    # the walk alone decides every one, exhaustively where it holds
    identities = ["x1 x1 = x1 x1 x1", "x1 x2 x1 = x1 x2 x1 x2 x1", "x1 x2 x1^-1 = x2"]
    argv = ["--degrees", "16", "--count", "3", "--sets", "small", "--identities", *identities]
    assert load_script("model_check_sweep").main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("9 checks in ") and "agree" in out
    for text in identities:
        assert f"{text:44} {1:7} {2:7}" in out


def test_model_check_sweep_skips_sets_over_the_oracle_budget(capsys):
    # the second degree-4 set of seed 1 closes to 93 elements: 93^4 assignments
    argv = ["--degrees", "4", "--count", "2", "--seed", "1",
            "--identities", "x1 x2 x3 x4 = x4 x3 x2 x1"]
    assert load_script("model_check_sweep").main(argv) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("1 checks in ")
    assert ", 1 skipped (oracle assignment space over the budget)" in first


def _bench_file(path, metrics, correct=True):
    """A BENCH file with one ``cli`` run whose end-to-end metrics are ``metrics``."""
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
    path.write_text(json.dumps({"workloads": {"cli": {"facts": {}, "result": result}}}))
    return path


BASE = {"setup_s": 0.05, "decisions_per_s": 7.0, "decision_p50_ms": 150.0,
        "decision_p90_ms": 180.0, "peak_rss_mb": 22.0}


def test_bench_compare_checks_bounds(tmp_path, capsys):
    compare = load_script("bench_record").compare
    a = _bench_file(tmp_path / "a.json", BASE)
    faster = _bench_file(tmp_path / "b.json", {**BASE, "decision_p50_ms": 100.0,
                                                "decisions_per_s": 10.0})
    assert compare(a, faster) == 0
    out = capsys.readouterr().out
    assert "cli\tdecision_p50_ms\t150\t100\t-33.3%\t25%\tok" in out
    assert "cli\tdecisions_per_s\t7\t10\t+42.9%\t25%\tok" in out
    assert "FAIL" not in out

    # RSS up 20% against a 10% bound; throughput down 30% against 25%
    worse = _bench_file(tmp_path / "c.json", {**BASE, "peak_rss_mb": 26.4,
                                               "decisions_per_s": 4.9})
    assert compare(a, worse) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "cli\tpeak_rss_mb\t22\t26.4\t+20.0%\t10%\tFAIL" in lines
    assert "cli\tdecisions_per_s\t7\t4.9\t-30.0%\t25%\tFAIL" in lines
    assert "cli\tsetup_s\t0.05\t0.05\t+0.0%\t25%\tok" in lines

    assert compare(a, _bench_file(tmp_path / "d.json", BASE, correct=False)) == 1
    assert "cli\tcorrect\tTrue\tFalse\t-\t-\tFAIL" in capsys.readouterr().out

    # a workload of A that B lacks fails, whatever B's other workloads read
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"workloads": {}}))
    assert compare(a, e) == 1
    assert "cli\tworkload\tpresent\tmissing\t-\t-\tFAIL" in capsys.readouterr().out


def test_bench_record_runs_each_workload_without_bytecode_caches(tmp_path, monkeypatch):
    bench_record = load_script("bench_record")
    facts = {"environment": {"cpu_model": "cpu", "nproc": 1, "python": "3"}}
    result = {"correct": True, "metrics": {"setup_s": {"value": 0.05, "unit": "s"}}}
    runs = []

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, "", "")
        env = kwargs["env"]
        cache = env["PYTHONPYCACHEPREFIX"]
        assert env == dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
        runs.append((cmd[cmd.index("--workload") + 1], cache, os.listdir(cache)))
        return subprocess.CompletedProcess(cmd, 0, f"{json.dumps(facts)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_record, "subprocess", SimpleNamespace(run=run))
    assert bench_record.record(1, tmp_path / "bench.json") == 0
    names = [w["name"] for w in bench_record._benchmark()["workloads"]]
    assert [name for name, _, _ in runs] == names
    # a fresh empty cache directory per run, removed after it
    caches = [cache for _, cache, _ in runs]
    assert len(set(caches)) == len(names)
    assert all(listing == [] for _, _, listing in runs)
    assert not any(os.path.exists(cache) for cache in caches)
    assert set(json.loads((tmp_path / "bench.json").read_text())["workloads"]) == set(names)
