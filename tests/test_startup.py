"""Start-up cost: ``import pbsg`` loads no submodule, each subcommand loads
only the modules it runs, and no dataclass is built on the way."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import pbsg
from pbsg import _MODULE_OF

#: The criterion-6 argv rows (tests/test_acceptance.py) and the pbsg modules
#: each may load, beside ``pbsg``, ``pbsg.cli``, ``pbsg.closure`` and ``pbsg.pbij``.
ROWS = [
    pytest.param(["random", "gens", "-n", "4", "-k", "3", "--seed", "7"], {"sampling"},
                 id="random-gens"),
    pytest.param(["random", "tiling", "-m", "2", "-c", "2", "-k", "2", "--seed", "7"],
                 {"sampling", "tiling"}, id="random-tiling"),
    pytest.param(["props", "GENS", "--cross-check"], {"properties", "checkers", "oracle"},
                 id="props-cross-check"),
    pytest.param(["props", "GENS", "--property", "commutative", "--json"],
                 {"properties", "checkers"}, id="props-fast-only"),
    pytest.param(["oracle", "GENS"], {"properties", "oracle"}, id="oracle"),
    pytest.param(["member", "GENS", "ELEM"], set(), id="member"),
    pytest.param(["models", "GENS", "x1 x1^-1 = x1^-1 x1"], {"identities", "model_checker"},
                 id="models"),
    pytest.param(["models", "GENS", "x1 x1^-1 = x1^-1 x1", "--json", "--cross-check"],
                 {"identities", "model_checker", "oracle", "properties"},
                 id="models-cross-check"),
    pytest.param(["tiling", "solve", "INST"], {"tiling"}, id="tiling-solve"),
    pytest.param(["tiling", "roundtrip", "INST", "--json"], {"tiling"}, id="tiling-roundtrip"),
]
ALWAYS = {"pbsg", "pbsg.cli", "pbsg.closure", "pbsg.pbij"}

#: Runs ``main(argv)`` and prints the loaded pbsg modules and whether
#: ``dataclasses`` was loaded, as one JSON line.
PROBE = """
import io, json, sys
from pbsg.cli import main
main(sys.argv[1:], out=io.StringIO())
print(json.dumps([sorted(m for m in sys.modules if m.startswith("pbsg")),
                  "dataclasses" in sys.modules]))
"""


def _env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pbsg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def _probe(code, args=(), cwd=None):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, cwd=cwd, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def dataclasses_at_start():
    """Whether the bare interpreter already loads ``dataclasses``."""
    return _probe('import json, sys; print(json.dumps("dataclasses" in sys.modules))')


@pytest.fixture
def files(tmp_path):
    docs = {
        "GENS": {"degree": 3, "generators": [[3, 1, None], [1, None, 2]],
                 "inverse_closed": False},
        "ELEM": {"degree": 3, "map": [3, 1, None]},
        "INST": {"colors": 2, "width": 2,
                 "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1}, {"n": 2, "e": 1, "s": 1, "w": 1}]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("argv, extra", ROWS)
def test_subcommand_loads_only_its_modules(argv, extra, files, tmp_path, dataclasses_at_start):
    args = [str(files.get(token, token)) for token in argv]
    loaded, dataclasses_loaded = _probe(PROBE, args, cwd=tmp_path)
    assert set(loaded) == ALWAYS | {f"pbsg.{m}" for m in extra}
    assert dataclasses_at_start or not dataclasses_loaded


def test_import_pbsg_loads_no_submodule():
    loaded = _probe('import json, sys, pbsg; '
                    'print(json.dumps(sorted(m for m in sys.modules if m.startswith("pbsg"))))')
    assert loaded == ["pbsg"]


# -- lazy exports --------------------------------------------------------------


def _defining_module(obj):
    """The pbsg module an exported object comes from; the two budgets are
    plain ints defined in ``closure``."""
    return "pbsg.closure" if isinstance(obj, int) else obj.__module__


def test_every_export_is_the_defining_modules_object():
    assert pbsg.__all__ and len(set(pbsg.__all__)) == len(pbsg.__all__)
    for name in pbsg.__all__:
        obj = getattr(pbsg, name)
        module = importlib.import_module(_defining_module(obj))
        assert module.__name__.startswith("pbsg."), name
        assert getattr(module, name) is obj, name


def test_reexports_are_one_object():
    from pbsg import checkers, closure, model_checker, properties

    assert model_checker.LimitExceeded is closure.LimitExceeded is pbsg.LimitExceeded
    assert model_checker.DEFAULT_BUDGET is closure.DEFAULT_BUDGET is pbsg.DEFAULT_BUDGET
    assert checkers.CheckReport is properties.CheckReport is pbsg.CheckReport


def test_dir_and_star_import_list_every_export():
    assert set(pbsg.__all__) <= set(dir(pbsg))
    namespace = {}
    exec("from pbsg import *", namespace)
    assert set(pbsg.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(pbsg, name) for name in pbsg.__all__)


def test_identities_exports_only_the_term_language():
    # the model checker plans each variable's occurrences itself, so the
    # identities module exports no occurrence analysis
    exported = {name for name in pbsg.__all__ if _MODULE_OF[name] == "identities"}
    assert exported == {
        "EmptyWordError", "Identity", "IdentitySyntaxError",
        "PremiseMismatchError", "apply_assignment", "format_identity",
        "parse_identity",
    }
    for name in ("OccurrenceSets", "occurrence_sets"):
        with pytest.raises(AttributeError):
            getattr(pbsg, name)


def test_public_surface_is_pinned():
    # a change to the public names must change this list too
    assert pbsg.__all__ == [
        "BoundaryGuess", "CheckReport", "Counterexample",
        "DEFAULT_BUDGET", "DEFAULT_LIMIT", "EmptyWordError", "GeneratorSet",
        "Identity", "IdentitySyntaxError", "LimitExceeded",
        "MemberResult", "ModelCheckResult", "OracleModelResult",
        "PartialBijection", "PremiseMismatchError", "PropertyName",
        "SemigroupClosure", "all_partial_bijections", "apply_assignment",
        "check_band_semilattice", "check_clifford", "check_commutative",
        "check_completely_regular", "check_left_identity_exists",
        "check_right_identity_exists", "check_variable_run", "close",
        "enumerate_identities", "evaluate_word", "format_identity", "member",
        "models", "oracle_identities", "oracle_models", "oracle_report",
        "parse_identity", "realize_assignment", "run_generator_check",
    ]
    for name in ("Word", "VariableRun", "ArityOverflow", "Literal", "IdentityLists"):
        with pytest.raises(AttributeError):
            getattr(pbsg, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pbsg.no_such_name  # noqa: B018
