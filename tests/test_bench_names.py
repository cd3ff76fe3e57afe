"""The library names the benchmark reads must resolve.

``perfbench/`` reaches ``pbsg`` through module attributes, and its tracer
wraps the entry points that ``perfbench/tracing.py`` lists by module.  A
library change that renames or drops one of them breaks ``run.py --trace 1``
and the pools' re-record, so these tests read that list by path, without
importing ``perfbench`` as a package, and check every name and result
field its workloads read.
"""

import importlib
import importlib.util
from pathlib import Path

import pbsg
from pbsg.closure import GeneratorSet
from pbsg.identities import parse_identity
from pbsg.tiling import TilingInstance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: the criterion-6 inputs: a generator set, an element of its closure, a tiling
GENS = {"degree": 3, "generators": [[3, 1, None], [1, None, 2]], "inverse_closed": False}
ELEMENT = {"degree": 3, "map": [3, 1, None]}
TILING = {"colors": 2, "width": 2,
          "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1}, {"n": 2, "e": 1, "s": 1, "w": 1}]}


def entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_traced_entry_points_resolve():
    names = entry_points()
    assert names
    for mod_name, fnames in names.items():
        module = importlib.import_module(f"pbsg.{mod_name}")
        for fname in fnames:
            assert callable(getattr(module, fname, None)), f"pbsg.{mod_name}.{fname}"


def test_results_carry_the_fields_the_workloads_read():
    gens = GeneratorSet.from_json_obj(GENS)
    b = pbsg.PartialBijection.from_json_obj(ELEMENT)
    assert pbsg.closure.member(gens, b).found is True

    clo = pbsg.closure.close(gens)
    assert list(clo.elements) == list(clo) and b in clo.elements

    ident = parse_identity("x1 x1^-1 = x1^-1 x1")
    res = pbsg.model_checker.models(gens, ident)
    assert res.models is False and res.generators.inverse_closed
    _, lhs, rhs = pbsg.model_checker.counterexample_values(res.generators, ident,
                                                           res.counterexample)
    assert lhs != rhs
    assert pbsg.oracle.oracle_models(gens, ident).models is False

    rep = pbsg.tiling.roundtrip_check(TilingInstance.from_json_obj(TILING))
    assert rep.consistent and rep.member.found == rep.solvable
    assert (rep.grid is None) == (rep.decoded is None) == (not rep.solvable)
