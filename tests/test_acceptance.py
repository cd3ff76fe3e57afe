"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Sweep sizes and time budgets are fixed here, not tuned at runtime.
"""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement, product

import pbsg
from pbsg import (
    LimitExceeded,
    PartialBijection,
    PropertyName,
    all_partial_bijections,
    check_band_semilattice,
    check_clifford,
    check_commutative,
    check_completely_regular,
    check_left_identity_exists,
    check_right_identity_exists,
    close,
    enumerate_identities,
    member,
    models,
    oracle_identities,
    oracle_models,
    oracle_report,
    parse_identity,
    run_generator_check,
)
from pbsg.model_checker import counterexample_values
from pbsg.sampling import random_generator_set, random_tiling_instance
from pbsg.tiling import (
    Tile,
    TilingInstance,
    decode_witness,
    encode_grid,
    reduce as reduce_tiling,
    solve_corridor_tiling,
    verify_proper_tiling,
)
from pbsg.closure import evaluate_word

from conftest import MODEL_CORPUS, gens_of

SEED = 20260810


def report(criterion, label, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[criterion {criterion}] {label}: {status} "
          f"({elapsed:.1f}s of {budget:.0f}s budget"
          + (f", {len(failures)} failures" if failures else "") + ")")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s"


def random_pbij(rng, n):
    size = rng.randint(0, n)
    dom = sorted(rng.sample(range(n), size))
    img = dict(zip(dom, rng.sample(range(n), size)))
    return PartialBijection([img.get(x) for x in range(n)])


def test_criterion_1_algebra_laws():
    trials = 10_000
    rng = random.Random(SEED)
    failures = []
    start = time.perf_counter()

    for _ in range(trials):
        n = rng.randint(1, 6)
        a, b, c = (random_pbij(rng, n) for _ in range(3))
        if (a * b) * c != a * (b * c):
            failures.append(("associativity", a, b, c))

    for _ in range(trials):
        n = rng.randint(1, 6)
        a = random_pbij(rng, n)
        inv = a.inverse()
        if a * inv * a != a or inv * a * inv != inv:
            failures.append(("inverse-law", a))

    for _ in range(trials):
        n = rng.randint(1, 6)
        e = PartialBijection.partial_identity(n, random_pbij(rng, n).dom())
        f = PartialBijection.partial_identity(n, random_pbij(rng, n).dom())
        if e * f != f * e:
            failures.append(("idempotent-commutation", e, f))

    for _ in range(trials):
        n = rng.randint(1, 6)
        a = random_pbij(rng, n)
        if len(a.dom()) != len(a.image()):
            failures.append(("dom-image-size", a))

    for _ in range(trials):
        n = rng.randint(1, 6)
        a, b = random_pbij(rng, n), random_pbij(rng, n)
        ea, eb = a.embed(), b.embed()
        if (a * b).embed() != tuple(eb[v] for v in ea):
            failures.append(("embedding-homomorphism", a, b))

    report(1, f"algebra laws, {trials} trials each", failures,
           time.perf_counter() - start, budget=10)


def _identity_sweep_sets():
    """Exhaustive ordered pairs over degree 2, then seeded random sets."""
    i2 = all_partial_bijections(2)
    assert len(i2) == 7
    sets = [gens_of([a, b]) for a in i2 for b in i2]
    for n in (3, 4, 5):
        rng = random.Random(SEED + n)
        for _ in range(500):
            sets.append(random_generator_set(rng, n, rng.randint(1, 3)))
    return sets


def test_criterion_2_identity_checkers_vs_oracle():
    failures = []
    start = time.perf_counter()
    sets = _identity_sweep_sets()
    for gens in sets:
        ids = left, right = oracle_identities(close(gens))
        # a two-sided identity exists iff both do, and then e = ef = f
        two_sided = left is not None and right is not None
        if two_sided and left != right:
            failures.append(("uniqueness", gens))
            continue
        if check_left_identity_exists(gens).holds != (left is not None):
            failures.append(("left-existence", gens))
        if check_right_identity_exists(gens).holds != (right is not None):
            failures.append(("right-existence", gens))
        if run_generator_check(gens, PropertyName.TWO_SIDED_IDENTITY).holds != two_sided:
            failures.append(("two-sided-existence", gens))
        if enumerate_identities(gens) != ids:
            failures.append(("element", gens))
    report(2, f"identity existence vs oracle, {len(sets)} generator sets",
           failures, time.perf_counter() - start, budget=120)


def test_criterion_3_property_checkers_vs_oracle():
    failures = []
    start = time.perf_counter()
    sets = _identity_sweep_sets()
    for gens in sets:
        clo = close(gens)
        cr = check_completely_regular(gens)
        if cr.holds != oracle_report(clo, PropertyName.COMPLETELY_REGULAR).holds:
            failures.append(("completely-regular", gens))
        if check_clifford(gens).holds != cr.holds:
            failures.append(("clifford", gens))
        if check_band_semilattice(gens).holds != oracle_report(clo, PropertyName.SEMILATTICE).holds:
            failures.append(("band-semilattice", gens))
        if check_commutative(gens).holds != oracle_report(clo, PropertyName.COMMUTATIVE).holds:
            failures.append(("commutative", gens))
        if cr.holds and any(s.dom() != s.image() for s in clo):
            failures.append(("dom-equals-image", gens))
    report(3, f"structure checkers vs oracle, {len(sets)} generator sets",
           failures, time.perf_counter() - start, budget=120)


def test_criterion_4_model_checker_vs_oracle():
    idents = [(text, parse_identity(text)) for text in MODEL_CORPUS]
    inverse_law = parse_identity("x1 x1^-1 x1 = x1")
    failures = []
    start = time.perf_counter()

    i2 = all_partial_bijections(2)
    sets = [gens_of([a, b]).with_inverses() for a in i2 for b in i2]
    for n in (3, 4):
        rng = random.Random(SEED + 10 * n)
        for _ in range(200):
            sets.append(random_generator_set(rng, n, rng.randint(1, 3), inverse_closed=True))

    for gens in sets:
        for text, ident in idents:
            fast = models(gens, ident)
            slow = oracle_models(gens, ident)
            if fast.models != slow.models:
                failures.append(("verdict", text, gens))
                continue
            if ident == inverse_law and not fast.models:
                failures.append(("inverse-law-must-model", gens))
            if not fast.models:
                _, lhs, rhs = counterexample_values(fast.generators, ident,
                                                    fast.counterexample)
                if lhs == rhs:
                    failures.append(("counterexample-replay", text, gens))
    report(4, f"model checker vs oracle, {len(sets)} sets x {len(idents)} identities",
           failures, time.perf_counter() - start, budget=300)


def _all_tiles(c):
    return [Tile(*combo) for combo in product(range(1, c + 1), repeat=4)]


def _roundtrip_failures(inst, limit, failures):
    grid = solve_corridor_tiling(inst)
    red = reduce_tiling(inst)
    for idx, g in enumerate(red.generator_set.generators):
        row, _ = red.generator_label(idx)
        tile = inst.tiles[(idx % red.num_tiles)]
        base = (inst.width - 1) * inst.num_colors
        expected = base + 2 if row < inst.width or tile.south == 1 else base + 1
        if len(g.dom()) != expected or len(g.image()) != expected:
            failures.append(("generator-size", inst, idx))
    got = member(red.generator_set, red.target, limit)
    if (grid is not None) != got.found:
        failures.append(("iff", inst))
        return
    if grid is not None:
        word = encode_grid(red, grid)
        if evaluate_word(red.generator_set, word) != red.target:
            failures.append(("grid-word-value", inst))
        decoded = decode_witness(red, got.witness)
        if verify_proper_tiling(inst, decoded) is not None:
            failures.append(("decoded-grid", inst))


def test_criterion_5_tiling_reduction_iff():
    failures = []
    start = time.perf_counter()

    count = 0
    for c in (1, 2):
        tiles = _all_tiles(c)
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                for chosen in combinations_with_replacement(tiles, k):
                    count += 1
                    # the exhaustive sweep must fit the limit outright
                    try:
                        _roundtrip_failures(TilingInstance(chosen, c, m), 100_000, failures)
                    except LimitExceeded:
                        failures.append(("limit-on-exhaustive", (c, m, chosen)))

    rng = random.Random(SEED + 5)
    feasible, skipped = 0, 0
    while feasible < 100:
        inst = random_tiling_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                      rng.randint(1, 3))
        try:
            _roundtrip_failures(inst, 50_000, failures)
        except LimitExceeded:
            skipped += 1
            if skipped > 400:
                failures.append(("too-many-infeasible", skipped))
                break
            continue
        feasible += 1

    report(5, f"tiling iff, {count} exhaustive + {feasible} random instances "
              f"({skipped} skipped as closure-infeasible)",
           failures, time.perf_counter() - start, budget=600)


def _cli_env():
    """The parent's environment with the directory holding the imported
    ``pbsg`` package first on ``PYTHONPATH``, so that the child finds the
    same package from any working directory, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pbsg.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def _run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "pbsg", *args],
        capture_output=True, cwd=cwd, env=_cli_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


def _outcome(run):
    """Exit code and last stderr line of one run, for a failure record."""
    code, _, stderr = run
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    return f"exit {code}: {lines[-1] if lines else '(no stderr)'}"


def test_criterion_6_cli_byte_determinism(tmp_path):
    start = time.perf_counter()
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps(
        {"degree": 3, "generators": [[3, 1, None], [1, None, 2]],
         "inverse_closed": False}))
    elem_path = tmp_path / "elem.json"
    elem_path.write_text(json.dumps({"degree": 3, "map": [3, 1, None]}))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"colors": 2, "width": 2,
         "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1}, {"n": 2, "e": 1, "s": 1, "w": 1}]}))

    matrix = [
        ["random", "gens", "-n", "4", "-k", "3", "--seed", "7"],
        ["random", "tiling", "-m", "2", "-c", "2", "-k", "2", "--seed", "7"],
        ["props", str(gens_path), "--cross-check"],
        ["props", str(gens_path), "--property", "commutative", "--json"],
        ["oracle", str(gens_path)],
        ["member", str(gens_path), str(elem_path)],
        ["models", str(gens_path), "x1 x1^-1 = x1^-1 x1"],
        ["models", str(gens_path), "x1 x1^-1 = x1^-1 x1", "--json", "--cross-check"],
        ["tiling", "solve", str(inst_path)],
        ["tiling", "roundtrip", str(inst_path), "--json"],
    ]
    failures = []
    for args in matrix:
        first = _run_cli(args, tmp_path)
        second = _run_cli(args, tmp_path)
        if first != second:
            failures.append(("nondeterministic", args,
                             _outcome(first), _outcome(second)))
        if not first[1]:
            failures.append(("no-output", args, _outcome(first)))
    report(6, f"CLI byte determinism over {len(matrix)} invocations",
           failures, time.perf_counter() - start, budget=120)
