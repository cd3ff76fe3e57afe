"""Build the frozen input pools and record their reference outputs.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root.  Candidates come from the benchmark's own
seeded generator (``generate.py``); the ones kept are written, with their
input facts and the library's current outputs, to ``pools/<name>.json``.
Every reference output is confirmed independently before it is written:
``props`` by the fast/oracle cross-check, ``models`` against
``oracle_models``, ``tiling`` by roundtrip consistency (solver verdict equals
membership verdict, and grids and witnesses convert into each other).
Re-recording is only for a change that redefines a workload; a change that
claims a speed-up must leave the pools as they are.

    python3 perfbench/record.py --nominal [--workload NAME ...]

records instead the times of the frozen reference copy (``reference/``)
alone on each pool, medians over several passes and set-ups, into
``reference/nominal.json``: the scale of every end-to-end time.  Record them
again whenever the pools or the copy change, and only then.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from random import Random

import generate
from run import Reference, environment
from workloads import (
    NOMINAL_FILE, POOL_DIR, REFERENCE_DIR, REFERENCE_PACKAGE, WORKLOADS, load_pbsg,
    load_pool, source_sha256,
)

POOL_SEED = 20261017
#: (smallest, largest closure size, count): the cost of a props decision grows
#: faster than the square of the closure, so the large sizes are few and a
#: pass stays short.  A set of 450-600 elements took over a third of a pass
#: by itself, and a run decides every input seven times (a warm-up, then
#: three paired passes), so there is none.
PROPS_BINS = ((30, 59, 10), (60, 119, 20), (120, 239, 14), (240, 449, 2))
MODELS_SETS = 24
MODELS_MAX_CLOSURE = 150  # keeps the oracle confirmation of 3-variable identities short
TILING_COUNTS = {True: 20, False: 12}  # member hits and misses; more hits puts p50 among them
TILING_MAX_ELEMENTS = 30_000  # membership must decide within this many elements
NOMINAL_PASSES = 5
NOMINAL_SETUPS = 9


def _props(pb, rng):
    items, seen = [], set()
    left = {(lo, hi): count for lo, hi, count in PROPS_BINS}
    while any(left.values()):
        doc = generate.generator_doc(rng, (4, 5, 6), (2, 3), inverse_closed=False)
        key = json.dumps(doc)
        gens = pb.closure.GeneratorSet.from_json_obj(doc)
        if key in seen or gens.with_inverses().generators == gens.generators:
            continue
        seen.add(key)
        try:
            size = len(pb.closure.close(gens, PROPS_BINS[-1][1]))
        except pb.closure.LimitExceeded:
            continue
        for lo, hi in left:
            if lo <= size <= hi and left[lo, hi]:
                left[lo, hi] -= 1
                items.append({"input": doc, "facts": {
                    "degree": doc["degree"], "generators": len(doc["generators"]),
                    "closure_size": size}})
    return items


def _models(pb, rng):
    idents = [(text, pb.identities.parse_identity(text)) for text in generate.IDENTITIES]
    items, seen = [], set()
    while len(seen) < MODELS_SETS:
        doc = generate.generator_doc(rng, (4, 5, 6), (1, 2, 3), inverse_closed=True)
        key = json.dumps(doc)
        if key in seen:
            continue
        gens = pb.closure.GeneratorSet.from_json_obj(doc)
        try:
            size = len(pb.closure.close(gens, MODELS_MAX_CLOSURE))
        except pb.closure.LimitExceeded:
            continue
        seen.add(key)
        n = doc["degree"]
        for text, ident in idents:
            verdict = pb.oracle.oracle_models(gens, ident).models
            items.append({"input": {"gens": doc, "identity": text}, "facts": {
                "degree": n, "closure_size": size,
                "boundary_space": n * (n + 1) ** (len(ident.lhs) + len(ident.rhs)),
                "verdict": "holds" if verdict else "fails"}})
    return items


def _tiling(pb, rng):
    kept = {True: [], False: []}
    seen = set()
    while any(len(kept[hit]) < want for hit, want in TILING_COUNTS.items()):
        doc = generate.tiling_doc(rng)
        key = json.dumps(doc)
        if key in seen:
            continue
        seen.add(key)
        inst = pb.tiling.TilingInstance.from_json_obj(doc)
        try:
            rep = pb.tiling.roundtrip_check(inst, TILING_MAX_ELEMENTS)
        except pb.closure.LimitExceeded:
            continue
        hit = rep.member.found
        if len(kept[hit]) >= TILING_COUNTS[hit]:
            continue
        m, c, k = doc["width"], doc["colors"], len(doc["tiles"])
        size = None if hit else len(pb.closure.close(pb.tiling.reduce(inst).generator_set))
        kept[hit].append({"input": doc, "facts": {
            "mck": [m, c, k], "degree": 2 * m * c, "columns": k ** m,
            "member": hit, "closure_size": size}})
    return kept[True] + kept[False]


def _cli(pb, rng):
    return [{"input": argv, "facts": {"subcommand": generate.cli_subcommand(argv)}}
            for argv in generate.CLI_MATRIX]


CANDIDATES = {"props": _props, "models": _models, "tiling": _tiling, "cli": _cli}


def _confirm(name, facts, out):
    """Independent confirmation of a reference output, beyond ``problems``;
    the ``models`` facts hold the verdict of ``oracle_models``."""
    if name == "models" and facts["verdict"] != ("holds" if out["models"] else "fails"):
        return "model checker disagrees with oracle_models"
    if name == "tiling" and out["solvable"] != out["member"]:
        return "solver and membership verdicts differ"
    if name == "cli" and out["exit"] not in (0, 1):
        return f"exit code {out['exit']}"
    return None


def record(name, root):
    pb = load_pbsg(root / "src")
    workload = WORKLOADS[name]()
    items = CANDIDATES[name](pb, Random(f"{name}:{POOL_SEED}"))
    pool = {"workload": name, "pool_seed": POOL_SEED, "items": items}
    workdir = root / "perfbench" / "out" / f"record-{name}"
    try:
        inputs = workload.build(pb, pool, workdir)
        for i, (it, inp) in enumerate(zip(items, inputs)):
            start = time.perf_counter()
            raw = workload.decide(inp)
            elapsed = time.perf_counter() - start
            out = workload.output(inp, raw)
            problem = workload.problems(inp, raw, out) or _confirm(name, it["facts"], out)
            if problem:
                raise SystemExit(f"{name} item {i}: {problem}")
            it["expected"] = out
            print(f"{name} {i:3d} {elapsed * 1000:8.1f} ms {json.dumps(it['facts'])}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    head = json.dumps({k: v for k, v in pool.items() if k != "items"}, sort_keys=True)
    with open(POOL_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        # one item per line keeps the file readable and its diffs small
        fh.write(head[:-1] + ', "items": [\n')
        fh.write(",\n".join(json.dumps(it, sort_keys=True) for it in pool["items"]))
        fh.write("\n]}\n")


def record_nominal(names, root):
    sha = source_sha256(REFERENCE_DIR / REFERENCE_PACKAGE)
    doc = {"workloads": {}}
    if NOMINAL_FILE.is_file():
        with open(NOMINAL_FILE, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("reference_sha256") != sha:
            doc["workloads"] = {}  # recorded with another copy
    doc["reference_sha256"] = sha
    doc["cpu_model"] = environment(root)["cpu_model"]
    for name in names:
        pool = load_pool(name)
        workdir = root / "perfbench" / "out" / f"nominal-{name}"
        reference = Reference(WORKLOADS[name](), pool["items"], workdir)
        try:
            setups = []
            for _ in range(NOMINAL_SETUPS):
                setups.append(reference.set_up())
                gc.collect()
            times = [[reference.decide(i) for i in range(len(pool["items"]))]
                     for _ in range(NOMINAL_PASSES)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc["workloads"][name] = {
            "setup_s": statistics.median(setups),
            "decision_s": [statistics.median(ts) for ts in zip(*times)],
        }
        print(f"{name}: set-up {doc['workloads'][name]['setup_s'] * 1000:.1f} ms, "
              f"pass {sum(doc['workloads'][name]['decision_s']):.2f} s", file=sys.stderr)
    doc["workloads"] = dict(sorted(doc["workloads"].items()))
    with open(NOMINAL_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--nominal", action="store_true",
                        help="record the reference copy's times instead of the pools")
    args = parser.parse_args()
    if args.nominal:
        record_nominal(args.workload, Path.cwd())
        return
    POOL_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        record(name, Path.cwd())


if __name__ == "__main__":
    main()
