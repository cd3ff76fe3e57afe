#!/usr/bin/env python3
"""Record the benchmark on every workload into one BENCH file, or compare two.

    python3 scripts/bench_record.py --seed 1 --output BENCH_6.json
    python3 scripts/bench_record.py --compare BENCH_5.json BENCH_6.json

Recording runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
from the repository root for each workload that ``BENCHMARK.json`` lists, with
T its ``run_seconds``, and writes the facts line and the result line of each
run, the commit and the machine.  Each run starts with no bytecode cache:
``PYTHONPYCACHEPREFIX`` points at a fresh empty directory and
``PYTHONDONTWRITEBYTECODE=1`` keeps it empty, so ``setup_s`` (whose imports
compile the package and the reference copy) does not depend on whether the
checkout holds ``__pycache__`` directories from earlier runs, just as in a
fresh checkout.  ``--compare A B`` prints, for every
end-to-end metric of every workload in both files, the relative change from
A to B and whether it stays within the metric's ``BENCHMARK.json`` bound,
and a ``FAIL`` line for each workload of A that B lacks; it exits 1 when
any metric is out of bounds, any run of B is incorrect or any workload of A
is missing from B.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def record(seed: int, output: Path) -> int:
    bench = _benchmark()
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        with tempfile.TemporaryDirectory() as cache:
            env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=cache)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, env=env,
            )
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"bench_record: {name} printed no result (exit {proc.returncode}): "
                  f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 2
        facts, result = json.loads(lines[-2]), json.loads(lines[-1])
        workloads[name] = {"facts": facts, "result": result}
        print(f"{name}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    env = next(iter(workloads.values()))["facts"]["environment"]
    doc = {
        "commit": _git("rev-parse", "HEAD"),
        "source_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "machine": {
            "cpu_model": env["cpu_model"],
            "nproc": env["nproc"],
            "python": env["python"],
            "platform": platform.platform(),
        },
        "seed": seed,
        "seconds": bench["run_seconds"],
        "workloads": workloads,
    }
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    """Print each end-to-end metric's change from A to B; 0 when B has
    every workload of A, every metric stays within its bound and every run
    of B is correct."""
    metrics = _benchmark()["end_to_end"]
    a = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    b = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    ok = True
    print("workload\tmetric\tA\tB\tchange\tbound\tverdict")
    for name in a:
        if name not in b:
            ok = False
            print(f"{name}\tworkload\tpresent\tmissing\t-\t-\tFAIL")
            continue
        ra, rb = a[name]["result"], b[name]["result"]
        if not rb["correct"]:
            ok = False
            print(f"{name}\tcorrect\t{ra['correct']}\t{rb['correct']}\t-\t-\tFAIL")
        for m in metrics:
            va = ra["metrics"][m["name"]]["value"]
            vb = rb["metrics"][m["name"]]["value"]
            change = (vb - va) / va
            worse = change if m["better"] == "lower" else -change
            passes = worse <= m["bound"]
            ok = ok and passes
            print(f"{name}\t{m['name']}\t{va:.4g}\t{vb:.4g}\t{change:+.1%}\t"
                  f"{m['bound']:.0%}\t{'ok' if passes else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("-o", "--output", type=Path, help="BENCH file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two BENCH files instead of recording")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.output is None:
        parser.error("--output is required when recording")
    return record(args.seed, args.output)


if __name__ == "__main__":
    sys.exit(main())
