"""pbsg benchmark: one workload, a closed loop of decisions, one result line.

    python3 perfbench/run.py --workload props --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
workload decides a frozen pool of inputs (``pools/<name>.json``) one at a
time, single-process, in whole passes; ``--seed`` sets the order of every
pass.  A new pass starts while it is expected to end within half a pass of
``--seconds``, or while the run has fewer than 100 timed decisions, so
every run decides each pool input equally often.  Every output is compared
with the pool's reference; any mismatch, exception or failed self-check
counts as failed and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics.  After one warm-up pass, every
timed decision and set-up is paired with the same one made by a frozen copy
of the library (``reference/pbsg_ref``).  The metrics scale the copy's
recorded times (``reference/nominal.json``) by the library's time over the
copy's in each pair: they are times at the speed the host had when the copy
was recorded, so the host's slow and fast spells, which slow both sides of
a pair, cancel out.

``--trace 1`` alternates untraced and traced passes, adds one pass that
counts element products, and prints the per-layer metrics; spans go to
``perfbench/out/``.  The line before the result holds the environment and
the input facts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from random import Random

from generate import CLI_MATRIX, cli_subcommand
from tracing import Tracer, self_times
from workloads import (
    REFERENCE_DIR, REFERENCE_PACKAGE, NOMINAL_FILE, WORKLOADS, load_pbsg, load_pool,
    source_sha256,
)

SETUP_PAIRS = 12
MIN_DECISIONS = 100  # so that at least 10 decisions lie beyond p90
MUL_PAIRS = 20_000
MUL_REPEATS = 5
CLI_PROBES = 3  # interpreter and import probes per traced cli pass
LAYERS = ("bench", "closure", "oracle", "checkers", "model_checker", "tiling", "cli")
#: Metric names are fixed here, not read from the library, so that they stay
#: the names BENCHMARK.json lists.
PROPERTIES = (
    "commutative", "semilattice", "band", "group", "left-zero", "right-zero",
    "zero", "nilpotent", "r-trivial", "central-idempotents", "regular",
    "completely-regular", "clifford", "left-identity", "right-identity",
    "two-sided-identity",
)
CLI_SUBCOMMANDS = tuple(dict.fromkeys(cli_subcommand(argv) for argv in CLI_MATRIX))


def git_commit(git: Path):
    """The commit ``HEAD`` names, read from the files under ``.git`` rather
    than by running git: a ``cli`` run reports the peak memory of its child
    processes, and a git child would be one of them.  None without history."""
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        with open(git / "packed-refs", encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh
                         if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(root / ".git"),
        "source_sha256": source_sha256(root / "src" / "pbsg"),
    }


class Loop:
    """Runs passes over the pool and checks every output."""

    def __init__(self, workload, inputs, items, seed):
        self.workload, self.inputs, self.items = workload, inputs, items
        self.rng = Random(seed)
        self.attempted = 0
        self.failed = 0
        self.pairs: list = []  # (input index, seconds, reference seconds)
        self.flip = False

    def run_pass(self, tracer=None, root_name=None, reference=None):
        """One pass in a fresh seeded order; returns the seconds spent deciding.

        With a ``reference``, each decision is paired with the reference
        copy's decision on the same input, the two in alternating order.
        """
        wl = self.workload
        order = list(range(len(self.inputs)))
        self.rng.shuffle(order)
        busy = 0.0
        for i in order:
            self.flip = not self.flip
            if reference is not None and self.flip:
                ref_elapsed = reference.decide(i)
            inp = self.inputs[i]
            start = time.perf_counter()
            try:
                if tracer is None:
                    raw = wl.decide(inp)
                else:
                    raw = tracer.call(root_name(self.items[i]), self.attempted, wl.decide, inp)
                error = None
            except Exception as exc:  # a raised decision is a failed decision
                raw, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if reference is not None and not self.flip:
                ref_elapsed = reference.decide(i)
            busy += elapsed
            if reference is not None:
                self.pairs.append((i, elapsed, ref_elapsed))
            self.attempted += 1
            if error is None:
                out = wl.output(inp, raw)
                error = wl.problems(inp, raw, out)
                expected = self.items[i]["expected"]
                if error is None and out != expected:
                    keys = sorted(k for k in out if out[k] != expected.get(k))
                    error = f"output differs from the reference in {keys}"
            if error is not None:
                self.failed += 1
                if self.failed <= 5:
                    print(f"perfbench: {wl.name} item {i}: {error}", file=sys.stderr)
        return busy


class Reference:
    """The frozen reference copy of the library (``reference/pbsg_ref``),
    deciding the same pool.  Its outputs must match the pool's references;
    a mismatch means the benchmark itself is broken, so it raises."""

    def __init__(self, workload, items, workdir):
        self.workload, self.items, self.workdir = workload, items, workdir
        self.inputs = None

    def set_up(self):
        """Import the copy afresh and build its inputs; returns the seconds."""
        start = time.perf_counter()
        pb = load_pbsg(REFERENCE_DIR, REFERENCE_PACKAGE)
        self.inputs = self.workload.build(pb, {"items": self.items}, self.workdir)
        return time.perf_counter() - start

    def decide(self, i):
        inp = self.inputs[i]
        start = time.perf_counter()
        raw = self.workload.decide(inp)
        elapsed = time.perf_counter() - start
        if self.workload.output(inp, raw) != self.items[i]["expected"]:
            raise RuntimeError(f"reference copy: item {i} differs from the pool")
        return elapsed


def load_nominal(name, pool_size):
    """The reference copy's recorded times for one workload, after checking
    that the copy is the one they were recorded with."""
    with open(NOMINAL_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["reference_sha256"] != source_sha256(REFERENCE_DIR / REFERENCE_PACKAGE):
        raise RuntimeError(f"{REFERENCE_DIR} differs from the copy {NOMINAL_FILE.name} "
                           "was recorded with")
    nominal = doc["workloads"][name]
    if len(nominal["decision_s"]) != pool_size:
        raise RuntimeError(f"{NOMINAL_FILE.name} has no time for some {name} pool items")
    return nominal


def whole_passes(seconds, run_one, enough=lambda: True):
    """Call ``run_one()`` (one pass, returns its duration) while the next pass
    is expected to end within half a pass of the deadline, and after that
    until ``enough()``; at least once."""
    begin = time.perf_counter()
    durations = []
    while True:
        durations.append(run_one())
        mean = statistics.mean(durations)
        if time.perf_counter() - begin + mean / 2 >= seconds and enough():
            return durations


def scaled_times(loop, nominal):
    """Each timed decision at reference speed: the input's recorded time
    times the ratio of the library's time to the reference copy's in the
    same pair."""
    return [nominal["decision_s"][i] * cur / ref for i, cur, ref in loop.pairs]


def end_to_end(loop, setup_pairs, nominal, rss_mb):
    """Times at reference speed (``scaled_times``): a slow spell of the host
    slows both sides of a pair and cancels out."""
    times = scaled_times(loop, nominal)
    setups = [cur / ref * nominal["setup_s"] for cur, ref in setup_pairs]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "decisions_per_s": (len(times) / sum(times), "1/s"),
        "decision_p50_ms": (statistics.median(times) * 1000, "ms"),
        "decision_p90_ms": (statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def wall_clock(loop, setup_pairs, nominal):
    """The same figures unscaled, and the host's speed against the recording
    (above 1: faster), for the facts line."""
    times = [cur for _, cur, _ in loop.pairs]
    return {
        "setup_s": statistics.median(cur for cur, _ in setup_pairs),
        "decisions_per_s": len(times) / sum(times),
        "decision_p50_ms": statistics.median(times) * 1000,
        "decision_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "host_speed": statistics.median(
            nominal["decision_s"][i] / ref for i, _, ref in loop.pairs),
    }


def mul_ns(pb, seed):
    """Median nanoseconds per ``a * b`` over element pairs of the props pool's
    closures (the loop's own cost included)."""
    pairs = []
    rng = Random(seed)
    closures = [pb.closure.close(pb.closure.GeneratorSet.from_json_obj(it["input"]))
                for it in load_pool("props")["items"]]
    per = MUL_PAIRS // len(closures) + 1
    for clo in closures:
        els = clo.elements
        pairs.extend((rng.choice(els), rng.choice(els)) for _ in range(per))
    runs = []
    for _ in range(MUL_REPEATS):
        start = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        runs.append((time.perf_counter_ns() - start) / len(pairs))
    return statistics.median(runs)


def _p50_ms(values):
    return statistics.median(values) * 1000 if values else 0.0


def per_layer(spans, traced_passes, untraced, traced, mul, mul_calls, items, cli_probes):
    """Per-layer metrics from the spans of the traced passes (sums are per
    pass over the pool) and the setup spans."""
    decision_spans = [s for s in spans if s[4] != "setup"]
    by_name = defaultdict(list)
    for name, start, end, _, _, tag in decision_spans:
        by_name[name].append((end - start, tag))
    per_pass = 1 / traced_passes

    def total(name, tag=None):
        return sum(d for d, t in by_name[name] if tag is None or t == tag) * per_pass

    def calls(name, tag=None):
        return sum(1 for _, t in by_name[name] if tag is None or t == tag) * per_pass

    def p50(name, tag=None):
        return _p50_ms([d for d, t in by_name[name] if tag is None or t == tag])

    facts = [it["facts"] for it in items]
    miss_elements = sum(f["closure_size"] for f in facts if f.get("member") is False)
    close_elements = sum(t for _, t in by_name["closure.close"]) * per_pass
    elements = close_elements + (miss_elements if by_name["closure.member"] else 0)
    closure_busy = total("closure.close") + total("closure.member", "miss")
    model_space = [f["boundary_space"] for f in facts if "boundary_space" in f]
    holds_space = sum(f["boundary_space"] for f in facts if f.get("verdict") == "holds")
    holds_s = total("model_checker.models", "holds")

    m = {
        "pbij.mul_ns": (mul, "ns"),
        "pbij.mul_calls": (mul_calls, "count"),
        "closure.close_calls": (calls("closure.close"), "count"),
        "closure.close_s": (total("closure.close"), "s"),
        "closure.elements": (elements, "count"),
        "closure.elements_per_s": (elements / closure_busy if closure_busy else 0.0, "1/s"),
        "closure.member_hit_calls": (calls("closure.member", "hit"), "count"),
        "closure.member_hit_ms_p50": (p50("closure.member", "hit"), "ms"),
        "closure.member_miss_calls": (calls("closure.member", "miss"), "count"),
        "closure.member_miss_ms_p50": (p50("closure.member", "miss"), "ms"),
        "closure.member_s": (total("closure.member"), "s"),
        "oracle.report_s": (total("oracle.oracle_report"), "s"),
    }
    for prop in PROPERTIES:
        m[f"oracle.report_s.{prop}"] = (total("oracle.oracle_report", prop), "s")
    setup_parse = [s for s in spans if s[4] == "setup" and s[0] == "identities.parse_identity"]
    m.update({
        "checkers.calls": (calls("checkers.run_generator_check"), "count"),
        "checkers.s": (total("checkers.run_generator_check"), "s"),
        "identities.parse_calls": (len(setup_parse), "count"),
        "identities.parse_s": (sum(s[2] - s[1] for s in setup_parse), "s"),
        "model_checker.models_calls": (calls("model_checker.models"), "count"),
        "model_checker.models_s": (total("model_checker.models"), "s"),
        "model_checker.holds_ms_p50": (p50("model_checker.models", "holds"), "ms"),
        "model_checker.fails_ms_p50": (p50("model_checker.models", "fails"), "ms"),
        "model_checker.boundary_space": (sum(model_space), "count"),
        "model_checker.holds_boundaries_per_s": (holds_space / holds_s if holds_s else 0.0, "1/s"),
        "tiling.solve_s": (total("tiling.solve_corridor_tiling"), "s"),
        "tiling.columns": (sum(f.get("columns", 0) for f in facts), "count"),
        "tiling.reduce_s": (total("tiling.reduce"), "s"),
        "tiling.decode_s": (total("tiling.decode_witness"), "s"),
        "cli.interp_ms": (_p50_ms(cli_probes["interp"]), "ms"),
        "cli.import_ms": (_p50_ms(cli_probes["import"]), "ms"),
    })
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = (p50(f"cli.{sub}"), "ms")

    selfs = self_times(spans, lambda span: span[4] != "setup")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0) * per_pass, "s")
    roots = [e - s for _, s, e, parent, _, _ in decision_spans if parent is None]
    if cli_probes["import"]:
        dominant = "interpreter+import"
        share = statistics.median(cli_probes["import"]) / statistics.mean(roots)
    else:
        dominant = max(selfs, key=selfs.get)
        share = selfs[dominant] / sum(roots)
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    m["trace.dominant_share"] = (share, "ratio")
    return m, dominant


def traced_run(args, loop, workload, pb, pool, workdir):
    """One traced set-up, untraced and traced passes in alternation, then
    one pass that counts products; returns metrics, facts and spans."""
    is_cli = workload.name == "cli"
    tracer = Tracer()
    tracer.install(pb)
    tracer.decision = "setup"
    try:
        loop.inputs = workload.build(pb, pool, workdir)
    finally:
        tracer.decision = None
        tracer.uninstall()

    def root_name(item):
        return f"cli.{cli_subcommand(item['input'])}" if is_cli else "bench.decision"

    untraced, traced = [], []
    probes = {"interp": [], "import": []}

    def pair():
        untraced.append(loop.run_pass())
        tracer.install(pb)
        try:
            traced.append(loop.run_pass(tracer, root_name))
        finally:
            tracer.uninstall()
        if is_cli:
            for _ in range(CLI_PROBES):
                for kind, code in (("interp", "pass"), ("import", "import pbsg.cli")):
                    start = time.perf_counter()
                    proc = workload.run(["-c", code])
                    probes[kind].append(time.perf_counter() - start)
                    if proc.returncode != 0:
                        raise RuntimeError(f"cli probe {code!r} exited {proc.returncode}")
        return untraced[-1] + traced[-1]

    whole_passes(args.seconds, pair)
    mul_calls = 0
    if not is_cli:  # products made in cli subprocesses are not observable here
        counter = Tracer()
        counter.count(pb.pbij.PartialBijection, "__mul__")
        try:
            loop.run_pass(counter, root_name)
        finally:
            counter.uninstall()
        mul_calls = counter.counts["PartialBijection.__mul__"]
    metrics, dominant = per_layer(tracer.spans, len(traced), untraced, traced,
                                  mul_ns(pb, args.seed), mul_calls, pool["items"], probes)
    return metrics, {"traced_passes": len(traced), "dominant_layer": dominant}, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "pbsg" / "__init__.py").is_file():
        print(f"perfbench: {src}/pbsg not found; run from the repository root",
              file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "load_start": os.getloadavg()}
    info["environment"] = environment(root)
    workload = WORKLOADS[args.workload]()
    pool = load_pool(args.workload)
    (root / "perfbench" / "out").mkdir(exist_ok=True)
    workdir = root / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
    ref_workdir = workdir.with_name(workdir.name + "-ref")
    try:
        def set_up():
            start = time.perf_counter()
            pb = load_pbsg(src)
            inputs = workload.build(pb, pool, workdir)
            return pb, inputs, time.perf_counter() - start

        pb, inputs, _ = set_up()
        loop = Loop(workload, inputs, pool["items"], args.seed)
        run_start = time.perf_counter()
        if args.trace:
            metrics, extra, spans = traced_run(args, loop, workload, pb, pool, workdir)
            info.update(extra)
            out = root / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json"
            out.write_text(json.dumps(spans), encoding="utf-8")
            info["spans"] = {"count": len(spans), "file": str(out.relative_to(root))}
        else:
            nominal = load_nominal(args.workload, len(pool["items"]))
            # A warm-up pass of the library alone, before the reference copy
            # is loaded: the peak memory after it is the library's own.
            loop.run_pass()
            rss_mb = resource.getrusage(workload.rusage).ru_maxrss / 1024
            reference = Reference(WORKLOADS[args.workload](), pool["items"], ref_workdir)
            reference.set_up()
            setup_pairs = []
            for k in range(SETUP_PAIRS):
                ref_s = reference.set_up() if k % 2 else None
                _, loop.inputs, cur_s = set_up()
                if ref_s is None:
                    ref_s = reference.set_up()
                setup_pairs.append((cur_s, ref_s))
                gc.collect()  # frees the replaced modules
            passes = whole_passes(args.seconds - (time.perf_counter() - run_start),
                                  lambda: loop.run_pass(reference=reference),
                                  lambda: len(loop.pairs) >= MIN_DECISIONS)
            metrics = end_to_end(loop, setup_pairs, nominal, rss_mb)
            p90 = metrics["decision_p90_ms"][0] / 1000
            info.update({
                "pass_s": passes,
                "setups": len(setup_pairs),
                "samples": len(loop.pairs),
                "beyond_p90": sum(1 for t in scaled_times(loop, nominal) if t > p90),
                "wall_clock": wall_clock(loop, setup_pairs, nominal),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(ref_workdir, ignore_errors=True)
    info.update({
        "run_s": time.perf_counter() - run_start,
        "pool_size": len(pool["items"]),
        "inputs": workload.summary(pool["items"]),
        "load_end": os.getloadavg(),
    })
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
