"""The four benchmark workloads.

Each workload turns a frozen pool (``pools/<name>.json``) into library
inputs, makes one decision per input, and renders the result into the
canonical JSON form that the pool's reference records.  Decisions call the
library through module attributes (``pb.closure.close``), never through names
bound at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from generate import CLI_FILES, cli_subcommand

POOL_DIR = Path(__file__).resolve().parent / "pools"
#: A frozen copy of the library that every timed decision is paired with;
#: its package name lets it load beside ``pbsg`` in one process.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_PACKAGE = "pbsg_ref"
NOMINAL_FILE = REFERENCE_DIR / "nominal.json"

#: pbsg modules the benchmark loads; ``sampling`` is on no decision path.
MODULES = (
    "pbij", "properties", "closure", "oracle", "checkers",
    "identities", "model_checker", "tiling", "cli",
)


def load_pbsg(src: Path, package: str = "pbsg") -> SimpleNamespace:
    """Import ``package`` afresh from ``src`` and return its modules by short
    name.

    Already-loaded modules of the package are dropped first, so every call
    pays the library's own import cost again (the standard library stays
    loaded).
    """
    src = str(src)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(package)
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"{package} imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    )


def source_sha256(package_dir: Path) -> str:
    """SHA-256 over the names and bytes of a package's modules."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_pool(name: str) -> dict:
    with open(POOL_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def jsonable(value):
    """Library values in their text form: elements as ``"2 _ 1"``."""
    if hasattr(value, "to_text"):
        return value.to_text()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def _spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values),
            "max": values[-1], "sum": sum(values)}


class Props:
    """One decision = ``props --cross-check``: all 16 generator-level checks,
    the closure, then all 16 oracle reports."""

    name = "props"
    rusage = resource.RUSAGE_SELF

    def build(self, pb, pool, workdir):
        self.pb = pb
        self.props = list(pb.properties.PropertyName)
        return [pb.closure.GeneratorSet.from_json_obj(it["input"]) for it in pool["items"]]

    def decide(self, gens):
        pb = self.pb
        fast = [pb.checkers.run_generator_check(gens, p) for p in self.props]
        clo = pb.closure.close(gens)
        oracle = [pb.oracle.oracle_report(clo, p) for p in self.props]
        return len(clo), fast, oracle

    def output(self, gens, raw):
        size, fast, oracle = raw
        rows = []
        for prop, f, o in zip(self.props, fast, oracle):
            rows.append({
                "property": prop.value,
                "fast": None if f is None else [f.holds, jsonable(f.witness)],
                "oracle": [o.holds, jsonable(o.witness)],
            })
        return {"closure_size": size, "results": rows}

    def problems(self, gens, raw, out):
        bad = [r["property"] for r in out["results"]
               if r["fast"] is not None and r["fast"][0] != r["oracle"][0]]
        return f"cross-check disagreement on {bad}" if bad else None

    @staticmethod
    def summary(items) -> dict:
        facts = [it["facts"] for it in items]
        return {
            "degrees": dict(sorted(Counter(f["degree"] for f in facts).items())),
            "generators": dict(sorted(Counter(f["generators"] for f in facts).items())),
            "closure_size": _spread([f["closure_size"] for f in facts]),
        }


class Models:
    """One decision = ``models(gens, ident)`` on an inverse-closed set."""

    name = "models"
    rusage = resource.RUSAGE_SELF

    def build(self, pb, pool, workdir):
        self.pb = pb
        idents = {}
        sets = {}
        inputs = []
        for it in pool["items"]:
            text = it["input"]["identity"]
            if text not in idents:
                idents[text] = pb.identities.parse_identity(text)
            key = json.dumps(it["input"]["gens"])
            if key not in sets:
                sets[key] = pb.closure.GeneratorSet.from_json_obj(it["input"]["gens"])
            inputs.append((sets[key], idents[text]))
        return inputs

    def decide(self, inp):
        gens, ident = inp
        return self.pb.model_checker.models(gens, ident)

    def output(self, inp, res):
        cex = res.counterexample
        return {
            "models": res.models,
            "counterexample": None if cex is None else {
                "p": list(cex.boundary.p),
                "q": list(cex.boundary.q),
                "words": [list(w) for w in cex.words],
            },
        }

    def problems(self, inp, res, out):
        if res.models:
            return None
        _, lhs, rhs = self.pb.model_checker.counterexample_values(
            res.generators, inp[1], res.counterexample)
        return "counterexample does not replay" if lhs == rhs else None

    @staticmethod
    def summary(items) -> dict:
        facts = [it["facts"] for it in items]
        return {
            "degrees": dict(sorted(Counter(f["degree"] for f in facts).items())),
            "closure_size": _spread([f["closure_size"] for f in facts]),
            "boundary_space_computed": _spread([f["boundary_space"] for f in facts]),
            "verdicts": dict(sorted(Counter(f["verdict"] for f in facts).items())),
        }


class Tiling:
    """One decision = ``roundtrip_check``: solver, reduction, membership,
    and witness decoding on one corridor instance."""

    name = "tiling"
    rusage = resource.RUSAGE_SELF

    def build(self, pb, pool, workdir):
        self.pb = pb
        return [pb.tiling.TilingInstance.from_json_obj(it["input"]) for it in pool["items"]]

    def decide(self, inst):
        return self.pb.tiling.roundtrip_check(inst)

    def output(self, inst, rep):
        def rows(grid):
            return None if grid is None else [list(r) for r in grid.cells]
        return {
            "solvable": rep.solvable,
            "member": rep.member.found,
            "witness": None if rep.member.witness is None else list(rep.member.witness),
            "consistent": rep.consistent,
            "grid": rows(rep.grid),
            "decoded": rows(rep.decoded),
        }

    def problems(self, inst, rep, out):
        return None if rep.consistent else "solver and membership disagree"

    @staticmethod
    def summary(items) -> dict:
        facts = [it["facts"] for it in items]
        misses = [f["closure_size"] for f in facts if not f["member"]]
        return {
            "classes_mck": dict(sorted(Counter(
                "{}/{}/{}".format(*f["mck"]) for f in facts).items())),
            "degrees": dict(sorted(Counter(f["degree"] for f in facts).items())),
            "columns_k_pow_m": _spread([f["columns"] for f in facts]),
            "member": {"hit": len(facts) - len(misses), "miss": len(misses)},
            "miss_closure_size": _spread(misses),
        }


class Cli:
    """One decision = one ``python -m pbsg`` process from the argv matrix
    (``python -m pbsg_ref`` for the reference copy)."""

    name = "cli"
    rusage = resource.RUSAGE_CHILDREN

    def build(self, pb, pool, workdir):
        self.workdir = workdir
        self.package = pb.cli.__name__.rpartition(".")[0]
        workdir.mkdir(parents=True, exist_ok=True)
        for fname, doc in CLI_FILES.items():
            (workdir / fname).write_text(json.dumps(doc), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pb.cli.__file__)))
        return [list(it["input"]) for it in pool["items"]]

    def run(self, argv):
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              cwd=self.workdir, env=self.env, timeout=120)

    def decide(self, argv):
        return self.run(["-m", self.package, *argv])

    def output(self, argv, proc):
        return {"exit": proc.returncode,
                "stdout": proc.stdout.decode("utf-8", "replace"),
                "stderr": proc.stderr.decode("utf-8", "replace")}

    def problems(self, argv, proc, out):
        return None

    @staticmethod
    def summary(items) -> dict:
        return {"subcommands": dict(sorted(Counter(
            cli_subcommand(it["input"]) for it in items).items()))}


WORKLOADS = {w.name: w for w in (Props, Models, Tiling, Cli)}
