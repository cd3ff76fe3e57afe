"""Command-line front end.

Subcommands: ``props`` (generator-level property checks, optionally
cross-checked against the closure oracle), ``oracle`` (closure oracle only),
``member`` (membership with witness), ``models`` (identity model checking),
``tiling solve|reduce|roundtrip``, and ``random gens|tiling`` (seeded
instance files).

Exit codes: 0 decided/holds, 1 decided/does-not-hold, 2 usage or input
error, 3 budget or closure limit exceeded, 4 internal inconsistency (a
--cross-check disagreement or a failed tiling roundtrip).

Output is deterministic: identical argv and input files produce identical
bytes, and all randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

# Only what every subcommand needs is imported here; each handler imports the
# modules it uses, so a process loads no decider it does not run.
from .closure import (
    DEFAULT_BUDGET,
    DEFAULT_LIMIT,
    GeneratorSet,
    LimitExceeded,
    close,
    member,
)
from .pbij import PartialBijection

SCHEMA = "pbsg/1"

EXIT_HOLDS = 0
EXIT_DOES_NOT_HOLD = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _load(path, parse, read=json.load):
    """``parse`` applied to what ``read`` takes from the open file ``path``,
    by default its JSON document; a failure names the path once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(read(fh))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _jsonable(value):
    if isinstance(value, PartialBijection):
        return value.to_text()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _witness_str(witness) -> str:
    if witness is None:
        return "-"
    return json.dumps(_jsonable(witness), sort_keys=True)


def _emit_json(out, obj):
    json.dump(obj, out, sort_keys=True, indent=2)
    out.write("\n")


def _write_doc(doc, path, out):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _emit_json(fh, doc)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
        out.write(f"wrote {path}\n")
    else:
        _emit_json(out, doc)


def _properties(text):
    """Every property for ``all``, else the one ``text`` names."""
    from .properties import PropertyName

    if text == "all":
        return list(PropertyName)
    try:
        return [PropertyName(text)]
    except ValueError:
        valid = ", ".join(p.value for p in PropertyName)
        raise ValueError(f"unknown property {text!r}; one of: {valid}") from None


# -- props / oracle ----------------------------------------------------------


def _table_exit(holds):
    """The exit code of a property table, given each row's verdict: one
    property decides it, and a table of several exits 0."""
    return EXIT_DOES_NOT_HOLD if holds == [False] else EXIT_HOLDS


def _props_rows(gens, props, want_oracle, limit):
    from .checkers import run_generator_check

    closure = None
    rows = []
    for prop in props:
        fast = run_generator_check(gens, prop)
        oracle = None
        if want_oracle or fast is None:
            if closure is None:
                from .oracle import oracle_report

                closure = close(gens, limit)
            oracle = oracle_report(closure, prop)
        rows.append((prop, fast, oracle))
    return rows


def _cmd_props(args, out):
    gens = _load(args.gens, GeneratorSet.from_json_obj)
    props = _properties(args.property)
    rows = _props_rows(gens, props, args.cross_check, args.limit)

    disagreements = []
    results = []
    for prop, fast, oracle in rows:
        if fast is not None and oracle is not None and fast.holds != oracle.holds:
            disagreements.append(prop.value)
        decided = oracle if fast is None else fast
        results.append(
            {
                "property": prop.value,
                "fast": None if fast is None else fast.holds,
                "oracle": None if oracle is None else oracle.holds,
                "holds": decided.holds,
                "witness": _jsonable((fast or oracle).witness),
            }
        )

    if args.json:
        _emit_json(out, {"schema": SCHEMA, "command": "props",
                         "results": results, "disagreements": disagreements})
    else:
        out.write("property\tfast\toracle\twitness\n")
        for prop, fast, oracle in rows:
            fast_s = "-" if fast is None else str(fast.holds).lower()
            oracle_s = "-" if oracle is None else str(oracle.holds).lower()
            out.write(f"{prop.value}\t{fast_s}\t{oracle_s}\t{_witness_str((fast or oracle).witness)}\n")
        for prop in disagreements:
            out.write(f"DISAGREE\t{prop}\n")
    if disagreements:
        return EXIT_INCONSISTENT
    return _table_exit([r["holds"] for r in results])


def _cmd_oracle(args, out):
    from .oracle import oracle_report

    gens = _load(args.gens, GeneratorSet.from_json_obj)
    props = _properties(args.property)
    closure = close(gens, args.limit)
    reports = [oracle_report(closure, prop) for prop in props]
    if args.json:
        _emit_json(out, {
            "schema": SCHEMA, "command": "oracle", "closure_size": len(closure),
            "results": [
                {"property": r.prop.value, "holds": r.holds, "witness": _jsonable(r.witness)}
                for r in reports
            ],
        })
    else:
        out.write(f"# closure size: {len(closure)}\n")
        out.write("property\tholds\twitness\n")
        for r in reports:
            out.write(f"{r.prop.value}\t{str(r.holds).lower()}\t{_witness_str(r.witness)}\n")
    return _table_exit([r.holds for r in reports])


# -- member ------------------------------------------------------------------


def _cmd_member(args, out):
    gens = _load(args.gens, GeneratorSet.from_json_obj)
    b = _load(args.element, PartialBijection.from_json_obj)
    result = member(gens, b, args.limit)
    witness = None if result.witness is None else [i + 1 for i in result.witness]
    if args.json:
        _emit_json(out, {"schema": SCHEMA, "command": "member",
                         "found": result.found, "witness": witness,
                         "element": b.to_text()})
    else:
        out.write("FOUND\n" if result.found else "NOT-FOUND\n")
        if witness:
            out.write("witness: " + " ".join(map(str, witness)) + "\n")
    return EXIT_HOLDS if result.found else EXIT_DOES_NOT_HOLD


# -- models ------------------------------------------------------------------


def _identity(text, where=""):
    """``text`` parsed as one identity; ``where`` prefixes a syntax error."""
    from .identities import IdentitySyntaxError, parse_identity

    try:
        return parse_identity(text)
    except IdentitySyntaxError as exc:
        raise ValueError(f"{where}bad identity: {exc}") from None


def _identity_file(text):
    """The identity on each nonblank line of ``text``, parsed as written."""
    idents = [_identity(line, f"line {number}: ")
              for number, line in enumerate(text.split("\n"), 1) if line.strip()]
    if not idents:
        raise ValueError("no identities found")
    return idents


def _identities_from_arg(text):
    """The identity ``text``, or those in the file ``@PATH``, one per line."""
    if text.startswith("@"):
        return _load(text[1:], _identity_file, read=lambda fh: fh.read())
    return [_identity(text)]


def _counterexample_block(gens, ident, cex):
    from .model_checker import counterexample_values, render_point

    n = gens.degree
    assignment, lhs_value, rhs_value = counterexample_values(gens, ident, cex)
    return {
        "boundary": {
            "p": [render_point(v, n) for v in cex.boundary.p],
            "q": [render_point(v, n) for v in cex.boundary.q],
        },
        "words": [[i + 1 for i in w] for w in cex.words],
        "assignment": [el.to_text() for el in assignment],
        "lhs_value": lhs_value.to_text(),
        "rhs_value": rhs_value.to_text(),
    }


def _cmd_models(args, out):
    from .identities import format_identity
    from .model_checker import models

    gens = _load(args.gens, GeneratorSet.from_json_obj)
    idents = _identities_from_arg(args.identity)
    blocks = []
    any_fails = False
    disagree = False
    for ident in idents:
        block = {"identity": format_identity(ident)}
        fast = oracle = None
        if not args.oracle:
            fast = models(gens, ident, budget=args.budget)
        if args.oracle or args.cross_check:
            from .oracle import oracle_models

            oracle = oracle_models(gens, ident, args.limit)
        verdict = fast.models if fast is not None else oracle.models
        block["models"] = verdict
        if fast is not None and oracle is not None and fast.models != oracle.models:
            disagree = True
            block["disagreement"] = {"fast": fast.models, "oracle": oracle.models}
        if fast is not None and not fast.models:
            block["generators"] = [g.to_text() for g in fast.generators.generators]
            block["counterexample"] = _counterexample_block(
                fast.generators, ident, fast.counterexample
            )
        elif oracle is not None and not oracle.models:
            block["oracle_assignment"] = [el.to_text() for el in oracle.assignment]
        if not verdict:
            any_fails = True
        blocks.append(block)

    if args.json:
        _emit_json(out, {"schema": SCHEMA, "command": "models", "results": blocks})
    else:
        for block in blocks:
            out.write(f"identity: {block['identity']}\n")
            out.write("MODELS\n" if block["models"] else "NOT-MODELS\n")
            if "disagreement" in block:
                d = block["disagreement"]
                out.write(f"DISAGREE\tfast={d['fast']}\toracle={d['oracle']}\n")
            if "generators" in block:
                out.write("generators: " + " | ".join(block["generators"]) + "\n")
            cex = block.get("counterexample")
            if cex:
                out.write("boundary p: " + " ".join(cex["boundary"]["p"]) + "\n")
                out.write("boundary q: " + " ".join(cex["boundary"]["q"]) + "\n")
                for i, (word, el) in enumerate(zip(cex["words"], cex["assignment"]), start=1):
                    out.write(f"x{i}: word " + " ".join(map(str, word)) + f" -> '{el}'\n")
                out.write(f"lhs value: '{cex['lhs_value']}'\n")
                out.write(f"rhs value: '{cex['rhs_value']}'\n")
            if "oracle_assignment" in block:
                out.write("oracle assignment: " + " | ".join(block["oracle_assignment"]) + "\n")
    if disagree:
        return EXIT_INCONSISTENT
    return EXIT_DOES_NOT_HOLD if any_fails else EXIT_HOLDS


# -- tiling ------------------------------------------------------------------


def _grid_rows(grid):
    return [[idx + 1 for idx in row] for row in grid.cells]


def _cmd_tiling_solve(args, out):
    from .tiling import TilingInstance, solve_corridor_tiling

    inst = _load(args.instance, TilingInstance.from_json_obj)
    grid = solve_corridor_tiling(inst, args.limit)
    if args.json:
        _emit_json(out, {"schema": SCHEMA, "command": "tiling-solve",
                         "solvable": grid is not None,
                         "grid": None if grid is None else _grid_rows(grid)})
    else:
        out.write("UNSOLVABLE\n" if grid is None else "SOLVABLE\n")
        if grid is not None:
            for row in _grid_rows(grid):
                out.write(" ".join(map(str, row)) + "\n")
    return EXIT_DOES_NOT_HOLD if grid is None else EXIT_HOLDS


def _reduction_doc(reduced):
    gens = reduced.generator_set
    return {
        "schema": SCHEMA,
        "command": "tiling-reduce",
        "degree": gens.degree,
        "generators": [g.to_json_obj()["map"] for g in gens.generators],
        "inverse_closed": False,
        "target": reduced.target.to_json_obj(),
        "labels": [
            {"generator": idx + 1, "row": row, "tile": tile}
            for idx, (row, tile) in (
                (i, reduced.generator_label(i)) for i in range(len(gens.generators))
            )
        ],
        "points": [
            {"index": flat + 1, "q": q, "r": r}
            for flat, (q, r) in ((f, reduced.point_label(f)) for f in range(gens.degree))
        ],
    }


def _cmd_tiling_reduce(args, out):
    from .tiling import TilingInstance, reduce

    reduced = reduce(_load(args.instance, TilingInstance.from_json_obj))
    _write_doc(_reduction_doc(reduced), args.output, out)
    return EXIT_HOLDS


def _cmd_tiling_roundtrip(args, out):
    from .tiling import TilingInstance, roundtrip_check

    inst = _load(args.instance, TilingInstance.from_json_obj)
    report = roundtrip_check(inst, args.limit)
    if args.json:
        _emit_json(out, {
            "schema": SCHEMA, "command": "tiling-roundtrip",
            "solvable": report.solvable, "member": report.member.found,
            "consistent": report.consistent,
            "grid": None if report.grid is None else _grid_rows(report.grid),
            "decoded": None if report.decoded is None else _grid_rows(report.decoded),
        })
    else:
        out.write(f"solvable={str(report.solvable).lower()}\n")
        out.write(f"member={str(report.member.found).lower()}\n")
        out.write(f"consistent={str(report.consistent).lower()}\n")
        if report.decoded is not None:
            for row in _grid_rows(report.decoded):
                out.write(" ".join(map(str, row)) + "\n")
    return EXIT_HOLDS if report.consistent else EXIT_INCONSISTENT


# -- random ------------------------------------------------------------------


def _cmd_random_gens(args, out):
    from random import Random

    from .sampling import random_generator_set

    gens = random_generator_set(Random(args.seed), args.n, args.k, args.inverse_closed)
    doc = {"schema": SCHEMA, **gens.to_json_obj()}
    _write_doc(doc, args.output, out)
    return EXIT_HOLDS


def _cmd_random_tiling(args, out):
    from random import Random

    from .sampling import random_tiling_instance

    inst = random_tiling_instance(Random(args.seed), args.m, args.c, args.k)
    doc = {"schema": SCHEMA, **inst.to_json_obj()}
    _write_doc(doc, args.output, out)
    return EXIT_HOLDS


# -- argument parsing --------------------------------------------------------


def _positive_int(text):
    """argparse type of the limit and budget flags: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument errors print one stderr line, as every other error does;
    ``--help`` still prints the usage.  Subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pbsg",
        description="Decide properties of partial bijection semigroups given by generators.",
        epilog=(
            'Generator file: {"degree": n, "generators": [[2, null], ...], '
            '"inverse_closed": false} with 1-based points, null = undefined. '
            'Element file: {"degree": n, "map": [...]}. Tiling file: '
            '{"colors": c, "width": m, "tiles": [{"n":1,"e":1,"s":1,"w":1}, ...]}.'
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=False):
        p.add_argument("--limit", type=_positive_int, default=DEFAULT_LIMIT,
                       help="closure element or built tiling column budget "
                            "(default %(default)s)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                           help="model-checker budget of boundary choices plus reach "
                                "states (default %(default)s)")

    p = sub.add_parser("props", help="generator-level property checks")
    p.add_argument("gens", help="generator set JSON file")
    p.add_argument("--property", default="all",
                   help="property name or 'all' (default); properties without a "
                        "generator-level checker are decided by the oracle")
    p.add_argument("--cross-check", "--oracle", action="store_true",
                   help="also run the closure oracle and fail on disagreement")
    add_common(p)
    p.set_defaults(handler=_cmd_props)

    p = sub.add_parser("oracle", help="closure-oracle property checks")
    p.add_argument("gens")
    p.add_argument("--property", default="all")
    add_common(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("member", help="membership with witness word")
    p.add_argument("gens")
    p.add_argument("element", help="element JSON file")
    add_common(p)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("models", help="identity model checking")
    p.add_argument("gens")
    p.add_argument("identity", help="identity text, or @file with one per line")
    p.add_argument("--oracle", action="store_true", help="decide by the closure oracle only")
    p.add_argument("--cross-check", action="store_true")
    add_common(p, budget=True)
    p.set_defaults(handler=_cmd_models)

    p = sub.add_parser("tiling", help="corridor tiling tools")
    tsub = p.add_subparsers(dest="tiling_command", required=True)
    ps = tsub.add_parser("solve", help="decide solvability, print a grid")
    ps.add_argument("instance")
    add_common(ps)
    ps.set_defaults(handler=_cmd_tiling_solve)
    pr = tsub.add_parser("reduce", help="emit the membership instance")
    pr.add_argument("instance")
    pr.add_argument("-o", "--output", default=None)
    pr.set_defaults(handler=_cmd_tiling_reduce)
    pt = tsub.add_parser("roundtrip", help="solver vs membership consistency check")
    pt.add_argument("instance")
    add_common(pt)
    pt.set_defaults(handler=_cmd_tiling_roundtrip)

    p = sub.add_parser("random", help="seeded random instance files")
    rsub = p.add_subparsers(dest="random_command", required=True)
    rg = rsub.add_parser("gens")
    rg.add_argument("-n", type=int, required=True, help="degree")
    rg.add_argument("-k", type=int, required=True, help="generator count")
    rg.add_argument("--seed", type=int, default=0)
    rg.add_argument("--inverse-closed", action="store_true")
    rg.add_argument("-o", "--output", default=None)
    rg.set_defaults(handler=_cmd_random_gens)
    rt = rsub.add_parser("tiling")
    rt.add_argument("-m", type=int, required=True, help="rows")
    rt.add_argument("-c", type=int, required=True, help="colors")
    rt.add_argument("-k", type=int, required=True, help="tiles")
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("-o", "--output", default=None)
    rt.set_defaults(handler=_cmd_random_tiling)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_HOLDS
    try:
        return args.handler(args, out)
    except LimitExceeded as exc:
        print(f"pbsg: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"pbsg: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
