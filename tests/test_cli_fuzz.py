"""Fuzzing the CLI contract in-process: whatever the argv and the input
documents, ``main`` returns an exit code from 0 to 4 without raising, and a
usage or budget exit explains itself in exactly one stderr line."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pbsg.cli import EXIT_BUDGET, EXIT_USAGE, main

small = st.integers(-1, 4)
junk = st.one_of(st.none(), st.booleans(), st.sampled_from(["", "2", "x", 1.5, [], {}]))
value = small | junk

#: well-formed documents, so that argv can reach every decider
GENS = {"degree": 3, "generators": [[2, None, 1], [None, 3, None]]}
ELEMENT = {"degree": 3, "map": [2, None, None]}
TILING = {"colors": 2, "width": 2, "tiles": [{"n": 1, "e": 2, "s": 2, "w": 1},
                                             {"n": 2, "e": 1, "s": 1, "w": 2}]}
generator_docs = st.fixed_dictionaries(
    {"degree": value, "generators": st.lists(st.lists(value, max_size=4), max_size=3) | junk},
    optional={"inverse_closed": value},
)
element_docs = st.fixed_dictionaries({"degree": value, "map": st.lists(value, max_size=4) | junk})
tiles = st.fixed_dictionaries({side: st.integers(0, 3) | junk for side in "nesw"},
                              optional={"x": small})
tiling_docs = st.fixed_dictionaries({
    "colors": st.integers(-1, 3) | junk,
    "width": st.integers(-1, 2) | junk,
    "tiles": st.lists(tiles, max_size=4) | junk,
})
documents = st.one_of(
    st.sampled_from([GENS, ELEMENT, TILING]).map(json.dumps),
    st.one_of(generator_docs, element_docs, tiling_docs, value).map(json.dumps),
    st.text(max_size=12),
)



def files(kind):
    """File arguments: mostly a well-formed file of the kind the command
    reads; else a fuzzed document (A, B), a path that does not exist
    (MISSING) or a directory (DIR)."""
    return st.sampled_from([kind, kind, kind, "A", "B", "MISSING", "DIR"])


identities = st.sampled_from([
    "x1 x2 = x2 x1", "x1=x1^2 => x1 x1^-1 = x1", "x1 x2 x3 = x3 x2 x1", "@A",
]) | st.text(alphabet="x12^-1 =,'>", max_size=8)
ints = st.sampled_from(["1", "2", "3", "2", "3", "4", "0", "-1", "x"])
OPTIONS = {
    "--property": st.sampled_from(["all", "band", "group", "commutative", "x"]),
    "--limit": ints, "--budget": ints, "--max-cols": ints, "--seed": ints,
    "-n": ints, "-k": ints, "-m": ints, "-c": ints,
    #: OUT is a fresh output path, NODIR one in a missing directory
    "-o": st.sampled_from(["OUT", "OUT", "DIR", "NODIR"]),
    "--oracle": None, "--cross-check": None, "--json": None,
    "--strict-points": None, "--inverse-closed": None, "--help": None, "--bogus": None,
}
#: every subcommand: its positionals, its required options, its other options
COMMANDS = {
    (): ([], [], []),
    ("bogus",): ([], [], []),
    ("tiling",): ([], [], []),
    ("props",): ([files("GENS")], [], ["--property", "--oracle", "--cross-check", "--limit", "--json"]),
    ("oracle",): ([files("GENS")], [], ["--property", "--limit", "--json"]),
    ("member",): ([files("GENS"), files("ELEMENT")], [], ["--limit", "--json"]),
    ("models",): ([files("GENS"), identities], [],
                  ["--oracle", "--cross-check", "--budget", "--limit", "--json"]),
    ("tiling", "solve"): ([files("TILING")], [], ["--limit", "--json"]),
    ("tiling", "reduce"): ([files("TILING")], [], ["-o"]),
    ("tiling", "roundtrip"): ([files("TILING")], [], ["--limit", "--json"]),
    ("random", "gens"): ([], ["-n", "-k"], ["--seed", "--inverse-closed", "-o"]),
    ("random", "tiling"): ([], ["-m", "-c", "-k"], ["--seed", "-o"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, required, others = COMMANDS[command]
    argv = list(command)
    argv += [draw(kind) for kind in positionals if draw(st.integers(0, 9))]
    names = [name for name in required if draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(others or sorted(OPTIONS)), max_size=3))
    if not draw(st.integers(0, 7)):
        names.append(draw(st.sampled_from(sorted(OPTIONS))))
    for name in names:
        argv.append(name)
        if OPTIONS[name] is not None:
            argv.append(draw(OPTIONS[name]))
    return argv


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), doc_a=documents, doc_b=documents)
def test_cli_contract(argv, doc_a, doc_b):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        names = {"MISSING": root / "none.json", "DIR": root, "OUT": root / "out.json",
                 "NODIR": root / "none" / "out.json", "@A": f"@{root / 'A.json'}"}
        for name, text in (("A", doc_a), ("B", doc_b), ("GENS", json.dumps(GENS)),
                           ("ELEMENT", json.dumps(ELEMENT)), ("TILING", json.dumps(TILING))):
            names[name] = root / f"{name}.json"
            names[name].write_text(text)
        args = [str(names.get(token, token)) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args, out=out)
    assert code in range(5), (argv, code)
    if code in (EXIT_USAGE, EXIT_BUDGET):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, code, lines)
