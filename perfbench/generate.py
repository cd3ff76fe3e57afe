"""Seeded candidate inputs for the benchmark pools.

This is the benchmark's own generator: it builds plain JSON-able documents
from a ``random.Random`` and never calls ``pbsg.sampling``, so a change to the
library cannot change the workloads.  ``record.py`` filters the candidates
and freezes the chosen ones, with their reference outputs, into ``pools/``.
"""

from __future__ import annotations

from random import Random

#: The identity corpus of the ``models`` workload: the six identities of the
#: acceptance suite's model corpus plus three that load the boundary search
#: differently (a lone inverse, a mixed inverse, and three variables).
IDENTITIES = (
    "x1 x2 = x2 x1",
    "x1 = x1 x1",
    "x1 x1^-1 = x1^-1 x1",
    "x1 x1^-1 x1 = x1",
    "x1=x1^2 => x1 x2 = x2 x1",
    "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
    "x1^-1 = x1^-1 x1^-1",
    "x1 x2^-1 x1 = x1",
    "x1 x2 x3 = x3 x2 x1",
)

#: Corridor classes (width m, colors c, tiles k) that the parent code decides
#: within its default closure limit; width 6 already exceeds it.
TILING_CLASSES = (
    (4, 2, 4), (4, 2, 5), (4, 2, 6), (4, 2, 7), (4, 2, 8),
    (4, 3, 4), (4, 3, 5),
    (5, 2, 4), (5, 2, 5),
)


def partial_bijection_map(rng: Random, n: int) -> list:
    """A 1-based map array (``None`` = undefined) of a random partial
    bijection: a uniform domain size, then a random injection."""
    size = rng.randint(0, n)
    images = rng.sample(range(1, n + 1), size)
    domain = set(rng.sample(range(n), size))
    it = iter(images)
    return [next(it) if x in domain else None for x in range(n)]


def inverse_map(entries: list) -> list:
    inv = [None] * len(entries)
    for x, v in enumerate(entries, start=1):
        if v is not None:
            inv[v - 1] = x
    return inv


def generator_doc(rng: Random, degrees, counts, inverse_closed: bool) -> dict:
    """A generator-set document; with ``inverse_closed`` every missing
    inverse is appended after the drawn generators."""
    n = rng.choice(degrees)
    gens = [partial_bijection_map(rng, n) for _ in range(rng.choice(counts))]
    if inverse_closed:
        for g in list(gens):
            inv = inverse_map(g)
            if inv not in gens:
                gens.append(inv)
    return {"degree": n, "generators": gens, "inverse_closed": inverse_closed}


def tiling_doc(rng: Random) -> dict:
    m, c, k = rng.choice(TILING_CLASSES)
    tiles = [
        {"n": rng.randint(1, c), "e": rng.randint(1, c),
         "s": rng.randint(1, c), "w": rng.randint(1, c)}
        for _ in range(k)
    ]
    return {"colors": c, "width": m, "tiles": tiles}


#: Input files and argv matrix of the ``cli`` workload: the byte-determinism
#: matrix of acceptance criterion 6, with paths relative to the work directory.
CLI_FILES = {
    "gens.json": {"degree": 3, "generators": [[3, 1, None], [1, None, 2]],
                  "inverse_closed": False},
    "elem.json": {"degree": 3, "map": [3, 1, None]},
    "inst.json": {"colors": 2, "width": 2,
                  "tiles": [{"n": 1, "e": 1, "s": 2, "w": 1},
                            {"n": 2, "e": 1, "s": 1, "w": 1}]},
}

CLI_MATRIX = (
    ["random", "gens", "-n", "4", "-k", "3", "--seed", "7"],
    ["random", "tiling", "-m", "2", "-c", "2", "-k", "2", "--seed", "7"],
    ["props", "gens.json", "--cross-check"],
    ["props", "gens.json", "--property", "commutative", "--json"],
    ["oracle", "gens.json"],
    ["member", "gens.json", "elem.json"],
    ["models", "gens.json", "x1 x1^-1 = x1^-1 x1"],
    ["models", "gens.json", "x1 x1^-1 = x1^-1 x1", "--json", "--cross-check"],
    ["tiling", "solve", "inst.json"],
    ["tiling", "roundtrip", "inst.json", "--json"],
)


def cli_subcommand(argv) -> str:
    """Metric name of an invocation: ``random gens`` -> ``random_gens``."""
    if argv[0] in ("random", "tiling"):
        return f"{argv[0]}_{argv[1]}"
    return argv[0]
