import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pbsg import GeneratorSet, PartialBijection
from pbsg.pbij import _checked
from pbsg.sampling import random_generator_set

#: identities exercised by the model-checker acceptance sweep
MODEL_CORPUS = (
    "x1 x2 = x2 x1",
    "x1 = x1 x1",
    "x1 x1^-1 = x1^-1 x1",
    "x1 x1^-1 x1 = x1",
    "x1=x1^2 => x1 x2 = x2 x1",
    "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module ``scripts/<name>.py``, loaded by file path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pb(text: str) -> PartialBijection:
    """Parse the 1-indexed text form that ``to_text`` writes, e.g. ``"2 _ 1"``."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty text form")

    def point(tok):
        if tok == "_":
            return None
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"bad token {tok!r} in text form") from None

    return PartialBijection._trusted(_checked(map(point, tokens), len(tokens), 1,
                                              "point {!r} out of range 1..{}"))


#: cycle lengths of a 77-point permutation of order 2·3·5·…·19 = 9,699,690
PRIME_CYCLES = (2, 3, 5, 7, 11, 13, 17, 19)


def cycle_permutation(lengths) -> PartialBijection:
    """The permutation that cycles consecutive runs of ``lengths`` points."""
    entries, start = [], 0
    for length in lengths:
        entries += [start + (j + 1) % length for j in range(length)]
        start += length
    return PartialBijection(entries)


def ref_compose(a: PartialBijection, b: PartialBijection) -> dict:
    """Pointwise-evaluation composition oracle: apply a, then b, per point."""
    out = {}
    for x in range(a.degree):
        y = a.entries[x]
        if y is None:
            continue
        z = b.entries[y]
        if z is not None:
            out[x] = z
    return out


def rename(el: PartialBijection, perm) -> PartialBijection:
    """``el`` with every point x renamed ``perm[x]``."""
    entries = [None] * el.degree
    for x, y in el.graph():
        entries[perm[x]] = perm[y]
    return PartialBijection(entries)


def conjugate(gens: GeneratorSet, perm) -> GeneratorSet:
    """The generators with every point x renamed ``perm[x]``, in their order:
    an isomorphic copy."""
    return GeneratorSet(gens.degree, [rename(g, perm) for g in gens.generators])


def as_pairs(a: PartialBijection) -> dict:
    return dict(a.graph())


@st.composite
def partial_bijections(draw, degree=None, max_degree=6):
    n = degree if degree is not None else draw(st.integers(1, max_degree))
    size = draw(st.integers(0, n))
    dom = draw(st.permutations(range(n)))[:size]
    img = draw(st.permutations(range(n)))[:size]
    entries = [None] * n
    for x, y in zip(dom, img):
        entries[x] = y
    return PartialBijection(entries)


@st.composite
def pbij_pairs(draw, max_degree=6):
    n = draw(st.integers(1, max_degree))
    return draw(partial_bijections(degree=n)), draw(partial_bijections(degree=n))


@st.composite
def pbij_triples(draw, max_degree=6):
    n = draw(st.integers(1, max_degree))
    return tuple(draw(partial_bijections(degree=n)) for _ in range(3))


def seeded_generator_sets(seed, count, degrees, max_k=3, inverse_closed=False):
    """Deterministic stream of random generator sets for sweep tests."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.choice(degrees)
        k = rng.randint(1, max_k)
        sets.append(random_generator_set(rng, n, k, inverse_closed=inverse_closed))
    return sets


@pytest.fixture
def tmp_json(tmp_path):
    import json

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write
