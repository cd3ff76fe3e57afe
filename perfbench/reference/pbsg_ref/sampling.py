"""Seeded random instances.  All draws come from a caller-provided
``random.Random``, so a fixed seed reproduces files byte for byte."""

from __future__ import annotations

from random import Random

from .closure import GeneratorSet
from .pbij import PartialBijection
from .tiling import Tile, TilingInstance


def random_partial_bijection(rng: Random, n: int) -> PartialBijection:
    """Sample a domain subset, then a random injection out of it."""
    size = rng.randint(0, n)
    dom = sorted(rng.sample(range(n), size))
    img = rng.sample(range(n), size)
    entries: list = [None] * n
    for x, y in zip(dom, img):
        entries[x] = y
    return PartialBijection(entries)


def random_generator_set(
    rng: Random, n: int, k: int, inverse_closed: bool = False
) -> GeneratorSet:
    gens = GeneratorSet(n, tuple(random_partial_bijection(rng, n) for _ in range(k)))
    return gens.with_inverses() if inverse_closed else gens


def random_tiling_instance(rng: Random, m: int, c: int, k: int) -> TilingInstance:
    """Uniform edge colors per tile."""
    tiles = tuple(
        Tile(rng.randint(1, c), rng.randint(1, c), rng.randint(1, c), rng.randint(1, c))
        for _ in range(k)
    )
    return TilingInstance(tiles, c, m)
