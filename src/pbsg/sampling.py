"""Seeded random instances.  All draws come from a caller-provided
``random.Random``, so a fixed seed reproduces files byte for byte."""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING

from .closure import GeneratorSet
from .pbij import PartialBijection

if TYPE_CHECKING:
    from .tiling import TilingInstance


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
    if n < 1:
        raise ValueError("degree must be at least 1")
    gens = GeneratorSet(n, tuple(random_partial_bijection(rng, n) for _ in range(k)))
    return gens.with_inverses() if inverse_closed else gens


def random_tiling_instance(rng: Random, m: int, c: int, k: int) -> TilingInstance:
    """Uniform edge colors per tile."""
    from .tiling import Tile, TilingInstance

    if c < 1:
        raise ValueError(f"colors {c!r} must be a positive integer")
    tiles = tuple(
        Tile(rng.randint(1, c), rng.randint(1, c), rng.randint(1, c), rng.randint(1, c))
        for _ in range(k)
    )
    return TilingInstance(tiles, c, m)
