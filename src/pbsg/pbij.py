"""Partial bijections on a finite point set.

Points are 0-indexed internally.  The text and JSON forms are 1-indexed, with
``"_"`` (text) or ``null`` (JSON) marking undefined points: ``"2 _ 1"`` is the
map {1->2, 3->1} on three points.  Composition is left-to-right throughout,
so ``x`` under ``a * b`` is ``(x a) b``.  ``embed`` gives the total map on
one extra point ``n`` that stands for "undefined"; the closure keys elements
by that encoding.

All values here are immutable after construction and every operation is pure,
so sharing across threads needs no coordination.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional


class ValueType:
    """Base of the slotted value types that are compared or hashed: equality,
    hash and repr over the fields named in ``__slots__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class PartialBijection(ValueType):
    """An injective partial self-map of ``{0, ..., degree-1}``.

    ``entries[x]`` is the image of point ``x``, or ``None`` where the map is
    undefined.  Values compare by ``entries`` (``ValueType``), so equal
    graphs on different degrees compare unequal.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Optional[int]]):
        entries = tuple(entries)
        n = len(entries)
        if n == 0:
            raise ValueError("degree must be at least 1")
        self.entries = _checked(entries, n, 0, "image {!r} out of range for degree {}")

    @property
    def degree(self) -> int:
        return len(self.entries)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PartialBijection":
        return cls(range(n))

    @classmethod
    def empty(cls, n: int) -> "PartialBijection":
        return cls([None] * n)

    @classmethod
    def partial_identity(cls, n: int, points: Iterable[int]) -> "PartialBijection":
        """The idempotent fixing exactly ``points``."""
        entries: list[Optional[int]] = [None] * n
        for x in points:
            entries[x] = x
        return cls(entries)

    def to_text(self) -> str:
        return " ".join("_" if v is None else str(v + 1) for v in self.entries)

    @classmethod
    def from_json_obj(cls, obj) -> "PartialBijection":
        """Parse the JSON form ``{"degree": n, "map": [2, null, 1]}``."""
        if not isinstance(obj, dict) or "degree" not in obj or "map" not in obj:
            raise ValueError('expected an object {"degree": n, "map": [...]}')
        n = obj["degree"]
        raw = obj["map"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("degree must be a positive integer")
        if not isinstance(raw, list) or len(raw) != n:
            raise ValueError("map length must equal degree")
        return cls._trusted(_checked(raw, n, 1, "map entry {!r} must be null or a point in 1..{}"))

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "map": [None if v is None else v + 1 for v in self.entries],
        }

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PartialBijection):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        o = other.entries
        return PartialBijection._trusted(
            tuple([None if v is None else o[v] for v in self.entries])
        )

    def inverse(self) -> "PartialBijection":
        inv: list[Optional[int]] = [None] * self.degree
        for x, v in enumerate(self.entries):
            if v is not None:
                inv[v] = x
        return PartialBijection._trusted(tuple(inv))

    def dom(self) -> frozenset:
        return frozenset([x for x, v in enumerate(self.entries) if v is not None])

    def image(self) -> frozenset:
        return frozenset([v for v in self.entries if v is not None])

    def graph(self) -> Iterator[tuple[int, int]]:
        """Defined (point, image) pairs in point order."""
        for x, v in enumerate(self.entries):
            if v is not None:
                yield x, v

    def idempotent_power(self) -> "PartialBijection":
        """The unique idempotent among the powers of this element: the
        partial identity on the points that lie on its cycles."""
        # A point off every cycle leaves the domain within n steps, so the
        # domain of a^(2^b), 2^b > n, is exactly the points on cycles.
        n = self.degree
        p = self
        for _ in range(n.bit_length()):
            p = p * p
        return PartialBijection.partial_identity(n, p.dom())

    def embed(self) -> tuple[int, ...]:
        """The total map on degree+1 points: the extra point ``n`` absorbs
        undefined images and is fixed."""
        n = len(self.entries)
        return tuple(n if v is None else v for v in self.entries) + (n,)

    @classmethod
    def _trusted(cls, entries: tuple) -> "PartialBijection":
        """Unchecked constructor, for maps the parsers have checked, products
        and inverses of validated elements, and maps injective and in range
        by construction (the tiling reduction's, built from checked colors)."""
        el = object.__new__(cls)
        el.entries = entries
        return el

    @classmethod
    def _from_key(cls, key) -> "PartialBijection":
        """Unchecked inverse of ``embed`` minus its extra point (a key, or any
        sequence of images with the degree for "undefined"), for products of
        validated elements and maps injective and in range by construction
        only."""
        n = len(key)
        return cls._trusted(tuple([None if v == n else v for v in key]))

    def __repr__(self):
        return f"PartialBijection({self.to_text()!r})"


def _checked(images, n, low, out_of_range) -> tuple:
    """The 0-based entries of the map on ``n`` points whose images, numbered
    from ``low``, are ``images`` (None: undefined), checked once: an image v
    that is no point of low..low+n-1 raises ``out_of_range`` formatted with v
    and n, and a repeated one is named as written."""
    entries: list[Optional[int]] = []
    seen = set()
    for v in images:
        if v is not None:
            if not isinstance(v, int) or isinstance(v, bool) or not low <= v < low + n:
                raise ValueError(out_of_range.format(v, n))
            if v in seen:
                raise ValueError(f"not injective: image {v} repeated")
            seen.add(v)
            v -= low
        entries.append(v)
    return tuple(entries)


def all_partial_bijections(n: int) -> list[PartialBijection]:
    """Every injective partial self-map on ``n`` points.

    Ordered lexicographically by entry tuple with "undefined" before the
    points, so the empty map comes first and the full cycle maps last.
    """
    out = []
    for entries in product((None, *range(n)), repeat=n):
        defined = [v for v in entries if v is not None]
        if len(set(defined)) == len(defined):
            out.append(PartialBijection._trusted(entries))
    return out
