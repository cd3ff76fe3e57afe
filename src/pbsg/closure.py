"""Breadth-first closure of a generating set, with witness words and Cayley edges.

This is the ground-truth substrate: the closure enumerates every product of
the generators (no empty word), keeps one shortest witness word per element,
and records the right action of each generator as an integer Cayley table.
The product of two closure elements is read off that table as an index, so
composition happens only while the closure is enumerated.  Enumeration is
breadth-first by word length with ties broken by generator index, so output
is deterministic for a fixed input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .pbij import PartialBijection

DEFAULT_LIMIT = 200_000


class LimitExceeded(RuntimeError):
    """A search outgrew its budget: closure elements, or what ``message`` names."""

    def __init__(self, limit: int, count: int, message: str = ""):
        super().__init__(message or f"closure exceeds {limit} elements (stopped at {count})")
        self.limit = limit
        self.count = count


class IncompleteClosure(RuntimeError):
    """An oracle was asked about a truncated closure."""


@dataclass(frozen=True)
class GeneratorSet:
    """An ordered list of partial bijections sharing one degree.

    ``inverse_closed`` asserts (and is validated to mean) that the list is
    closed under taking inverses.
    """

    degree: int
    generators: tuple[PartialBijection, ...]
    inverse_closed: bool = False

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator required")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if not isinstance(g, PartialBijection):
                raise TypeError("generators must be PartialBijection values")
            if g.degree != self.degree:
                raise ValueError(
                    f"generator degree {g.degree} != set degree {self.degree}"
                )
        if self.inverse_closed:
            have = {g.entries for g in self.generators}
            for g in self.generators:
                if g.inverse().entries not in have:
                    raise ValueError(
                        f"inverse_closed set but inverse of {g.to_text()!r} missing"
                    )

    @classmethod
    def from_elements(cls, generators: Sequence[PartialBijection], inverse_closed=False):
        gens = tuple(generators)
        if not gens:
            raise ValueError("at least one generator required")
        return cls(gens[0].degree, gens, inverse_closed)

    def with_inverses(self) -> "GeneratorSet":
        """Append each missing inverse; already-closed sets come back as-is."""
        if self.inverse_closed:
            return self
        out = list(self.generators)
        have = {g.entries for g in out}
        for g in self.generators:
            inv = g.inverse()
            if inv.entries not in have:
                out.append(inv)
                have.add(inv.entries)
        return GeneratorSet(self.degree, tuple(out), inverse_closed=True)

    @classmethod
    def from_json_obj(cls, obj) -> "GeneratorSet":
        if not isinstance(obj, dict) or "degree" not in obj or "generators" not in obj:
            raise ValueError('expected an object {"degree": n, "generators": [...]}')
        n = obj["degree"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("degree must be a positive integer")
        raw = obj["generators"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("generators must be a nonempty list of map arrays")
        gens = tuple(
            PartialBijection.from_json_obj({"degree": n, "map": entry})
            for entry in raw
        )
        inverse_closed = obj.get("inverse_closed", False)
        if not isinstance(inverse_closed, bool):
            raise ValueError("inverse_closed must be true or false")
        return cls(n, gens, inverse_closed)

    def to_json_obj(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [g.to_json_obj()["map"] for g in self.generators],
            "inverse_closed": self.inverse_closed,
        }


@dataclass(frozen=True)
class MemberResult:
    found: bool
    witness: Optional[tuple[int, ...]] = None


class SemigroupClosure:
    """The enumerated semigroup: elements, witness words, and Cayley edges.

    ``elements[i]`` was first reached by the word ``words[i]`` (generator
    indices, length >= 1), and ``cayley[i][g]`` is the index of
    ``elements[i] * generators[g]``.  Products of closure elements are indices
    too: ``pair_product`` reads them off ``cayley``.  Finished closures are
    immutable and safe for concurrent reads.
    """

    __slots__ = ("generators", "elements", "words", "cayley", "index", "complete")

    def __init__(self, generators, elements, words, cayley, index, complete):
        self.generators = generators
        self.elements = elements
        self.words = words
        self.cayley = cayley
        self.index = index
        self.complete = complete

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, el):
        return getattr(el, "entries", None) in self.index

    def index_of(self, el) -> Optional[int]:
        return self.index.get(el.entries)

    def witness_word(self, el) -> tuple[int, ...]:
        i = self.index_of(el)
        if i is None:
            raise KeyError(f"{el!r} not in closure")
        return self.words[i]

    def pair_product(self, i: int, j: int) -> int:
        """Index of ``elements[i] * elements[j]``: the walk through ``cayley``
        from ``i`` along the witness word of ``j``."""
        cayley = self.cayley
        for g in self.words[j]:
            i = cayley[i][g]
        return i


def _bfs(generators, limit, target=None):
    """Core enumeration; stops early when ``target`` is reached."""
    gen_entries = [g.entries for g in generators]
    target_entries = None if target is None else target.entries

    elements = []
    words = []
    index = {}
    for gi, g in enumerate(generators):
        key = g.entries
        if key in index:
            continue
        if len(elements) >= limit:
            raise LimitExceeded(limit, len(elements) + 1)
        index[key] = len(elements)
        elements.append(g)
        words.append((gi,))
        if target_entries is not None and key == target_entries:
            return elements, words, [], index, False, index[key]

    cayley = []
    scan = 0
    while scan < len(elements):
        cur = elements[scan].entries
        word = words[scan]
        row = []
        for gi, g in enumerate(gen_entries):
            prod = tuple(None if v is None else g[v] for v in cur)
            idx = index.get(prod)
            if idx is None:
                if len(elements) >= limit:
                    raise LimitExceeded(limit, len(elements) + 1)
                idx = len(elements)
                index[prod] = idx
                elements.append(PartialBijection(prod))
                words.append(word + (gi,))
                if target_entries is not None and prod == target_entries:
                    row.append(idx)
                    cayley.append(row)
                    return elements, words, cayley, index, False, idx
            row.append(idx)
        cayley.append(row)
        scan += 1
    return elements, words, cayley, index, True, None


def close(gens: GeneratorSet, limit: int = DEFAULT_LIMIT) -> SemigroupClosure:
    """Enumerate the generated semigroup exactly, or raise LimitExceeded."""
    if limit < len(gens.generators):
        raise ValueError("limit must be at least the number of generators")
    elements, words, cayley, index, complete, _ = _bfs(gens.generators, limit)
    assert complete
    return SemigroupClosure(gens.generators, elements, words, cayley, index, True)


def member(gens: GeneratorSet, b: PartialBijection, limit: int = DEFAULT_LIMIT) -> MemberResult:
    """Decide whether ``b`` is a product of the generators.

    A positive answer (with its shortest-by-BFS witness word) may be returned
    before the closure is fully enumerated; a negative answer requires the
    complete closure and raises LimitExceeded when that does not fit.
    """
    if b.degree != gens.degree:
        raise ValueError(f"degree mismatch: {b.degree} vs {gens.degree}")
    _, words, _, _, complete, found = _bfs(gens.generators, limit, target=b)
    if found is not None:
        return MemberResult(True, words[found])
    assert complete
    return MemberResult(False, None)


def evaluate_word(gens, word: Sequence[int]):
    """Product of the generators named by ``word`` (indices, length >= 1)."""
    generators = gens.generators if isinstance(gens, GeneratorSet) else tuple(gens)
    if not word:
        raise ValueError("words must be nonempty")
    acc = generators[word[0]]
    for gi in word[1:]:
        acc = acc * generators[gi]
    return acc
