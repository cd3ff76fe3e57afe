"""Breadth-first closure of a generating set, with witness words and Cayley edges.

This is the ground-truth substrate: the closure enumerates every product of
the generators (no empty word), keeps one shortest witness word per element
as a parent pointer and a last letter, spelled only when asked for, and
records the right action of each generator as an integer Cayley table.
Each element is stored only as its byte key, one byte per point, and built
on access.  This module owns that codec (``_key``, ``_tail``, ``_tables``,
``_inverse_key``): every product made here, in the oracle, in the model
checker's search and in the tiling round trip is one ``bytes.translate`` of
a key and a table.  The model checker's counterexample replay
(``counterexample_values``) is the exception: its ``idempotent_power`` and
``apply_assignment`` multiply ``PartialBijection`` values.  One BFS
(``_bfs``) serves ``close`` and ``member``, and one evaluator
(``_evaluate``) serves every word; both take the generators' translate
tables and the degree, built once per call.  BFS order (word length, then
generator index) makes the output deterministic.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Optional, Sequence

from .pbij import PartialBijection, ValueType

DEFAULT_LIMIT = 200_000
DEFAULT_BUDGET = 10_000_000  # the model checker's; here so the CLI need not load it

MAX_DEGREE = 255  # elements are one byte per point, byte ``degree`` = undefined


class LimitExceeded(RuntimeError):
    """A search outgrew its budget ``limit``, having counted ``count``:
    closure elements, or what ``message`` names (tiling columns, model
    checking work, oracle assignments)."""

    def __init__(self, limit: int, count: int, message: str = ""):
        super().__init__(message or f"closure exceeds {limit} elements (stopped at {count})")
        self.limit = limit
        self.count = count


class GeneratorSet(ValueType):
    """An ordered list of partial bijections sharing one degree.

    ``inverse_closed`` asserts (and is validated to mean) that the list is
    closed under taking inverses.
    """

    __slots__ = ("degree", "generators", "inverse_closed")

    def __init__(self, degree: int, generators: Sequence[PartialBijection],
                 inverse_closed: bool = False):
        generators = tuple(generators)
        if not generators:
            raise ValueError("at least one generator required")
        for g in generators:
            if not isinstance(g, PartialBijection):
                raise TypeError("generators must be PartialBijection values")
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} != set degree {degree}"
                )
        if inverse_closed:
            missing = _missing_inverses(generators)
            if missing:
                # the first inverse missing is that of the first generator lacking one
                raise ValueError(f"inverse_closed set but inverse of "
                                 f"{missing[0].inverse().to_text()!r} missing")
        self.degree = degree
        self.generators = generators
        self.inverse_closed = inverse_closed

    def with_inverses(self) -> "GeneratorSet":
        """Append each missing inverse; already-closed sets come back as-is."""
        if self.inverse_closed:
            return self
        return GeneratorSet(self.degree, self.generators + _missing_inverses(self.generators),
                            inverse_closed=True)

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


def _missing_inverses(generators) -> tuple:
    """The inverses of ``generators`` that the list lacks, each once, in
    generator order."""
    have = {g.entries for g in generators}
    out = []
    for g in generators:
        inv = g.inverse()
        if inv.entries not in have:
            out.append(inv)
            have.add(inv.entries)
    return tuple(out)


class MemberResult(ValueType):
    """A membership witness word, or None when the element is no product."""

    __slots__ = ("witness",)

    def __init__(self, witness: Optional[tuple[int, ...]] = None):
        self.witness = witness

    @property
    def found(self) -> bool:
        return self.witness is not None


class SemigroupClosure:
    """The enumerated semigroup: element keys, witness words, and Cayley edges.

    Element ``self[i]`` is built on access from ``keys[i]``, its ``_key``; it
    was first reached by the word ``word(i)`` (generator indices, length
    >= 1), and ``cayley[i][g]`` is the index of ``self[i]`` times generator
    g.  ``index`` maps each key to its index, and ``generator_keys[g]`` is
    the key of generator g, repeats included.  Finished closures are
    immutable and safe for concurrent reads.
    """

    __slots__ = ("generator_keys", "keys", "parent", "gen_of", "cayley", "index")

    def __init__(self, generator_keys, keys, parent, gen_of, cayley, index):
        self.generator_keys = generator_keys
        self.keys = keys
        self.parent = parent
        self.gen_of = gen_of
        self.cayley = cayley
        self.index = index

    @property
    def elements(self) -> "SemigroupClosure":
        """The elements as a read-only sequence: the closure itself."""
        return self

    def __len__(self):
        return len(self.keys)

    def __getitem__(self, i: int) -> PartialBijection:
        # ``operator.index`` refuses slices, whose list of keys is no key
        return PartialBijection._from_key(self.keys[operator.index(i)])

    def __iter__(self):
        return map(PartialBijection._from_key, self.keys)

    def __contains__(self, el):
        return isinstance(el, PartialBijection) and self.index_of(el) is not None

    def index_of(self, el) -> Optional[int]:
        if el.degree == len(self.generator_keys[0]):
            return self.index.get(_key(el))

    def word(self, i: int) -> tuple[int, ...]:
        """The witness word of ``self[i]``."""
        return _word(self.parent, self.gen_of, range(len(self.keys))[i])


_BYTES = bytes(range(256))


def _key(el: PartialBijection) -> bytes:
    """The embedding without its extra point, one byte per point."""
    n = len(el.entries)
    return bytes([n if v is None else v for v in el.entries])


def _tail(n: int) -> bytes:
    """Bytes ``n..255``.  An element's key followed by them is the table with
    which ``bytes.translate`` multiplies by that element on the right, the
    sink ``n`` staying fixed: ``a.translate(b + tail)`` is the key of a*b.
    Raises ``ValueError`` past ``MAX_DEGREE``."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the closure cap of {MAX_DEGREE} points")
    return _BYTES[n:]


def _tables(keys) -> list[bytes]:
    """Each key followed by ``_tail``: the table with which ``translate``
    multiplies by that element.  Raises ``ValueError`` past ``MAX_DEGREE``."""
    tail = _tail(len(keys[0]))
    return [key + tail for key in keys]


def _inverse_key(key: bytes) -> bytes:
    """The key of the inverse of the element keyed ``key``."""
    n = len(key)
    inv = bytearray([n]) * n
    for x, v in enumerate(key):
        if v != n:
            inv[v] = x
    return bytes(inv)


def _word(parent, gen_of, i) -> tuple[int, ...]:
    """The generators along the parent pointers from element ``i`` back to a
    generator, first letter first."""
    word = []
    while i >= 0:
        word.append(gen_of[i])
        i = parent[i]
    return tuple(reversed(word))


def _bfs(tables, n, limit, goal=None):
    """Core enumeration over the generators' ``_tables`` at degree ``n``;
    stops early, keeping no Cayley rows, at the element keyed ``goal``.

    Element ``keys[i]`` is ``keys[parent[i]] * generators[gen_of[i]]``, or the
    generator alone when ``parent[i]`` is -1.  A product is one ``translate``.
    With a ``goal``, a product undefined at a point of dom(goal) is kept
    out of ``keys`` and marked -1 in ``index``: right multiples never gain
    domain, so neither it nor any multiple of it is the goal.  With p the
    first point of dom(goal), an element s is multiplied only by the
    generators defined at s(p), listed once per image s(p) in index order:
    every other product is undefined at p, so skipping it changes no kept
    element, witness or ``LimitExceeded`` count.
    """
    watch = point = None
    if goal is not None:
        dom = [p for p, b in enumerate(goal) if b != n]
        if dom:
            # the repeated point makes even a one-point domain read as a tuple
            watch = operator.itemgetter(*dom, dom[0])
            point = dom[0]
    every = list(enumerate(tables)) if point is None else None
    live = {}  # image s(point) -> the (index, table) pairs defined there
    keys, parent, gen_of, index = [], [], [], {}
    cayley = [] if goal is None else None
    get = index.get
    # Row -1 multiplies the identity, which is no element unless reached;
    # iterating ``keys`` also visits the elements appended on the way.
    for scan, cur in enumerate(chain([bytes(range(n))], keys), -1):
        row = []
        letters = every
        if point is not None:
            at = cur[point]  # defined: every element kept is defined on dom(goal)
            letters = live.get(at)
            if letters is None:
                letters = live[at] = [(gi, table)
                                      for gi, table in enumerate(tables) if table[at] != n]
        for gi, table in letters:
            prod = cur.translate(table)
            idx = get(prod)
            if idx is None:
                if watch is not None and n in watch(prod):
                    index[prod] = -1
                    continue
                idx = len(keys)
                if idx >= limit:
                    raise LimitExceeded(limit, idx + 1)
                index[prod] = idx
                keys.append(prod)
                parent.append(scan)
                gen_of.append(gi)
                if prod == goal:
                    return keys, parent, gen_of, cayley, index, idx
            row.append(idx)
        if cayley is not None and scan >= 0:
            # a tuple of ints drops out of the garbage collector's tracking,
            # so the collections that a large closure triggers skip its rows
            cayley.append(tuple(row))
    return keys, parent, gen_of, cayley, index, None


def _keys(gens: GeneratorSet) -> list[bytes]:
    """The generators' keys, repeats included: each ``_key``, sliced from
    the bytes of all of them.  Raises ``ValueError`` past ``MAX_DEGREE``."""
    n = gens.degree
    _tail(n)
    flat = bytes([n if v is None else v for g in gens.generators for v in g.entries])
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def _member(tables, goal, limit) -> MemberResult:
    """``member`` for the generators' translate tables ``tables`` and the
    element keyed ``goal``."""
    _, parent, gen_of, _, _, i = _bfs(tables, len(goal), limit, goal)
    return MemberResult(None if i is None else _word(parent, gen_of, i))


def _evaluate(tables, n, word) -> bytes:
    """The key, at degree ``n``, of the product of the generators tabled
    ``tables`` that ``word`` names (indices, length >= 1)."""
    if not word:
        raise ValueError("words must be nonempty")
    acc = tables[word[0]][:n]
    for gi in word[1:]:
        acc = acc.translate(tables[gi])
    return acc


def close(gens: GeneratorSet, limit: int = DEFAULT_LIMIT) -> SemigroupClosure:
    """Enumerate the generated semigroup exactly, or raise LimitExceeded."""
    generator_keys = _keys(gens)
    keys, parent, gen_of, cayley, index, _ = _bfs(_tables(generator_keys), gens.degree, limit)
    return SemigroupClosure(generator_keys, keys, parent, gen_of, cayley, index)


def member(gens: GeneratorSet, b: PartialBijection, limit: int = DEFAULT_LIMIT) -> MemberResult:
    """Decide whether ``b`` is a product of the generators.

    Only elements whose domain contains dom(b) are enumerated: a product
    undefined somewhere on dom(b) has no right multiple equal to ``b``, and
    an element is multiplied only by the generators defined at its image of
    the first point of dom(b).  A positive answer (with its shortest-by-BFS
    witness word, the one ``close`` gives ``b``) may be returned before those
    are all found; a negative answer requires all of them, not the full
    closure, and raises LimitExceeded when they do not fit.
    """
    if b.degree != gens.degree:
        raise ValueError(f"degree mismatch: {b.degree} vs {gens.degree}")
    return _member(_tables(_keys(gens)), _key(b), limit)


def evaluate_word(gens: GeneratorSet, word: Sequence[int]) -> PartialBijection:
    """Product of the generators named by ``word`` (indices, length >= 1),
    computed on their keys.  A letter outside ``0..k-1``, for k generators,
    raises ValueError naming it, and so do degrees above ``MAX_DEGREE``."""
    k = len(gens.generators)
    for c in word:
        if not 0 <= c < k:
            raise ValueError(f"letter {c} out of range 0..{k - 1}")
    return PartialBijection._from_key(_evaluate(_tables(_keys(gens)), gens.degree, word))
