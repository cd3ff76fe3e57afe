"""Semantic property checks over a complete closure.

Everything here is decided from the enumerated element set, so these are the
ground truth the generator-level checkers are tested against.  Zeros,
identities and central idempotents are tested against the generators alone:
each of zs = z, es = s, se = s and es = se defines a subsemigroup {s : ...}
of S, so it holds for every s in S iff it holds for every generator, and S
is scanned only to find a witness.  A left zero and a right zero are both
the partial identity on the points every generator fixes, so ``left-zero``,
``right-zero``, ``zero`` and ``nilpotent`` share one scan.  ``commutative``
pairs only the generators with every element: the elements that commute
with a given s form a subsemigroup, so s commutes with all of S iff it
commutes with every generator.  That is the centraliser argument
``check_commutative`` rests on, though it tests generator pairs alone.
``regular`` looks up only the generators' inverses: s is regular in S iff
s⁻¹ is in S, and S is inverse-closed iff every generator's inverse is.
``band``/``semilattice``, ``completely-regular``/``clifford`` and
``r-trivial`` scan every element, so the oracle shares no argument with
their generator-level checkers; ``completely-regular`` compares the sink
bytes of each key and of its square (dom(s²) = dom(s) iff s lies in a
subgroup), and ``r-trivial`` tests only elements that share a domain, as
R-related ones do, walking a right ideal at its own rank only on demand.
``nilpotent`` and the identity scans stop once their answer is fixed, by
exact arguments stated where they are used, each identity scan at its first.
A product of two elements is one ``bytes.translate`` of their keys, or a
generator's column of the Cayley table.  The scans build no element: a
witness is written from its key.  Candidates and witnesses are walked in
enumeration order, so the output stays deterministic.
"""

from __future__ import annotations

import operator
from itertools import compress, count, islice, product, repeat
from math import prod
from typing import TYPE_CHECKING, Callable, Optional

from .closure import (
    DEFAULT_BUDGET,
    DEFAULT_LIMIT,
    MAX_DEGREE,
    GeneratorSet,
    LimitExceeded,
    SemigroupClosure,
    _inverse_key,
    _tail,
    close,
)
from .pbij import PartialBijection
from .properties import CheckReport, PropertyName

if TYPE_CHECKING:
    from .identities import Identity


#: The text form of each point, 1-indexed.
_POINT_TEXT = tuple(str(v + 1) for v in range(MAX_DEGREE))


def _show(closure, i) -> str:
    """Element i's text form, read off its key: the sink byte is ``_``."""
    key = closure.keys[i]
    names = _POINT_TEXT[:len(key)] + ("_",)
    return " ".join([names[v] for v in key])


def _idempotents(closure):
    """The idempotents' indices in enumeration order, read off their keys."""
    tail = _tail(len(closure.generator_keys[0]))
    return (e for e, key in enumerate(closure.keys) if key.translate(key + tail) == key)


def oracle_identities(closure: SemigroupClosure) -> tuple:
    """``(left, right)``: the closure's left and its right identity, each
    None when there is none.  Each is unique, and a two-sided identity exists
    iff both do, as then e = ef = f."""
    return tuple(None if e is None else closure[e]
                 for e in (_first_identity(closure, "left"), _first_identity(closure, "right")))


def _commutative(closure):
    keys, tail = closure.keys, _tail(len(closure.generator_keys[0]))
    # The k distinct generators hold indices 0..k-1.  An element commuting
    # with every generator commutes with all of S, so when S is not
    # commutative some generator fails with some element, and the least
    # failing pair (a, b), a < b, has a < k.
    for a in range(len(set(closure.generator_keys))):
        key_a = keys[a]
        table = key_a + tail
        for b in range(a + 1, len(keys)):
            key_b = keys[b]
            if key_a.translate(key_b + tail) != key_b.translate(table):
                return False, {"left": _show(closure, a), "right": _show(closure, b)}
    return True, None


def _band(closure):
    tail = _tail(len(closure.generator_keys[0]))
    for a, key in enumerate(closure.keys):
        if key.translate(key + tail) != key:
            return False, {"element": _show(closure, a)}
    return True, None


def _semilattice(closure):
    ok, witness = _band(closure)
    if not ok:
        return ok, witness
    return _commutative(closure)


def _group(closure):
    idems = list(islice(_idempotents(closure), 2))
    if len(idems) != 1:
        return False, {"idempotents": [_show(closure, e) for e in idems]}
    (e,) = idems
    if _first_identity(closure, "two_sided") == e:  # an identity is idempotent
        # each s has a power s^m = e, the only idempotent: s^(m-1), or e, inverts s
        return True, None
    keys, tail = closure.keys, _tail(len(closure.generator_keys[0]))
    key_e = keys[e]
    table = key_e + tail
    s = next(s for s, key in enumerate(keys)
             if key_e.translate(key + tail) != key or key.translate(table) != key)
    return False, {"not_identity_on": _show(closure, s)}


def _first_zero(closure) -> Optional[int]:
    """The first z whose Cayley row is z for every generator: the zero.

    A left or right zero z is idempotent, so z = id_D.  Every element fixes
    the points Fix that every generator fixes, so D ⊇ Fix; read at x ∈ D,
    z·g = z and g·z = z each say g(x) = x, so D ⊆ Fix.  And id_Fix ∈ S is
    both, as each g fixes Fix and sends no x ∉ Fix into it (g(x) = g(y) = y
    for y ∈ Fix forces x = y): a left zero, a right zero and a zero are one.
    """
    return next((z for z, row in enumerate(closure.cayley) if row.count(z) == len(row)), None)


def _nilpotent(closure):
    zero = _first_zero(closure)
    if zero is None:
        return False, {"reason": "no zero element"}
    zero_key = _show(closure, zero)
    # an idempotent e = g1..gk other than the zero lies in every G^(kt), so no G^t is {zero}
    if any(e != zero for e in _idempotents(closure)):
        return False, {"zero": zero_key}
    current = set(_generator_row(closure))
    # With the zero as the only idempotent, G^(N+1) = {zero}: a product of N+1
    # generators repeats a prefix value p = px, so p = p x^ω with x^ω the zero.
    for length in range(1, len(closure) + 2):
        if current == {zero}:
            return True, {"zero": zero_key, "annihilating_length": length}
        current = {nxt for e in current for nxt in closure.cayley[e]}
    return False, {"zero": zero_key}


def _r_trivial(closure):
    # s R t iff sS¹ = tS¹.  Right multiples never gain domain, so s R t
    # forces dom s = dom t, hence one rank, and s R t iff each lies in the
    # other's right ideal at that rank.  So only an element sharing its domain
    # with earlier ones is tested, and at most one of those passes, as they
    # are pairwise not R-related.
    n = len(closure.generator_keys[0])  # the key byte of an undefined image
    keys, cayley = closure.keys, closure.cayley
    slices = {}

    def rank_slice(i):
        """iS¹ at i's rank, built once by a DFS along the right Cayley graph
        that follows no edge dropping the rank (right multiplication never
        raises one); a built slice(w) ⊆ slice(i) is taken in whole."""
        seen = slices.get(i)
        if seen is None:
            sinks = keys[i].count(n)
            seen = slices[i] = {i}
            stack = [i]
            while stack:
                for nxt in cayley[stack.pop()]:
                    if nxt not in seen and keys[nxt].count(n) == sinks:
                        built = slices.get(nxt)
                        if built is None:
                            seen.add(nxt)
                            stack.append(nxt)
                        else:
                            seen |= built
        return seen

    # a key read through this table keeps its sink bytes and zeroes its points
    domain = bytes(n) + _tail(n)
    earlier = {}  # a domain -> the elements so far that have it
    for i, dom in enumerate(map(bytes.translate, keys, repeat(domain))):
        same = earlier.setdefault(dom, [])
        if same:
            mine = rank_slice(i)
            for j in same:
                if j in mine and i in rank_slice(j):
                    return False, {"first": _show(closure, j), "second": _show(closure, i)}
        same.append(i)
    return True, None


def _central_idempotents(closure):
    keys, cayley = closure.keys, closure.cayley
    tail = _tail(len(closure.generator_keys[0]))
    gen_keys = closure.generator_keys
    for e in _idempotents(closure):
        key_e = keys[e]
        table = key_e + tail
        if all(g.translate(table) == keys[eg] for g, eg in zip(gen_keys, cayley[e])):
            continue
        s = next(s for s, key in enumerate(keys)
                 if key_e.translate(key + tail) != key.translate(table))
        return False, {"idempotent": _show(closure, e), "element": _show(closure, s)}
    return True, None


def _regular(closure):
    # sts = s makes tst the unique inverse of s, and s s⁻¹ s = s: regular iff
    # s⁻¹ ∈ S.  S is inverse-closed iff every generator's inverse lies in S,
    # so the least non-regular element, if any, is one of the k distinct
    # generators, which hold indices 0..k-1.
    for s in range(len(set(closure.generator_keys))):
        if _inverse_key(closure.keys[s]) not in closure.index:
            return False, {"element": _show(closure, s)}
    return True, None


def _completely_regular(closure):
    # s lies in a subgroup iff it permutes its domain, iff s maps dom(s) into
    # itself, iff dom(s²) = dom(s): as dom(s²) ⊆ dom(s), iff the key of s²
    # has no more sink bytes than the key of s
    n = len(closure.generator_keys[0])  # the key byte of an undefined image
    tail = _tail(n)
    for i, key in enumerate(closure.keys):
        if key.translate(key + tail).count(n) != key.count(n):
            return False, {"element": _show(closure, i)}
    return True, None


def _generator_row(closure) -> tuple:
    """The generators' indices: the Cayley row of a left identity e, as
    e*g == g for every generator g."""
    return tuple(map(closure.index.__getitem__, closure.generator_keys))


def _right_identity_test(closure):
    """``(fixed, want)`` with e a right identity iff ``fixed(keys[e]) ==
    want``: g*e == g for every generator g iff e fixes every point of every
    generator's image, and ``fixed`` reads a key at those points."""
    n = len(closure.generator_keys[0])
    points = sorted({v for key in closure.generator_keys for v in key} - {n})
    if not points:
        return (lambda key: ()), ()
    # the repeated point makes even one image point read as a tuple
    fixed = operator.itemgetter(*points, points[0])
    return fixed, fixed(range(n))


def _first_identity(closure, side) -> Optional[int]:
    """The first ``"left"``, ``"right"`` or ``"two_sided"`` identity: each
    scan stops at its first hit."""
    if side == "right":
        fixed, want = _right_identity_test(closure)
        return next(compress(count(), map(want.__eq__, map(fixed, closure.keys))), None)
    try:
        e = closure.cayley.index(_generator_row(closure))
    except ValueError:
        return None
    if side == "left":
        return e
    # a left identity e and a right identity f are equal (e = ef = f), so test e alone
    fixed, want = _right_identity_test(closure)
    return e if fixed(closure.keys[e]) == want else None


def _found(first, *args):
    """The check that holds iff ``first(closure, *args)`` names a witness."""
    def check(closure):
        e = first(closure, *args)
        return (False, None) if e is None else (True, {"element": _show(closure, e)})

    return check


_zero = _found(_first_zero)

_CHECKS: dict[PropertyName, Callable] = {
    PropertyName.COMMUTATIVE: _commutative,
    PropertyName.SEMILATTICE: _semilattice,
    PropertyName.BAND: _band,
    PropertyName.GROUP: _group,
    PropertyName.LEFT_ZERO: _zero,
    PropertyName.RIGHT_ZERO: _zero,
    PropertyName.ZERO: _zero,
    PropertyName.NILPOTENT: _nilpotent,
    PropertyName.R_TRIVIAL: _r_trivial,
    PropertyName.CENTRAL_IDEMPOTENTS: _central_idempotents,
    PropertyName.REGULAR: _regular,
    PropertyName.COMPLETELY_REGULAR: _completely_regular,
    PropertyName.CLIFFORD: _completely_regular,
    PropertyName.LEFT_IDENTITY: _found(_first_identity, "left"),
    PropertyName.RIGHT_IDENTITY: _found(_first_identity, "right"),
    PropertyName.TWO_SIDED_IDENTITY: _found(_first_identity, "two_sided"),
}


def oracle_report(closure: SemigroupClosure, prop: PropertyName) -> CheckReport:
    return CheckReport(*_CHECKS[prop](closure))


class OracleModelResult:
    """The first violating assignment, or None when the identity holds."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Optional[tuple[PartialBijection, ...]] = None):
        self.assignment = assignment

    @property
    def models(self) -> bool:
        return self.assignment is None


def oracle_models(
    gens: GeneratorSet, ident: Identity, limit: int = DEFAULT_LIMIT
) -> OracleModelResult:
    """Decide the identity by enumerating every variable assignment.

    Inverses are appended to the generators when missing.  Variables
    1..num_premises range over the idempotents of the closure, the rest over
    everything; the first violating assignment (element-discovery order,
    first variable slowest) is reported.  An assignment space larger than
    ``DEFAULT_BUDGET`` raises LimitExceeded before any is tried.
    """
    gens = gens.with_inverses()
    clo = close(gens, limit)
    n_els = len(clo)
    keys, tail = clo.keys, _tail(gens.degree)
    inv_keys = [_inverse_key(key) for key in keys]

    def eval_side(word, assign):
        acc = None
        for v in word:
            i = assign[abs(v) - 1]
            key = keys[i] if v > 0 else inv_keys[i]
            acc = key if acc is None else acc.translate(key + tail)
        return acc

    idem_indices = list(_idempotents(clo))
    ranges = [
        idem_indices if v <= ident.num_premises else range(n_els)
        for v in range(1, ident.num_vars + 1)
    ]
    space = prod(len(r) for r in ranges)
    if space > DEFAULT_BUDGET:
        raise LimitExceeded(DEFAULT_BUDGET, space,
                            f"{space} oracle assignments exceed the budget {DEFAULT_BUDGET}")
    for assign in product(*ranges):
        if eval_side(ident.lhs, assign) != eval_side(ident.rhs, assign):
            return OracleModelResult(tuple(clo[i] for i in assign))
    return OracleModelResult(None)
