"""Semantic property checks over a complete closure.

Everything here scans the enumerated element set directly, so these are the
ground truth the generator-level checkers are tested against.  Most scans
follow the property's definition word for word.  Three stop as soon as their
answer is fixed, each by a short exact argument stated where it is used:
``nilpotent`` rejects at once when an idempotent other than the zero exists
(it lies in every power of the generating set), the identity properties stop at the first identity on the side
asked for (a left and a right identity are equal), and ``regular`` looks up
each element's inverse (s is regular in S iff s⁻¹ is in S).  Scans work on
element indices: every product is an index read off the closure's Cayley
table by ``pair_product``, and no element is composed here; what a scan needs
of an element itself it reads from the element's byte key.  Scans are
order-independent; the witnesses reported follow enumeration order so output
stays deterministic.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import TYPE_CHECKING, Callable, Optional

from .closure import (
    DEFAULT_BUDGET,
    DEFAULT_LIMIT,
    ArityOverflow,
    GeneratorSet,
    SemigroupClosure,
    close,
)
from .pbij import PartialBijection
from .properties import CheckReport, IdentityLists, PropertyName

if TYPE_CHECKING:
    from .identities import Identity


def _show(closure, i) -> str:
    return closure[i].to_text()


def _inverse_key(key: bytes, n: int) -> bytes:
    """The byte key of the inverse of the degree-``n`` element keyed ``key``."""
    inv = bytearray([n]) * n
    for x, v in enumerate(key):
        if v != n:
            inv[v] = x
    return bytes(inv)


def oracle_identities(closure: SemigroupClosure) -> IdentityLists:
    mul, idx = closure.pair_product, range(len(closure))
    left = [e for e in idx if all(mul(e, s) == s for s in idx)]
    right = [e for e in idx if all(mul(s, e) == s for s in idx)]
    right_set = set(right)
    two_sided = [e for e in left if e in right_set]
    return IdentityLists(*(tuple(closure[e] for e in ids) for ids in (left, right, two_sided)))


def _commutative(closure):
    mul, n = closure.pair_product, len(closure)
    for a in range(n):
        for b in range(a + 1, n):
            if mul(a, b) != mul(b, a):
                return False, {"left": _show(closure, a), "right": _show(closure, b)}
    return True, None


def _band(closure):
    mul = closure.pair_product
    for a in range(len(closure)):
        if mul(a, a) != a:
            return False, {"element": _show(closure, a)}
    return True, None


def _semilattice(closure):
    ok, witness = _band(closure)
    if not ok:
        return ok, witness
    return _commutative(closure)


def _group(closure):
    mul, idx = closure.pair_product, range(len(closure))
    idems = [e for e in idx if mul(e, e) == e]
    if len(idems) != 1:
        return False, {"idempotents": [_show(closure, e) for e in idems[:2]]}
    e = idems[0]
    for s in idx:
        if mul(e, s) != s or mul(s, e) != s:
            return False, {"not_identity_on": _show(closure, s)}
    for s in idx:
        if not any(mul(s, t) == e and mul(t, s) == e for t in idx):
            return False, {"no_inverse": _show(closure, s)}
    return True, None


def _first_zero(closure, left, right) -> Optional[int]:
    """The first z with z*s == z (when ``left``) and s*z == z (when ``right``)
    for every s: a left zero, a right zero or a zero."""
    mul, idx = closure.pair_product, range(len(closure))
    for z in idx:
        if all((not left or mul(z, s) == z) and (not right or mul(s, z) == z) for s in idx):
            return z
    return None


def _zero_check(left, right):
    def check(closure):
        z = _first_zero(closure, left, right)
        return (False, None) if z is None else (True, {"element": _show(closure, z)})

    return check


def _nilpotent(closure):
    zero = _first_zero(closure, True, True)
    if zero is None:
        return False, {"reason": "no zero element"}
    zero_key = _show(closure, zero)
    mul = closure.pair_product
    # an idempotent e = g1..gk other than the zero lies in every G^(kt), so no G^t is {zero}
    if any(mul(e, e) == e for e in range(len(closure)) if e != zero):
        return False, {"zero": zero_key}
    current = {closure.index_of(g) for g in closure.generators}
    # With the zero as the only idempotent, G^(N+1) = {zero}: a product of N+1
    # generators repeats a prefix value p = px, so p = p x^ω with x^ω the zero.
    for length in range(1, len(closure) + 2):
        if current == {zero}:
            return True, {"zero": zero_key, "annihilating_length": length}
        current = {nxt for e in current for nxt in closure.cayley[e]}
    return False, {"zero": zero_key}


def _right_ideal(closure, i):
    seen = {i}
    stack = [i]
    while stack:
        cur = stack.pop()
        for nxt in closure.cayley[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _r_trivial(closure):
    ideals = {}
    for i in range(len(closure)):
        ideal = _right_ideal(closure, i)
        other = ideals.get(ideal)
        if other is not None:
            return False, {"first": _show(closure, other), "second": _show(closure, i)}
        ideals[ideal] = i
    return True, None


def _central_idempotents(closure):
    mul, idx = closure.pair_product, range(len(closure))
    for e in idx:
        if mul(e, e) != e:
            continue
        for s in idx:
            if mul(e, s) != mul(s, e):
                return False, {"idempotent": _show(closure, e), "element": _show(closure, s)}
    return True, None


def _regular(closure):
    n, index = closure.generators[0].degree, closure.index
    for s, key in enumerate(closure.keys):
        # sts = s makes tst the unique inverse of s, and s s⁻¹ s = s: regular iff s⁻¹ ∈ S
        if _inverse_key(key, n) not in index:
            return False, {"element": _show(closure, s)}
    return True, None


def _completely_regular(closure):
    n = closure.generators[0].degree  # the key byte of an undefined image
    for i, key in enumerate(closure.keys):
        if {x for x, v in enumerate(key) if v != n} != set(key) - {n}:
            return False, {"element": _show(closure, i)}
    return True, None


def _first_identity(closure, side) -> Optional[int]:
    """The first left, right or two-sided identity (``side`` as in IdentityLists)."""
    mul, idx = closure.pair_product, range(len(closure))
    if side == "right":
        return next((e for e in idx if all(mul(s, e) == s for s in idx)), None)
    e = next((e for e in idx if all(mul(e, s) == s for s in idx)), None)
    # a left identity e and a right identity f are equal (e = ef = f), so test e alone
    if side == "two_sided" and e is not None and not all(mul(s, e) == s for s in idx):
        return None
    return e


def _identity_check(side):
    def check(closure):
        e = _first_identity(closure, side)
        return (False, None) if e is None else (True, {"element": _show(closure, e)})

    return check


_CHECKS: dict[PropertyName, Callable] = {
    PropertyName.COMMUTATIVE: _commutative,
    PropertyName.SEMILATTICE: _semilattice,
    PropertyName.BAND: _band,
    PropertyName.GROUP: _group,
    PropertyName.LEFT_ZERO: _zero_check(True, False),
    PropertyName.RIGHT_ZERO: _zero_check(False, True),
    PropertyName.ZERO: _zero_check(True, True),
    PropertyName.NILPOTENT: _nilpotent,
    PropertyName.R_TRIVIAL: _r_trivial,
    PropertyName.CENTRAL_IDEMPOTENTS: _central_idempotents,
    PropertyName.REGULAR: _regular,
    PropertyName.COMPLETELY_REGULAR: _completely_regular,
    PropertyName.CLIFFORD: _completely_regular,
    PropertyName.LEFT_IDENTITY: _identity_check("left"),
    PropertyName.RIGHT_IDENTITY: _identity_check("right"),
    PropertyName.TWO_SIDED_IDENTITY: _identity_check("two_sided"),
}


def oracle_report(closure: SemigroupClosure, prop: PropertyName) -> CheckReport:
    holds, witness = _CHECKS[prop](closure)
    return CheckReport(prop, holds, witness)


class OracleModelResult:
    __slots__ = ("models", "assignment")

    def __init__(self, models: bool, assignment: Optional[tuple[PartialBijection, ...]] = None):
        self.models = models
        self.assignment = assignment


def oracle_models(
    gens: GeneratorSet, ident: Identity, limit: int = DEFAULT_LIMIT
) -> OracleModelResult:
    """Decide the identity by enumerating every variable assignment.

    Inverses are appended to the generators when missing.  Variables
    1..num_premises range over the idempotents of the closure, the rest over
    everything; the first violating assignment (element-discovery order,
    first variable slowest) is reported.  An assignment space larger than
    ``DEFAULT_BUDGET`` raises ArityOverflow before any is tried.
    """
    gens = gens.with_inverses()
    clo = close(gens, limit)
    n_els = len(clo)
    pair = clo.pair_product

    n = gens.degree  # the key byte of an undefined image
    inv_index = [clo.index[_inverse_key(key, n)] for key in clo.keys]

    def eval_side(word, assign):
        acc = None
        for lit in word:
            i = assign[lit.var - 1]
            if lit.exponent == -1:
                i = inv_index[i]
            acc = i if acc is None else pair(acc, i)
        return acc

    idem_indices = [i for i in range(n_els) if pair(i, i) == i]
    ranges = [
        idem_indices if v <= ident.num_premises else range(n_els)
        for v in range(1, ident.num_vars + 1)
    ]
    space = prod(len(r) for r in ranges)
    if space > DEFAULT_BUDGET:
        raise ArityOverflow(
            f"{space} oracle assignments exceed the budget {DEFAULT_BUDGET}"
        )
    for assign in product(*ranges):
        if eval_side(ident.lhs, assign) != eval_side(ident.rhs, assign):
            return OracleModelResult(False, tuple(clo[i] for i in assign))
    return OracleModelResult(True, None)
