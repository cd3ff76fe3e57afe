"""Semantic property checks over a complete closure.

Everything here scans the enumerated element set directly, by the property's
definition, so these are the ground truth the generator-level checkers are
tested against.  Scans are order-independent; the witnesses reported follow
enumeration order so output stays deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .closure import (
    DEFAULT_LIMIT,
    GeneratorSet,
    IncompleteClosure,
    SemigroupClosure,
    close,
)
from .identities import Identity
from .pbij import PartialBijection
from .properties import CheckReport, PropertyName


def _show(el) -> str:
    return el.to_text() if isinstance(el, PartialBijection) else repr(el)


def _require_complete(closure: SemigroupClosure):
    if not closure.complete:
        raise IncompleteClosure("oracle checks need the full element set")


@dataclass(frozen=True)
class IdentityLists:
    """Every left/right/two-sided identity of the closure, in discovery order."""

    left: tuple
    right: tuple
    two_sided: tuple


def oracle_identities(closure: SemigroupClosure) -> IdentityLists:
    _require_complete(closure)
    els = closure.elements
    left = tuple(e for e in els if all(e * s == s for s in els))
    right = tuple(e for e in els if all(s * e == s for s in els))
    right_set = set(right)
    return IdentityLists(left, right, tuple(e for e in left if e in right_set))


def _commutative(closure):
    els = closure.elements
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            if a * b != b * a:
                return False, {"left": _show(a), "right": _show(b)}
    return True, None


def _band(closure):
    for a in closure.elements:
        if a * a != a:
            return False, {"element": _show(a)}
    return True, None


def _semilattice(closure):
    ok, witness = _band(closure)
    if not ok:
        return ok, witness
    return _commutative(closure)


def _group(closure):
    els = closure.elements
    idems = [e for e in els if e * e == e]
    if len(idems) != 1:
        return False, {"idempotents": [_show(e) for e in idems[:2]]}
    e = idems[0]
    for s in els:
        if e * s != s or s * e != s:
            return False, {"not_identity_on": _show(s)}
    for s in els:
        if not any(s * t == e and t * s == e for t in els):
            return False, {"no_inverse": _show(s)}
    return True, None


def _left_zero(closure):
    for z in closure.elements:
        if all(z * s == z for s in closure.elements):
            return True, {"element": _show(z)}
    return False, None


def _right_zero(closure):
    for z in closure.elements:
        if all(s * z == z for s in closure.elements):
            return True, {"element": _show(z)}
    return False, None


def _zero(closure):
    for z in closure.elements:
        if all(z * s == z and s * z == z for s in closure.elements):
            return True, {"element": _show(z)}
    return False, None


def _nilpotent(closure):
    has_zero, witness = _zero(closure)
    if not has_zero:
        return False, {"reason": "no zero element"}
    zero_key = witness["element"]
    zero = next(e for e in closure.elements if _show(e) == zero_key)
    gens = list(dict.fromkeys(closure.generators))
    current = set(gens)
    # Any annihilating product length is at most the closure size (along a
    # longest non-zero word, the prefix values are pairwise distinct).
    for length in range(1, len(closure.elements) + 1):
        if current == {zero}:
            return True, {"zero": zero_key, "annihilating_length": length}
        current = {e * g for e in current for g in gens}
    if current == {zero}:
        return True, {"zero": zero_key, "annihilating_length": len(closure.elements) + 1}
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
    for i, el in enumerate(closure.elements):
        ideal = _right_ideal(closure, i)
        other = ideals.get(ideal)
        if other is not None:
            return False, {"first": _show(closure.elements[other]), "second": _show(el)}
        ideals[ideal] = i
    return True, None


def _central_idempotents(closure):
    els = closure.elements
    for e in els:
        if e * e != e:
            continue
        for s in els:
            if e * s != s * e:
                return False, {"idempotent": _show(e), "element": _show(s)}
    return True, None


def _regular(closure):
    els = closure.elements
    for s in els:
        if not any(s * t * s == s for t in els):
            return False, {"element": _show(s)}
    return True, None


def _completely_regular(closure):
    for s in closure.elements:
        if not isinstance(s, PartialBijection):
            raise TypeError("completely-regular oracle needs partial bijections")
        if s.dom() != s.image():
            return False, {"element": _show(s)}
    return True, None


def _left_identity(closure):
    ids = oracle_identities(closure).left
    return (True, {"element": _show(ids[0])}) if ids else (False, None)


def _right_identity(closure):
    ids = oracle_identities(closure).right
    return (True, {"element": _show(ids[0])}) if ids else (False, None)


def _two_sided_identity(closure):
    ids = oracle_identities(closure).two_sided
    return (True, {"element": _show(ids[0])}) if ids else (False, None)


_CHECKS: dict[PropertyName, Callable] = {
    PropertyName.COMMUTATIVE: _commutative,
    PropertyName.SEMILATTICE: _semilattice,
    PropertyName.BAND: _band,
    PropertyName.GROUP: _group,
    PropertyName.LEFT_ZERO: _left_zero,
    PropertyName.RIGHT_ZERO: _right_zero,
    PropertyName.ZERO: _zero,
    PropertyName.NILPOTENT: _nilpotent,
    PropertyName.R_TRIVIAL: _r_trivial,
    PropertyName.CENTRAL_IDEMPOTENTS: _central_idempotents,
    PropertyName.REGULAR: _regular,
    PropertyName.COMPLETELY_REGULAR: _completely_regular,
    PropertyName.CLIFFORD: _completely_regular,
    PropertyName.LEFT_IDENTITY: _left_identity,
    PropertyName.RIGHT_IDENTITY: _right_identity,
    PropertyName.TWO_SIDED_IDENTITY: _two_sided_identity,
}


def oracle_report(closure: SemigroupClosure, prop: PropertyName) -> CheckReport:
    _require_complete(closure)
    holds, witness = _CHECKS[prop](closure)
    return CheckReport(prop, holds, witness)


def oracle_check(closure: SemigroupClosure, prop: PropertyName) -> bool:
    return oracle_report(closure, prop).holds


@dataclass(frozen=True)
class OracleModelResult:
    models: bool
    assignment: Optional[tuple[PartialBijection, ...]] = None


def oracle_models(
    gens: GeneratorSet, ident: Identity, limit: int = DEFAULT_LIMIT
) -> OracleModelResult:
    """Decide the identity by enumerating every variable assignment.

    Inverses are appended to the generators when missing.  Variables
    1..num_premises range over the idempotents of the closure, the rest over
    everything; the first violating assignment (element-discovery order,
    first variable slowest) is reported.
    """
    gens = gens.with_inverses()
    clo = close(gens, limit)
    els = clo.elements
    n_els = len(els)

    inv_index = []
    for el in els:
        j = clo.index_of(el.inverse())
        assert j is not None, "inverse-closed closure must contain inverses"
        inv_index.append(j)

    if n_els <= 1200:
        pair = clo.pair_product
    else:
        def pair(i, j, _els=els, _idx=clo.index):
            return _idx[(_els[i] * _els[j]).entries]

    def eval_side(word, assign):
        acc = None
        for lit in word:
            i = assign[lit.var - 1]
            if lit.exponent == -1:
                i = inv_index[i]
            acc = i if acc is None else pair(acc, i)
        return acc

    idem_indices = [i for i, e in enumerate(els) if e * e == e]
    ranges = [
        idem_indices if v <= ident.num_premises else range(n_els)
        for v in range(1, ident.num_vars + 1)
    ]
    for assign in product(*ranges):
        if eval_side(ident.lhs, assign) != eval_side(ident.rhs, assign):
            return OracleModelResult(False, tuple(els[i] for i in assign))
    return OracleModelResult(True, None)
