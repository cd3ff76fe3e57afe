"""Generator-level property checkers.

These decide properties of the generated semigroup by quantifying only over
the generators and the points, never over the elements; each is validated
against the closure oracle by the test suite.  Identity existence depends
only on how the generators' domains and images contain one another: a left
or right identity, when there is one, is the idempotent power of a generator
that permutes its domain, the partial identity on that domain.  No check
multiplies elements: each computes a generator's domain or image at most
once and reads its entries where it needs more; an identity witness is
built from its generator's entries without being validated again.

The idempotents of a semigroup of partial bijections are partial identities,
which commute.  So band and semilattice are one decision, and so are
completely regular and Clifford: one function decides each pair, and the
report, ``(holds, witness)``, is the same for both names.
"""

from __future__ import annotations

from typing import Optional

from .closure import GeneratorSet
from .pbij import PartialBijection
from .properties import CheckReport, PropertyName


def _identity_from_generator(gens: GeneratorSet, test) -> CheckReport:
    """Holds with the partial identity on dom(a_i) for the first generator
    a_i whose index i passes ``test``."""
    for i, a in enumerate(gens.generators):
        if test(i):
            el = PartialBijection._trusted(
                tuple([None if v is None else x for x, v in enumerate(a.entries)]))
            return CheckReport(True, {"generator": i + 1, "identity": el})
    return CheckReport(False)


def check_left_identity_exists(gens: GeneratorSet) -> CheckReport:
    """Does some generator's idempotent power act as a left identity?

    Holds iff for some i, image(a_i) = dom(a_i) and dom(a_i) contains every
    dom(a_j); the witness is the partial identity on dom(a_i).
    """
    gs = gens.generators
    doms = [g.dom() for g in gs]
    union = frozenset().union(*doms)
    return _identity_from_generator(
        gens, lambda i: union <= doms[i] and gs[i].image() == doms[i])


def check_right_identity_exists(gens: GeneratorSet) -> CheckReport:
    """Does some generator's idempotent power act as a right identity?

    Holds iff for some i, dom(a_i) contains every image(a_j) (so a_i, mapping
    its domain into itself, permutes it); the witness is the partial
    identity on dom(a_i).
    """
    gs = gens.generators
    union = frozenset().union(*(g.image() for g in gs))
    return _identity_from_generator(gens, lambda i: union <= gs[i].dom())


def enumerate_identities(gens: GeneratorSet) -> tuple:
    """``(left, right)``: the left and the right identity, each the witness
    of its check, or None when there is none.  A two-sided identity exists
    exactly when both do, as then e = ef = f."""
    return tuple(rep.witness["identity"] if rep.holds else None
                 for rep in (check_left_identity_exists(gens), check_right_identity_exists(gens)))


def _check_two_sided_identity(gens: GeneratorSet) -> CheckReport:
    """A left identity e and a right identity f are equal, e = ef = f, so the
    right check runs only when the left holds, and the witness is the left's."""
    left = check_left_identity_exists(gens)
    holds = left.holds and check_right_identity_exists(gens).holds
    witness = {"identity": left.witness["identity"]} if holds else None
    return CheckReport(holds, witness)


def check_completely_regular(gens: GeneratorSet) -> CheckReport:
    """Holds iff dom(a_i a_j) = dom(a_i) ∩ dom(a_j) for all generator pairs."""
    doms = [g.dom() for g in gens.generators]
    for i, a in enumerate(gens.generators):
        da, ea = doms[i], a.entries
        for j, db in enumerate(doms):
            got = {x for x in da if ea[x] in db}  # dom(a_i a_j), read off a_i
            want = da & db
            if got != want:
                return CheckReport(False, {"i": i + 1, "j": j + 1, "point": min(got ^ want) + 1})
    return CheckReport(True)


check_clifford = check_completely_regular


def check_band_semilattice(gens: GeneratorSet) -> CheckReport:
    """Band and semilattice coincide here; both hold iff every generator is
    idempotent (products of partial identities stay partial identities)."""
    for i, a in enumerate(gens.generators):
        for x, v in a.graph():
            if v != x:
                return CheckReport(False, {"generator": i + 1, "point": x + 1})
    return CheckReport(True)


def check_commutative(gens: GeneratorSet) -> CheckReport:
    """Holds iff the generators pairwise commute (which the closure inherits)."""
    es = [g.entries for g in gens.generators]
    for i, ea in enumerate(es):
        for j in range(i + 1, len(es)):
            eb = es[j]
            ab = [None if v is None else eb[v] for v in ea]
            ba = [None if v is None else ea[v] for v in eb]
            if ab != ba:
                point = min(x for x in range(gens.degree) if ab[x] != ba[x])
                return CheckReport(False, {"i": i + 1, "j": j + 1, "point": point + 1})
    return CheckReport(True)


_CHECKERS = {
    PropertyName.COMMUTATIVE: check_commutative,
    PropertyName.BAND: check_band_semilattice,
    PropertyName.SEMILATTICE: check_band_semilattice,
    PropertyName.COMPLETELY_REGULAR: check_completely_regular,
    PropertyName.CLIFFORD: check_completely_regular,
    PropertyName.LEFT_IDENTITY: check_left_identity_exists,
    PropertyName.RIGHT_IDENTITY: check_right_identity_exists,
    PropertyName.TWO_SIDED_IDENTITY: _check_two_sided_identity,
}

#: Properties with a generator-level decision procedure.
GENERATOR_CHECKABLE = frozenset(_CHECKERS)


def run_generator_check(gens: GeneratorSet, prop: PropertyName) -> Optional[CheckReport]:
    """Dispatch to the matching fast checker, or None when only the closure
    oracle can decide the property."""
    checker = _CHECKERS.get(prop)
    return None if checker is None else checker(gens)
