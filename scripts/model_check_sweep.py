#!/usr/bin/env python3
"""Confront the boundary-search model checker with the assignment-enumeration
oracle over random inverse-closed generator sets, reporting verdict counts
and counterexample replay results.  A check whose oracle assignment space
exceeds ``DEFAULT_BUDGET`` (``oracle_models`` raises LimitExceeded) is skipped
and counted.

``--sets class`` draws the sets from the classes that ``models`` decides
identities for before its walk, in turn: groups on a random domain, abelian
groups (powers of one permutation), semilattices (which are commutative and
Clifford), commutative sets and Clifford sets whose domains are nested.
Random sets rarely lie in one.

``--sets small`` draws sets whose closure stays small at any degree, so the
oracle reaches degrees 16-64, where random closures outgrow it: in turn,
groups of order at most 24 acting on many points, a permutation of order at
most 3 plus partial identities, and the rank-1 hull of the maps i -> i+1
(its n^2 rank-1 maps and the empty map).  Each check is then also decided
by the boundary walk alone (``model_checker._walk``), without the law and
class tests that ``models`` runs before it, so laws and class identities
meet the oracle through the walk too.

Example:
    python3 scripts/model_check_sweep.py --degrees 2 3 4 --count 200
    python3 scripts/model_check_sweep.py --degrees 5 6 --count 50 --sets class
    python3 scripts/model_check_sweep.py --degrees 16 24 32 --count 6 --sets small
"""

import argparse
import random
import sys
import time

from pbsg import (DEFAULT_BUDGET, GeneratorSet, LimitExceeded, PartialBijection, model_checker,
                  models, oracle_models, parse_identity)
from pbsg.closure import _keys, _tables
from pbsg.model_checker import counterexample_values
from pbsg.sampling import random_generator_set

DEFAULT_IDENTITIES = [
    "x1 x2 = x2 x1",
    "x1 = x1 x1",
    "x1 x1^-1 = x1^-1 x1",
    "x1 x1^-1 x1 = x1",
    "x1=x1^2 => x1 x2 = x2 x1",
    "x1=x1^2, x2=x2^2 => x1 x2 = x2 x1",
    "x1^-1 = x1^-1 x1^-1",
    "x1 x2^-1 x1 = x1",
    "x1 x2 x3 = x3 x2 x1",
    "x1 x2 x1 = x1 x1 x2",
    "x1 x2 x3 x4 = x4 x3 x2 x1",
    "x1 x2 x1^-1 x2^-1 = x2 x1 x2^-1 x1^-1",
]

CLASSES = ("group", "abelian", "semilattice", "commutative", "clifford")

SMALL = ("group", "partial", "rank1")


def _restricted(perm, dom):
    """The permutation ``perm`` (a list) restricted to the points ``dom``."""
    return PartialBijection([y if x in dom else None for x, y in enumerate(perm)])


def class_generator_set(rng, n, k, kind):
    """``k`` generators of degree ``n`` whose inverse hull lies in the class
    ``kind`` (one of ``CLASSES``).

    A group permutes one random domain; an abelian group is powers of one
    such permutation; a semilattice is partial identities.  The commutative
    and Clifford sets restrict permutations to the domains of a random chain
    D1 ⊇ D2 ⊇ ..., each permutation keeping every Di: powers of one such
    permutation (so they commute), or a fresh one per generator.
    """
    if kind == "semilattice":
        return GeneratorSet(n, [_restricted(range(n), rng.sample(range(n), rng.randint(0, n)))
                                for _ in range(k)])
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)), reverse=True)
    if kind in ("group", "abelian"):
        cuts = cuts[:1]
    chain = [order[:c] for c in cuts]

    def keeping():
        # a permutation of the points that shuffles each layer Di - Di+1 in itself
        perm = list(range(n))
        for hi, lo in zip(cuts, cuts[1:] + [0]):
            layer = order[lo:hi]
            for x, y in zip(layer, rng.sample(layer, len(layer))):
                perm[x] = y
        return perm

    base = keeping() if kind in ("abelian", "commutative") else None
    gens = []
    for _ in range(k):
        if base is None:
            perm = keeping()
        else:
            perm = base
            for _ in range(rng.randrange(n)):
                perm = [base[y] for y in perm]
        gens.append(_restricted(perm, rng.choice(chain)))
    return GeneratorSet(n, gens)


def _block_lift(order, m, perm):
    """The permutation ``perm`` of 0..m-1 acting at once on each block of m
    consecutive points of ``order``, a list of all the points; the points
    past the last whole block stay fixed.  Lifts multiply as the
    permutations do, so they generate a group of the same order."""
    entries = list(range(len(order)))
    for start in range(0, len(order) - len(order) % m, m):
        block = order[start:start + m]
        for x, y in zip(block, perm):
            entries[x] = block[y]
    return PartialBijection(entries)


def small_generator_set(rng, n, k, kind):
    """Generators of degree ``n`` (at least 4) whose closure stays small
    whatever ``n``, of the family ``kind`` (one of ``SMALL``).

    ``group``: k permutations of m <= 4 points, none the identity, each
    lifted to every block of m points of one random ordering.  ``partial``:
    one such lift with m <= 3 and 1 to k partial identities on random
    subsets.  ``rank1``: the maps sending each point of a random ordering to
    the next one alone.
    """
    order = rng.sample(range(n), n)
    if kind == "rank1":
        return GeneratorSet(n, [PartialBijection([y if x == a else None for x in range(n)])
                                for a, y in zip(order, order[1:])])
    m = rng.randint(2, 4 if kind == "group" else 3)
    gens = []
    while len(gens) < (k if kind == "group" else 1):
        perm = rng.sample(range(m), m)
        if perm != sorted(perm):  # no lift of the identity
            gens.append(_block_lift(order, m, perm))
    if kind == "partial":
        gens += [_restricted(range(n), rng.sample(range(n), rng.randint(1, n - 1)))
                 for _ in range(rng.randint(1, k))]
    return GeneratorSet(n, gens)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--count", type=int, default=200, help="sets per degree")
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--identities", nargs="*", default=DEFAULT_IDENTITIES)
    parser.add_argument("--sets", choices=("random", "class", "small"), default="random",
                        help="random sets, members of the classes in turn, "
                             "or the small-closure families in turn")
    args = parser.parse_args(argv)

    idents = [(text, parse_identity(text)) for text in args.identities]
    start = time.perf_counter()
    disagreements = []
    replay_failures = []
    skipped = 0
    verdicts = {text: [0, 0] for text, _ in idents}

    for n in args.degrees:
        rng = random.Random(args.seed + 100 * n)
        for i in range(args.count):
            k = rng.randint(1, args.max_k)
            if args.sets == "class":
                gens = class_generator_set(rng, n, k, CLASSES[i % len(CLASSES)]).with_inverses()
            elif args.sets == "small":
                gens = small_generator_set(rng, n, k, SMALL[i % len(SMALL)]).with_inverses()
            else:
                gens = random_generator_set(rng, n, k, inverse_closed=True)
            for text, ident in idents:
                try:
                    slow = oracle_models(gens, ident)
                except LimitExceeded:
                    skipped += 1
                    continue
                fast = models(gens, ident)
                verdicts[text][0 if fast.models else 1] += 1
                results = [fast]
                if args.sets == "small":
                    results.append(model_checker._walk(gens, _tables(_keys(gens)), ident,
                                                       DEFAULT_BUDGET))
                for result in results:
                    if result.models != slow.models:
                        disagreements.append((text, [g.to_text() for g in gens.generators]))
                    if not result.models:
                        _, lhs, rhs = counterexample_values(result.generators, ident,
                                                            result.counterexample)
                        if lhs == rhs:
                            replay_failures.append((text, gens))

    elapsed = time.perf_counter() - start
    checks = len(args.degrees) * args.count * len(idents) - skipped
    print(f"{checks} checks in {elapsed:.1f}s, {skipped} skipped "
          "(oracle assignment space over the budget)")
    print(f"{'identity':44} {'models':>7} {'fails':>7}")
    for text, (yes, no) in verdicts.items():
        print(f"{text:44} {yes:7} {no:7}")
    if disagreements or replay_failures:
        print("DISAGREEMENTS", disagreements[:5])
        print("REPLAY FAILURES", replay_failures[:5])
        return 1
    print("model checker agrees with the oracle; all counterexamples replay")
    return 0


if __name__ == "__main__":
    sys.exit(main())
