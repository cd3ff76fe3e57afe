#!/usr/bin/env python3
"""Sweep seeded random generator sets and confront every generator-level
checker with the closure oracle; print an agreement table and timings.
Membership is confronted with the closure too: ``member`` must find every
closure element with the closure's own witness word, and miss one partial
bijection outside the closure of every domain size that has one, since
``member`` enumerates only the elements whose domain contains the target's.
The same closure-word check runs on the generator sets of seeded tiling
reductions (at most 2 rows and 2 colors, 1 to 3 tiles), whose target, a hit
or a miss, is checked too: there ``member`` skips the generators undefined at
an element's image of the target's first point.  Each of those instances
also runs through ``roundtrip_check``, which searches on the reduction's own
translate tables: its verdict and witness must be ``member``'s.

Example:
    python3 scripts/oracle_sweep.py --degrees 3 4 5 --count 500 --seed 1
"""

import argparse
import random
import sys
import time
from collections import Counter

from pbsg import (
    DEFAULT_LIMIT,
    PropertyName,
    all_partial_bijections,
    close,
    enumerate_identities,
    member,
    oracle_identities,
    oracle_report,
    run_generator_check,
)
from pbsg.checkers import GENERATOR_CHECKABLE
from pbsg.sampling import random_generator_set, random_tiling_instance
from pbsg.tiling import reduce, roundtrip_check

TILING_INSTANCES = 300


def check_member(gens, clo, targets, limit):
    """Disagreements of ``member`` with the closure on ``targets``: a hit
    must come with the closure's word, a miss must be outside the closure."""
    bad = 0
    for b in targets:
        got = member(gens, b, limit)
        i = clo.index_of(b)
        bad += got.witness != (None if i is None else clo.word(i))
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--count", type=int, default=500, help="sets per degree")
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    args = parser.parse_args(argv)

    props = sorted(GENERATOR_CHECKABLE, key=lambda p: p.value)
    agree = Counter()
    disagree = Counter()
    holds = Counter()
    closure_sizes = []
    member_checks = 0
    member_misses = 0
    start = time.perf_counter()

    for n in args.degrees:
        rng = random.Random(args.seed + n)
        universe = all_partial_bijections(n)
        for _ in range(args.count):
            gens = random_generator_set(rng, n, rng.randint(1, args.max_k))
            clo = close(gens, args.limit)
            closure_sizes.append(len(clo))
            member_checks += len(clo)
            outside = {}  # domain size -> first partial bijection outside
            for b in universe:
                if b not in clo:
                    outside.setdefault(len(b.dom()), b)
            member_misses += len(outside)
            disagree["member"] += check_member(gens, clo, [*clo, *outside.values()],
                                               args.limit)
            ids = left, right = oracle_identities(clo)
            oracle_truth = {
                PropertyName.LEFT_IDENTITY: left is not None,
                PropertyName.RIGHT_IDENTITY: right is not None,
                # a left and a right identity are one: e = ef = f
                PropertyName.TWO_SIDED_IDENTITY: left is not None and right is not None,
            }
            if enumerate_identities(gens) != ids:
                disagree["identity-element"] += 1
            for prop in props:
                fast = run_generator_check(gens, prop).holds
                want = oracle_truth.get(prop)
                if want is None:
                    want = oracle_report(clo, prop).holds
                (agree if fast == want else disagree)[prop.value] += 1
                holds[prop.value] += fast == want == True  # noqa: E712

    rng = random.Random(args.seed)
    tiling_checks = 0
    for _ in range(TILING_INSTANCES):
        inst = random_tiling_instance(rng, rng.randint(1, 2), rng.randint(1, 2),
                                      rng.randint(1, 3))
        red = reduce(inst)
        clo = close(red.generator_set, args.limit)
        tiling_checks += len(clo) + 1
        disagree["member"] += check_member(red.generator_set, clo, [*clo, red.target],
                                           args.limit)
        got = member(red.generator_set, red.target, args.limit)
        disagree["roundtrip"] += roundtrip_check(inst, args.limit).member != got

    elapsed = time.perf_counter() - start
    total = len(args.degrees) * args.count
    print(f"{total} generator sets, degrees {args.degrees}, "
          f"closure sizes {min(closure_sizes)}..{max(closure_sizes)}, {elapsed:.1f}s")
    print(f"{'property':24} {'agree':>7} {'disagree':>9} {'holds':>7}")
    for prop in props:
        print(f"{prop.value:24} {agree[prop.value]:7} {disagree[prop.value]:9} "
              f"{holds[prop.value]:7}")
    print(f"member: {member_checks} checks against closure words, "
          f"{member_misses} outside the closure, {tiling_checks} on "
          f"{TILING_INSTANCES} tiling reductions, {disagree['member']} disagreements")
    print(f"roundtrip: {TILING_INSTANCES} tiling instances against member, "
          f"{disagree['roundtrip']} disagreements")
    disagree = +disagree  # drop the zero counts
    if disagree:
        print("DISAGREEMENTS FOUND", dict(disagree))
        return 1
    print("all checkers agree with the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
