#!/usr/bin/env python3
"""Confront the boundary-search model checker with the assignment-enumeration
oracle over random inverse-closed generator sets, reporting verdict counts
and counterexample replay results.  A check whose oracle assignment space
exceeds ``DEFAULT_BUDGET`` (``oracle_models`` raises LimitExceeded) is skipped
and counted.

Example:
    python3 scripts/model_check_sweep.py --degrees 2 3 4 --count 200
"""

import argparse
import random
import sys
import time

from pbsg import LimitExceeded, models, oracle_models, parse_identity
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--count", type=int, default=200, help="sets per degree")
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--identities", nargs="*", default=DEFAULT_IDENTITIES)
    args = parser.parse_args(argv)

    idents = [(text, parse_identity(text)) for text in args.identities]
    start = time.perf_counter()
    disagreements = []
    replay_failures = []
    skipped = 0
    verdicts = {text: [0, 0] for text, _ in idents}

    for n in args.degrees:
        rng = random.Random(args.seed + 100 * n)
        for _ in range(args.count):
            gens = random_generator_set(rng, n, rng.randint(1, args.max_k),
                                        inverse_closed=True)
            for text, ident in idents:
                try:
                    slow = oracle_models(gens, ident)
                except LimitExceeded:
                    skipped += 1
                    continue
                fast = models(gens, ident)
                verdicts[text][0 if fast.models else 1] += 1
                if fast.models != slow.models:
                    disagreements.append((text, [g.to_text() for g in gens.generators]))
                if not fast.models:
                    _, lhs, rhs = counterexample_values(fast.generators, ident,
                                                        fast.counterexample)
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
