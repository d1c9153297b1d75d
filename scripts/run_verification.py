"""Run the randomized verification campaign from the command line.

Exercises every distributional check in vconway.verify at a configurable
scale: move invariance of the normalized polynomial, kink factors, the
skein relation, multiplicativity under disjoint union, the determinant
route to c0, the c0 theorems, Vassiliev order bounds, and the vanishing
of the extended invariants on singular diagrams.

Pass --mutate to negate one entry of the negative-crossing block and
watch the harness catch it; useful as a self-test of the checks.

Exit status 0 when every non-informational check passes, 1 otherwise.
"""

import argparse
import sys
import time

from vconway.invariants import NEG_BLOCK, POS_BLOCK
from vconway.verify import check_singular_orders, run_campaign


def _mutated_blocks():
    # flip the sign of every entry of the negative block: a wrong inverse
    neg = tuple(tuple(-e for e in row) for row in NEG_BLOCK)
    return {1: POS_BLOCK, -1: neg}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=500,
                    help="random diagrams per check (default 500)")
    ap.add_argument("--moves", type=int, default=50,
                    help="steps per random move walk (default 50)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--singular-trials", type=int, default=200,
                    help="singular diagrams for the extended-invariant checks")
    ap.add_argument("--mutate", action="store_true",
                    help="corrupt the negative-crossing block to confirm detection")
    args = ap.parse_args(argv)
    if args.moves < 0:
        ap.error(f"--moves must be non-negative, got {args.moves}")

    blocks = _mutated_blocks() if args.mutate else None
    t0 = time.perf_counter()

    results = run_campaign(args.trials, args.moves, args.seed, blocks=blocks)
    results += check_singular_orders(args.singular_trials, args.seed,
                                     classical=4, components=1, doubles=1,
                                     blocks=blocks)
    results += check_singular_orders(args.singular_trials, args.seed + 1,
                                     classical=4, components=1, doubles=2,
                                     blocks=blocks)

    for r in results:
        print(r.line())
        for ex in r.examples:
            print(f"    counterexample: {ex}")

    elapsed = time.perf_counter() - t0
    bad = [r for r in results if not r.passed]
    print(f"-- {len(results)} checks, {len(bad)} failing, {elapsed:.1f}s")
    if args.mutate:
        print("mutation was requested:",
              "detected" if bad else "NOT detected (this is a problem)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
