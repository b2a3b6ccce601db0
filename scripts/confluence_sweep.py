#!/usr/bin/env python3
"""Sweep the confluence verifier across the stock fixtures.

Prints one row per graph: overlap count, unresolved count, random-piling
divergences, and the wall time of each phase, the critical pairs and the
strategy independence.  Slower and wider than the acceptance run when
asked (bounds and sample counts are flags); ``--samples`` has the bounds
of ``trickle confluence --samples``, and both counts are refused before
any graph is built.
"""

import random
import time

from trickle import confluence as conf
from trickle.cli import _check_samples, _fail, _Parser
from trickle.families import FIXTURES, fixture
from trickle.graph import GraphError


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("names", nargs="*", default=[], help="fixture names (default: all)")
    ap.add_argument("--max-support", type=int, default=3)
    ap.add_argument("--max-exp", type=int, default=2)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--strategies", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    _check_samples(args.samples)
    if args.strategies < 1:
        _fail(f"--strategies {args.strategies} is below 1")
    try:
        graphs = [(name, fixture(name)) for name in args.names or sorted(FIXTURES)]
    except GraphError as e:
        _fail(e)

    print(f"{'fixture':10} {'pairs':>10} {'unresolved':>10} {'pairs_s':>8} {'samples':>8} "
          f"{'divergent':>9} {'samples_s':>9}")
    bad = 0
    for name, g in graphs:
        try:
            t0 = time.perf_counter()
            pairs = conf.check_critical_pairs(g, args.max_support, args.max_exp)
            t1 = time.perf_counter()
            sampled = conf.check_strategy_independence(
                g, random.Random(args.seed), pilings=args.samples,
                strategies=args.strategies, max_support=args.max_support,
                max_exp=args.max_exp)
        except GraphError as e:
            _fail(e)
        t2 = time.perf_counter()
        print(f"{name:10} {pairs.pairs_checked:>10} {len(pairs.failures):>10} {t1 - t0:>8.2f} "
              f"{sampled.samples_checked:>8} {len(sampled.sample_failures):>9} "
              f"{t2 - t1:>9.2f}")
        if not (pairs.ok and sampled.ok):
            bad += 1
            print(pairs.describe())
            print(sampled.describe())
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
