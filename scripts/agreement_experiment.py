#!/usr/bin/env python3
"""Randomized agreement experiment: interval rule vs brute-force oracle.

Generates exact random source/target pairs admitting a valid slack
decomposition, then compares is_valid_catalyst against the oracle on a p
grid that always includes the exact interval endpoints and points just
outside them.  Any disagreement would falsify the interval rule; the
expected output is zero.
"""
import argparse
import random
import time
from fractions import Fraction as F

from qcatalyst import (
    Verdict,
    analyze,
    is_valid_catalyst,
    make_spectrum,
    oracle_valid_catalyst,
    sweep_grid,
    two_qubit_catalyst,
)
from qcatalyst.rationals import HALF


def random_pair(rng, max_denominator):
    while True:
        d = rng.randint(8, max_denominator)
        cuts = sorted(rng.randint(0, d) for _ in range(3))
        parts = sorted(
            (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2]), reverse=True
        )
        a1, a2, a3, a4 = parts
        budget = a2 - a3
        if budget < 2:
            continue
        e2 = rng.randint(1, budget // 2)
        e1 = rng.randint(0, budget - 2 * e2)
        e3 = rng.randint(0, min(a4, budget - 2 * e2 - e1))
        source = make_spectrum(F(x, d) for x in parts)
        target = make_spectrum(
            F(x, d) for x in (a1 + e1, a2 - e1 - e2, a3 + e2 + e3, a4 - e3)
        )
        return source, target


def p_grid(report, lattice_denominator):
    points = set(sweep_grid(lattice_denominator, report.p_interval))
    if report.p_interval is not None:
        low, high = report.p_interval
        points.add(low - min(F(1, 997), low - HALF) / 2)
        points.add(high + min(F(1, 997), 1 - high) / 2)
    return sorted(points)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-denominator", type=int, default=60)
    parser.add_argument("--grid-denominator", type=int, default=38)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    verdicts = {verdict: 0 for verdict in Verdict}
    checks = disagreements = 0
    started = time.perf_counter()
    for _ in range(args.pairs):
        source, target = random_pair(rng, args.max_denominator)
        report = analyze(source, target)
        verdicts[report.verdict] += 1
        for p in p_grid(report, args.grid_denominator):
            predicted = is_valid_catalyst(source, target, p)
            actual = oracle_valid_catalyst(source, target, two_qubit_catalyst(p))
            checks += 1
            if predicted != actual:
                disagreements += 1
                print(f"DISAGREEMENT source={source.alpha} target={target.alpha} p={p}")
    elapsed = time.perf_counter() - started

    print(f"pairs: {args.pairs} (seed {args.seed})")
    for verdict, count in verdicts.items():
        print(f"  {verdict.value}: {count}")
    print(f"checks: {checks}, disagreements: {disagreements}, time: {elapsed:.1f} s")
    return 1 if disagreements else 0


if __name__ == "__main__":
    raise SystemExit(main())
