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
import sys
import time
from pathlib import Path

# The pair generator and the p grid are the test suite's, so both check the
# same points; the package is this checkout's, put first.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qcatalyst import (  # noqa: E402
    Verdict,
    analyze,
    is_valid_catalyst,
    oracle_valid_catalyst,
    two_qubit_catalyst,
)
from support import p_grid, random_star_pair  # noqa: E402

# Largest spectrum denominator of a random pair, and the p-lattice
# denominator of the grid: the values of the acceptance suite's criterion 5.
MAX_DENOMINATOR = 60
GRID_DENOMINATOR = 38


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    verdicts = {verdict: 0 for verdict in Verdict}
    checks = disagreements = 0
    started = time.perf_counter()
    for _ in range(args.pairs):
        source, target = random_star_pair(rng, MAX_DENOMINATOR)
        report = analyze(source, target)
        verdicts[report.verdict] += 1
        for p in p_grid(report, GRID_DENOMINATOR):
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
