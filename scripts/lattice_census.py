#!/usr/bin/env python3
"""Exhaustive census of the interval rule against the brute-force oracle.

Every canonical four-component spectrum over a denominator D is a partition
of D into at most 4 parts.  For each D up to D_MAX, every ordered pair of
distinct such spectra is checked three ways, exactly:

- the verdict of analyze against locc_possible (Nielsen's criterion);
- feasible_p_set against ((1/2, 1),) when LOCC already works;
- feasible_p_set against (p_interval,) when the pair is catalyzable, and
  against () otherwise.

With --mixed the source and the target may have different denominators: row
D then holds the pairs of distinct spectra whose larger denominator, in
lowest terms, is D.  One row is printed per D, then the totals; the exit
status is 2 on any disagreement, else 0:

    python3 scripts/lattice_census.py 16
    python3 scripts/lattice_census.py 9 --mixed
"""
import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

# This checkout's package, put first.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qcatalyst import (  # noqa: E402
    StarViolation,
    Verdict,
    analyze,
    feasible_p_set,
    locc_possible,
    make_spectrum,
)

COLUMNS = ("pairs", "locc", "catalyzable", "star_violated", "interval_empty",
           "isolated_points", "disagreements")


def partitions4(total: int):
    """Every (a1, a2, a3, a4) with a1 >= a2 >= a3 >= a4 >= 0 summing to total."""
    for a1 in range(total, -1, -1):
        for a2 in range(min(a1, total - a1), -1, -1):
            for a3 in range(min(a2, total - a1 - a2), -1, -1):
                if total - a1 - a2 - a3 <= a3:
                    yield a1, a2, a3, total - a1 - a2 - a3


def spectra_over(denominator: int) -> list:
    return [make_spectrum([Fraction(a, denominator) for a in parts])
            for parts in partitions4(denominator)]


def tally(pairs) -> dict:
    """The census row of the (source, target) pairs."""
    row = dict.fromkeys(COLUMNS, 0)
    for source, target in pairs:
        report = analyze(source, target)
        pieces = feasible_p_set(source, target)
        verdict = report.verdict
        if verdict is Verdict.LOCC_ALREADY_POSSIBLE:
            expected = ((Fraction(1, 2), Fraction(1)),)
        elif verdict is Verdict.CATALYZABLE:
            expected = (report.p_interval,)
        else:
            expected = ()
        is_locc = verdict is Verdict.LOCC_ALREADY_POSSIBLE
        row["pairs"] += 1
        row["locc"] += is_locc
        row["catalyzable"] += verdict is Verdict.CATALYZABLE
        row["star_violated"] += isinstance(report.star_violation, StarViolation)
        row["interval_empty"] += verdict is Verdict.INFEASIBLE and report.star_violation is None
        row["isolated_points"] += any(lo == hi for lo, hi in pieces)
        row["disagreements"] += pieces != expected or is_locc != locc_possible(source, target)
    return row


def census(d_max: int, mixed: bool = False):
    """Yield (D, row) for D = 1 .. d_max."""
    seen = []  # with --mixed, every spectrum over a smaller denominator
    for denominator in range(1, d_max + 1):
        spectra = spectra_over(denominator)
        if not mixed:
            yield denominator, tally((s, t) for s in spectra for t in spectra if s != t)
            continue
        new = [s for s in spectra if s.scaled[1] == denominator]
        pairs = [(s, t) for s in new for t in new if s != t]
        pairs += [pair for s in new for t in seen for pair in ((s, t), (t, s))]
        seen += new
        yield denominator, tally(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("d_max", metavar="D_MAX", type=int, help="largest denominator")
    parser.add_argument("--mixed", action="store_true",
                        help="pair spectra over different denominators too")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    totals = dict.fromkeys(COLUMNS, 0)
    print(" ".join(["D", *COLUMNS]))
    for denominator, row in census(args.d_max, args.mixed):
        print(" ".join(map(str, [denominator, *row.values()])))
        for key, value in row.items():
            totals[key] += value
    print(" ".join(map(str, ["total", *totals.values()])))
    print(f"time: {time.perf_counter() - start:.2f} s")
    return 2 if totals["disagreements"] else 0


if __name__ == "__main__":
    sys.exit(main())
