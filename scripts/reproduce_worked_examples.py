#!/usr/bin/env python3
"""Run the bundled worked examples end to end and print exact reports.

Covers the catalyzable pair (feasible interval plus a specific working
catalyst), the infeasible pair (empty interval confirmed by a sweep), and
the constructed 81/160 family with pinned mu = 1/10.
"""
import sys
from fractions import Fraction as F
from pathlib import Path

# This checkout's package, put first.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qcatalyst import (  # noqa: E402
    analyze,
    compute_M,
    compute_m,
    construct_states,
    epsilon_decompose,
    is_valid_catalyst,
    make_catalyst,
    make_spectrum,
    oracle_valid_catalyst,
    render_rational,
    sweep,
    sweep_grid,
)


def show(label, values):
    print(f"  {label}: ({', '.join(render_rational(v) for v in values)})")


def report_pair(name, source, target):
    print(f"== {name} ==")
    show("source", source)
    show("target", target)
    report = analyze(source, target)
    print(f"  verdict: {report.verdict.value}")
    if report.m is not None:
        print(f"  m = {render_rational(report.m)}, M = {render_rational(report.M)}")
    if report.p_interval is not None:
        low, high = report.p_interval
        print(f"  feasible p: [{render_rational(low)}, {render_rational(high)}]")
    return report


def main():
    source = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
    target = make_spectrum(["0.5", "0.25", "0.25", "0"])
    report_pair("catalyzable pair", source, target)
    catalyst = make_catalyst(["0.6", "0.4"])
    print(
        "  catalyst (3/5, 2/5): interval says",
        is_valid_catalyst(source, target, F(3, 5)),
        "/ oracle says",
        oracle_valid_catalyst(source, target, catalyst),
    )
    print()

    source = make_spectrum(["0.45", "0.45", "0.05", "0.05"])
    target = make_spectrum(["0.5", "0.35", "0.15", "0"])
    report_pair("infeasible pair", source, target)
    verdicts = sweep(source, target, sweep_grid(1000))
    print(f"  sweep d=1000: {sum(ok for _, ok in verdicts)} valid of {len(verdicts)} grid points")
    print()

    print("== construction for bounds (2/3, 1/3), mu pinned to 1/10 ==")
    result = construct_states(F(2, 3), F(1, 3), mu=F(1, 10))
    print(f"  branch {result.branch.value}, a = {render_rational(result.a)}")
    show("source", result.source)
    show("target", result.target)
    eps = epsilon_decompose(result.source, result.target)
    show("epsilon", (eps.eps1, eps.eps2, eps.eps3))
    print(
        "  recomputed bounds:",
        render_rational(compute_m(result.source, eps)),
        render_rational(compute_M(result.source, eps)),
    )


if __name__ == "__main__":
    main()
