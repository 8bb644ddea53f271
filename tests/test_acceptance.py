"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete (without -s they still show for failures).  All equalities are
exact; runtime ceilings are asserted where stated.
"""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from time import perf_counter

import pytest

from qcatalyst import (
    Branch,
    Verdict,
    analyze,
    augment,
    closed_form_lambda_prime,
    compute_M,
    compute_m,
    construct_states,
    epsilon_decompose,
    is_valid_catalyst,
    make_catalyst,
    make_spectrum,
    oracle_valid_catalyst,
    partial_sums,
    sweep,
    sweep_grid,
    two_qubit_catalyst,
)

from support import p_grid, random_star_pair

F = Fraction

CAT_SOURCE = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
CAT_TARGET = make_spectrum(["0.5", "0.25", "0.25", "0"])
HARD_SOURCE = make_spectrum(["0.45", "0.45", "0.05", "0.05"])
HARD_TARGET = make_spectrum(["0.5", "0.35", "0.15", "0"])

_DETAILS: dict[int, str] = {}


def criterion(number: int, summary: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {summary}")
                raise
            extra = _DETAILS.pop(number, "")
            print(f"criterion {number}: PASS - {summary}{extra}")

        return wrapper

    return decorate


def _detail(number: int, text: str) -> None:
    _DETAILS[number] = f" ({text})"


@pytest.fixture(scope="module")
def star_pair_corpus():
    # Uniform draws land in the catalyzable regime only a few percent of the
    # time; mix in feasibility-leaning draws so the interval endpoints get
    # exercised on the order of a thousand times.
    rng = random.Random(20260808)
    corpus = [random_star_pair(rng, max_denominator=60) for _ in range(6_000)]
    corpus.extend(
        random_star_pair(rng, max_denominator=60, feasible_leaning=True)
        for _ in range(4_000)
    )
    return corpus


@criterion(1, "catalyzable worked example: exact bounds, interval, and catalyst")
def test_criterion_1_worked_example():
    analyze.cache_clear()
    started = perf_counter()
    report = analyze(CAT_SOURCE, CAT_TARGET)
    elapsed = perf_counter() - started
    assert report.verdict is Verdict.CATALYZABLE
    assert report.m == F(3, 5)
    assert report.M == F(2, 3)
    assert report.p_interval == (F(3, 5), F(5, 8))
    assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(3, 5)) is True
    assert oracle_valid_catalyst(CAT_SOURCE, CAT_TARGET, make_catalyst(["0.6", "0.4"])) is True
    assert elapsed < 0.001
    _detail(1, f"analyze took {elapsed * 1e6:.0f} us")


@criterion(2, "infeasible worked example: exact bounds, full d=1000 sweep false")
def test_criterion_2_infeasible_example():
    report = analyze(HARD_SOURCE, HARD_TARGET)
    assert report.verdict is Verdict.INFEASIBLE
    assert report.m == F(1)
    assert report.M == F(1, 4)
    started = perf_counter()
    results = sweep(HARD_SOURCE, HARD_TARGET, sweep_grid(1000))
    elapsed = perf_counter() - started
    assert len(results) >= 501
    assert all(valid is False for _, valid in results)
    assert elapsed < 1.0
    _detail(2, f"{len(results)} grid points in {elapsed:.2f} s")


@criterion(3, "manual partial-sum computations reproduced exactly")
def test_criterion_3_manual_partial_sums():
    # Above the crossover 10/17 the second sums decide: 9p/10 vs 17p/20.
    p = F(7, 10)
    assert p > F(10, 17)
    source_sums = partial_sums(augment(HARD_SOURCE, two_qubit_catalyst(p)))
    target_sums = partial_sums(augment(HARD_TARGET, two_qubit_catalyst(p)))
    assert source_sums[1] == F(9, 10) * p == F(63, 100)
    assert target_sums[1] == F(17, 20) * p == F(119, 200)
    assert source_sums[1] > target_sums[1]

    # At or below the crossover the fourth sums decide: 9/10 vs 17/20.
    p = F(11, 20)
    assert F(1, 2) <= p <= F(10, 17)
    source_sums = partial_sums(augment(HARD_SOURCE, two_qubit_catalyst(p)))
    target_sums = partial_sums(augment(HARD_TARGET, two_qubit_catalyst(p)))
    assert source_sums[3] == F(9, 10)
    assert target_sums[3] == F(17, 20)
    assert source_sums[3] > target_sums[3]


@criterion(4, "construction example: exact spectra, slack values, round-trip")
def test_criterion_4_construction_example():
    result = construct_states(F(2, 3), F(1, 3), mu=F(1, 10))
    assert result.branch is Branch.M0_LE_1
    assert result.a == F(9, 16)
    assert result.source.alpha == (F(81, 160), F(45, 160), F(22, 160), F(12, 160))
    assert result.target.alpha == (F(90, 160), F(30, 160), F(30, 160), F(10, 160))
    eps = epsilon_decompose(result.source, result.target)
    assert (eps.eps1, eps.eps2, eps.eps3) == (F(9, 160), F(6, 160), F(2, 160))
    assert compute_m(result.source, eps) == F(2, 3)
    assert compute_M(result.source, eps) == F(1, 3)


@criterion(5, "interval rule equals brute-force oracle on 10,000 random pairs")
def test_criterion_5_theorem_oracle_equivalence(star_pair_corpus):
    started = perf_counter()
    checks = 0
    assert len(star_pair_corpus) >= 10_000
    for source, target in star_pair_corpus:
        report = analyze(source, target)
        # Denominator 38 puts 20 lattice points on [1/2, 1].
        grid = p_grid(report, 38)
        assert len(grid) >= 20
        for p in grid:
            predicted = is_valid_catalyst(source, target, p)
            actual = oracle_valid_catalyst(source, target, two_qubit_catalyst(p))
            assert predicted == actual, (
                f"disagreement: source={source.alpha} target={target.alpha} p={p} "
                f"interval={predicted} oracle={actual}"
            )
            checks += 1
    elapsed = perf_counter() - started
    assert elapsed < 60.0
    _detail(5, f"{checks} checks, 0 disagreements, {elapsed:.1f} s")


@criterion(6, "closed-form partial sums equal sorted oracle sums at feasible p")
def test_criterion_6_closed_form_consistency(star_pair_corpus):
    pairs = 0
    checks = 0
    for source, target in star_pair_corpus:
        report = analyze(source, target)
        if report.verdict is not Verdict.CATALYZABLE:
            continue
        pairs += 1
        eps = epsilon_decompose(source, target)
        low, high = report.p_interval
        for p in p_grid(report, 38):
            if not low <= p <= high:
                continue
            expected = partial_sums(augment(target, two_qubit_catalyst(p)))
            assert closed_form_lambda_prime(target, eps, p) == expected
            checks += 1
    assert pairs > 0 and checks >= 2 * pairs
    _detail(6, f"{pairs} catalyzable pairs, {checks} feasible p values")


@criterion(7, "constructor round-trip exact on 1,000 random bound targets")
def test_criterion_7_constructor_round_trip():
    rng = random.Random(46116)
    started = perf_counter()
    branches = set()
    for _ in range(1000):
        m0_den = rng.randint(1, 24)
        m0 = F(rng.randint(1, 10 * m0_den), m0_den)
        big_den = rng.randint(2, 24)
        big = F(rng.randint(1, big_den - 1), big_den)
        result = construct_states(m0, big)
        branches.add(result.branch)
        for spectrum in (result.source, result.target):
            assert all(a >= 0 for a in spectrum)
            assert all(spectrum[i] >= spectrum[i + 1] for i in range(3))
            assert sum(spectrum.alpha) == 1
        eps = epsilon_decompose(result.source, result.target)
        assert compute_m(result.source, eps) == m0
        assert compute_M(result.source, eps) == big
    elapsed = perf_counter() - started
    assert branches == {Branch.M0_LE_1, Branch.M0_GT_1}
    assert elapsed < 10.0
    _detail(7, f"both branches exercised, {elapsed:.1f} s")


@criterion(8, "zero slack on either end forces infeasibility, confirmed by sweep")
def test_criterion_8_slack_necessity():
    rng = random.Random(99173)
    grid = sweep_grid(200)
    for force in ("eps1", "eps3"):
        for _ in range(1000):
            source, target = random_star_pair(
                rng,
                max_denominator=60,
                force_eps1_zero=(force == "eps1"),
                force_eps3_zero=(force == "eps3"),
            )
            report = analyze(source, target)
            assert report.verdict is Verdict.INFEASIBLE
            assert all(not valid for _, valid in sweep(source, target, grid))
    _detail(8, "2,000 forced pairs, no valid catalyst anywhere")
