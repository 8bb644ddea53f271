"""Exact random generators shared by the property tests and the acceptance
suite.

Everything is integer-based: a spectrum is a 4-part composition of a random
denominator, and a source/target pair admitting a valid slack decomposition
is built directly from integer slack values inside the feasible budget
(e1 + 2*e2 + e3 <= a2 - a3, e3 <= a4), so no rejection of generated pairs
is ever needed and all values are exact.
"""
from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from qcatalyst import CatalystSpectrum, Spectrum4, make_catalyst, make_spectrum, sweep_grid

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """Environment for a child Python that imports this checkout's package."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def composition4(rng: random.Random, total: int) -> tuple[int, int, int, int]:
    """Four nonnegative integers summing to ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])


def _pair_from_integers(
    parts: tuple[int, int, int, int], e1: int, e2: int, e3: int, d: int
) -> tuple[Spectrum4, Spectrum4]:
    a1, a2, a3, a4 = parts
    source = make_spectrum(Fraction(x, d) for x in parts)
    target = make_spectrum(
        Fraction(x, d) for x in (a1 + e1, a2 - e1 - e2, a3 + e2 + e3, a4 - e3)
    )
    return source, target


def random_star_pair(
    rng: random.Random,
    max_denominator: int = 60,
    force_eps1_zero: bool = False,
    force_eps3_zero: bool = False,
    feasible_leaning: bool = False,
) -> tuple[Spectrum4, Spectrum4]:
    """Canonical (source, target) admitting a valid slack decomposition.

    ``feasible_leaning`` draws a minimal eps2 and generous eps1/eps3, which
    lands in the catalyzable regime roughly a quarter of the time instead of
    a few percent; uniform draws rarely reach it.
    """
    while True:
        d = rng.randint(8, max_denominator)
        parts = tuple(sorted(composition4(rng, d), reverse=True))
        budget = parts[1] - parts[2]
        if budget < 2:
            continue
        if feasible_leaning:
            e2 = 1
            e1_cap = budget - 2
            e1 = rng.randint(e1_cap // 2, e1_cap) if e1_cap > 0 else 0
            e3_cap = min(parts[3], budget - 2 - e1)
            e3 = rng.randint((e3_cap + 1) // 2, e3_cap) if e3_cap > 0 else 0
        else:
            e2 = rng.randint(1, budget // 2)
            e1 = rng.randint(0, budget - 2 * e2)
            e3 = rng.randint(0, min(parts[3], budget - 2 * e2 - e1))
        if force_eps1_zero:
            e1 = 0
        if force_eps3_zero:
            e3 = 0
        return _pair_from_integers(parts, e1, e2, e3, d)


def p_grid(report, lattice_denominator: int) -> list[Fraction]:
    """The p values that referee a report: sweep_grid's lattice over [1/2, 1]
    (with the exact interval endpoints), plus one point just outside each
    end of the interval."""
    points = set(sweep_grid(lattice_denominator, report.p_interval))
    if report.p_interval is not None:
        low, high = report.p_interval
        points.add(low - min(Fraction(1, 997), low - Fraction(1, 2)) / 2)
        points.add(high + min(Fraction(1, 997), 1 - high) / 2)
    return sorted(points)


def satisfies_star(source: Spectrum4, target: Spectrum4) -> bool:
    """True iff the star pattern holds between the two canonical spectra.

    Checked directly on the spectra (not via epsilon_decompose) so the two
    formulations can be tested against each other.
    """
    return (
        source[0] <= target[0]
        and source[0] + source[1] > target[0] + target[1]
        and source[3] >= target[3]
    )


def reference_oracle(
    source: Spectrum4, target: Spectrum4, catalyst: CatalystSpectrum
) -> bool:
    """Whether source (x) catalyst is majorized by target (x) catalyst, in
    plain Fraction arithmetic on the public components: the products, one
    sort each, and partial sums compared as Fractions.  No integer form and
    no call into oracle or majorization, so it referees both."""
    def augmented_sums(state: Spectrum4) -> list[Fraction]:
        return list(accumulate(sorted((x * c for x in state for c in catalyst), reverse=True)))

    return all(x <= y for x, y in zip(augmented_sums(source), augmented_sums(target)))


def power_sums_allow_catalysis(source: Spectrum4, target: Spectrum4) -> bool:
    """Necessary conditions for source -> target with a catalyst of any size.

    If source (x) c is majorized by target (x) c, then sum(source_i**k) <=
    sum(target_i**k) for every integer k >= 2 (x**k is convex, and power sums
    multiply under the tensor product), and rank(source) >= rank(target).
    Computed from the spectra alone, with no call into catalysis or
    majorization, so it referees both.
    """
    def rank(state: Spectrum4) -> int:
        return sum(1 for x in state if x != 0)

    return rank(source) >= rank(target) and all(
        sum(x**k for x in source) <= sum(x**k for x in target) for k in range(2, 9)
    )


@st.composite
def spectra(draw, max_denominator: int = 48) -> Spectrum4:
    d = draw(st.integers(4, max_denominator))
    cuts = sorted(draw(st.integers(0, d)) for _ in range(3))
    parts = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
    return make_spectrum(Fraction(x, d) for x in parts)


@st.composite
def star_pairs(
    draw, max_denominator: int = 48, feasible_leaning: bool = False
) -> tuple[Spectrum4, Spectrum4]:
    """Hypothesis counterpart of random_star_pair, with the same
    ``feasible_leaning`` draw."""
    d = draw(st.integers(8, max_denominator))
    cuts = sorted(draw(st.integers(0, d)) for _ in range(3))
    parts = tuple(
        sorted((cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2]), reverse=True)
    )
    budget = parts[1] - parts[2]
    assume(budget >= 2)
    e1, e2, e3 = _draw_slacks(draw, budget, parts[3], feasible_leaning)
    return _pair_from_integers(parts, e1, e2, e3, d)


def _draw_slacks(draw, budget: int, e3_limit: int, feasible_leaning: bool):
    """Integer slacks (e1, e2, e3) with e1 + 2*e2 + e3 <= budget, e2 >= 1 and
    e3 <= e3_limit, drawn as random_star_pair draws them."""
    if feasible_leaning:
        e2 = 1
        e1 = draw(st.integers((budget - 2) // 2, budget - 2))
        e3_cap = min(e3_limit, budget - 2 - e1)
        e3 = draw(st.integers((e3_cap + 1) // 2, e3_cap))
    else:
        e2 = draw(st.integers(1, budget // 2))
        e1 = draw(st.integers(0, budget - 2 * e2))
        e3 = draw(st.integers(0, min(e3_limit, budget - 2 * e2 - e1)))
    return e1, e2, e3


@st.composite
def coprime_star_pairs(draw, feasible_leaning: bool = False) -> tuple[Spectrum4, Spectrum4]:
    """Star pair whose source lives over d1 and whose slacks live over d2,
    for coprime d1, d2 in [10**6, 10**7].  The target's components then need
    denominators up to d1*d2, so the two spectra share no small denominator
    and the feasible set's ends have large, unrelated denominators."""
    d1 = draw(st.integers(10**6, 10**7))
    d2 = draw(st.integers(10**6, 10**7))
    assume(math.gcd(d1, d2) == 1)
    cuts = sorted(draw(st.integers(0, d1)) for _ in range(3))
    parts = sorted((cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d1 - cuts[2]), reverse=True)
    # The slack budget and the cap on e3, in units of 1/d2.
    budget = (parts[1] - parts[2]) * d2 // d1
    assume(budget >= 2)
    e1, e2, e3 = _draw_slacks(draw, budget, parts[3] * d2 // d1, feasible_leaning)
    # Over d1*d2 the source is parts*d2 and each slack e is e*d1.
    scaled = tuple(x * d2 for x in parts)
    return _pair_from_integers(scaled, e1 * d1, e2 * d1, e3 * d1, d1 * d2)


@st.composite
def catalysts(draw, max_length: int = 5, max_denominator: int = 10**7) -> CatalystSpectrum:
    """A catalyst of 1 to max_length components over one denominator of up
    to max_denominator."""
    d = draw(st.integers(1, max_denominator))
    cuts = sorted(draw(st.lists(st.integers(0, d), max_size=max_length - 1)))
    return make_catalyst(Fraction(b - a, d) for a, b in zip([0, *cuts], [*cuts, d]))


@st.composite
def catalyst_params(draw, max_denominator: int = 40) -> Fraction:
    """Exact p in [1/2, 1]."""
    d = draw(st.integers(1, max_denominator))
    k = draw(st.integers(math.ceil(d / 2), d))
    return Fraction(k, d)
