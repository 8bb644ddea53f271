"""Brute-force ground truth: augmented spectra and direct majorization checks.

Pairing a state with a catalyst multiplies every state coefficient by every
catalyst coefficient; the catalytic conversion is possible exactly when the
augmented source spectrum is majorized by the augmented target spectrum.
Nothing here knows about the ratio-interval theorem, which is the point:
this module is the independent referee the interval machinery is validated
against.

For the two-qubit catalyst (p, 1-p) the referee's whole answer is a finite
set of closed intervals, found exactly.  The descending order of the eight
products x*p and x*(1-p) changes only where x*p = y*(1-p), at p = y/(x+y)
for two components x, y of the same spectrum.  Between consecutive such
breakpoints the order is fixed, so every sorted partial sum, and every
target-minus-source difference of them, is linear in p.  Evaluating the
differences at the breakpoints and solving the linear inequalities on each
cell gives the feasible set without trusting any formula for m or M.
Every breakpoint, gap and root is an int or an int pair (numerator,
denominator); feasible_p_set makes a Fraction only of each end it returns.
The two spectra are put over one denominator once per call, so each gap
term at a breakpoint is a difference of two products, with no rescaling.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, product, starmap
from math import gcd
from operator import mul

from .majorization import is_majorized_by
from .rationals import ratio_key, value_text
from .spectra import (
    AugmentedSpectrum,
    CatalystSpectrum,
    Spectrum4,
    _set_scaled,
    _two_qubit_parameter,
)

# Sorted disjoint closed intervals (lo, hi) of p; lo == hi for a lone point.
PSet = tuple[tuple[Fraction, Fraction], ...]
# A rational n/d as the int pair (n, d), d > 0.
Ratio = tuple[int, int]

# Largest grid denominator sweep_grid accepts.  The grid holds d/2 points; a
# CLI sweep at d = 100,000 takes 0.19-0.28 s as a process (CPython 3.11.7,
# x86_64, 2 cores, no .pyc files), of which the call itself is about 45 ms.
MAX_GRID_DENOMINATOR = 100_000
_DENOMINATOR_RULE = f"grid denominator must be a positive integer up to {MAX_GRID_DENOMINATOR}"


def augment(state: Spectrum4, catalyst: CatalystSpectrum) -> AugmentedSpectrum:
    """All products state[i] * catalyst[j], sorted descending (on the ints)."""
    (alpha, den_a), (kappa, den_k) = state.scaled, catalyst.scaled
    # The products sorted here and the value built by its slot's setter: no
    # Python frame but this one per augmented spectrum.
    products = tuple(sorted(starmap(mul, product(alpha, kappa)), reverse=True))
    _set_scaled(augmented := object.__new__(AugmentedSpectrum), (products, den_a * den_k))
    return augmented


def oracle_valid_catalyst(
    source: Spectrum4, target: Spectrum4, catalyst: CatalystSpectrum
) -> bool:
    """Direct check that the catalyst enables the transformation.

    Catalysts of any length are accepted; lengths other than 2 are outside
    the interval theorem and serve empirical exploration only.
    """
    return is_majorized_by(augment(source, catalyst), augment(target, catalyst))


def _sum_gaps(alpha: Sequence[int], beta: Sequence[int], p: Ratio) -> list[int]:
    """Target minus source partial sums of two spectra augmented by (p, 1-p),
    for alpha and beta the source's and the target's numerators over one
    denominator D and p = n/q as the int pair (n, q), as numerators over
    D * q; the oracle accepts p exactly when none is negative."""
    kappa = (p[0], p[1] - p[0])
    source = sorted(starmap(mul, product(alpha, kappa)), reverse=True)
    target = sorted(starmap(mul, product(beta, kappa)), reverse=True)
    return list(accumulate([t - s for s, t in zip(source, target)]))


def _p_set(source: Spectrum4, target: Spectrum4) -> tuple[tuple[Ratio, Ratio], ...]:
    """feasible_p_set on the ints: each piece as ((ln, ld), (hn, hd)), every
    denominator positive; an end that is a root need not be in lowest terms.

    The breakpoints are 1/2, 1 and the crossings y/(x+y) of each spectrum,
    reduced.  Both spectra are put over den_s * den_t once, so each gap
    term at a breakpoint is one difference.  Each partial-sum gap is linear
    between consecutive breakpoints a and b, so on that cell its sign
    follows from its values at the two ends, _sum_gaps numerators over one
    factor times a's and b's denominators.
    """
    (s, den_s), (t, den_t) = source.scaled, target.scaled
    points = {(1, 2), (1, 1)}
    for nums in (s, t):
        points.update((y // g, (x + y) // g) for x in nums for y in nums if 0 < x < y
                      for g in [gcd(x, y)])
    points = sorted(points, key=ratio_key)
    alpha, beta = [x * den_t for x in s], [y * den_s for y in t]
    gaps = [_sum_gaps(alpha, beta, p) for p in points]
    pieces: list[tuple[Ratio, Ratio]] = []
    for (an, ad), (bn, bd), gaps_a, gaps_b in zip(points, points[1:], gaps, gaps[1:]):
        lo, hi = (an, ad), (bn, bd)
        for x, y in zip(gaps_a, gaps_b):
            if x < 0 and y < 0:
                break
            if (x < 0) != (y < 0):
                # The gap, x/ad at a and y/bd at b over one factor, is zero at
                # a + (b - a) x bd / (x bd - y ad) = (bn x - an y) / (x bd - y ad),
                # whose denominator has the sign of x.  A tie keeps the cell's end.
                num, den = bn * x - an * y, x * bd - y * ad
                if x < 0:
                    lo = max(lo, (-num, -den), key=ratio_key)
                else:
                    hi = min(hi, (num, den), key=ratio_key)
        else:
            # A part that meets the last piece (in value; the pairs may
            # differ) joins it.  It starts at a, and no root is below a, so
            # it is not empty.
            if pieces and ratio_key(pieces[-1][1]) == ratio_key(lo):
                pieces[-1] = (pieces[-1][0], hi)
            elif ratio_key(lo) <= ratio_key(hi):
                pieces.append((lo, hi))
    return tuple(pieces)


def feasible_p_set(source: Spectrum4, target: Spectrum4) -> PSet:
    """Every p in [1/2, 1] at which oracle_valid_catalyst accepts (p, 1-p).

    Returns sorted, disjoint closed intervals (lo, hi), with lo == hi for an
    isolated point, and () when no two-qubit catalyst helps.  Exact: it is
    _p_set's pieces, found on the ints (see the module docstring), with a
    Fraction built for each end it returns and for nothing else.
    """
    return tuple((Fraction(*lo), Fraction(*hi)) for lo, hi in _p_set(source, target))


def p_set_verdicts(pieces: Sequence[tuple[Ratio, Ratio]], points: Iterable[Ratio]) -> list[bool]:
    """Whether each p = n/q of points, given as int pairs with q > 0, lies
    in pieces (a _p_set result); exact, on the ints: lo <= n/q <= hi, with
    every denominator positive."""
    return [any(ln * q <= n * ld and n * hd <= hn * q for (ln, ld), (hn, hd) in pieces)
            for n, q in points]


def sweep(
    source: Spectrum4, target: Spectrum4, grid: Sequence[Fraction]
) -> list[tuple[Fraction, bool]]:
    """Oracle verdicts for the two-qubit catalyst (p, 1-p) at each grid p.

    Each verdict is membership in the feasible set (_p_set), computed
    once per call, so it equals oracle_valid_catalyst at that p.  Results
    come back in grid order, each with p as given; the grid may be in any
    order.  Raises ValueError for a grid value outside [1/2, 1].
    """
    points = [_two_qubit_parameter(p) for p in grid]  # raises outside [1/2, 1]
    return list(zip(grid, p_set_verdicts(_p_set(source, target), points)))


def _grid_layout(denominator: int, ends: Iterable[tuple[int, int]]) -> tuple[int, list]:
    """sweep_grid's points, laid out on the ints: the lattice k/denominator
    for k from first to denominator, ascending, and each point a/b off it
    (1/2 and the ends, reduced int pairs, read after the denominator is
    checked) as (index, a, b), to be inserted at its index in list order."""
    # type(), not isinstance: bool is an int subclass, and True is not a
    # denominator of 1.
    if type(denominator) is not int or not 1 <= denominator <= MAX_GRID_DENOMINATOR:
        shown = value_text(denominator) if type(denominator) is int else repr(denominator)
        raise ValueError(f"{_DENOMINATOR_RULE}, got {shown}")
    first = -(-denominator // 2)
    # An extra a/b off the lattice (b does not divide the denominator) has
    # ceil(a*d/b) - first lattice points below it; inserting the largest
    # first leaves the smaller ones' indices as they are.
    extras = sorted({(1, 2), *ends}, key=ratio_key, reverse=True)
    return first, [(-(-a * denominator // b) - first, a, b) for a, b in extras if denominator % b]


def sweep_grid(
    denominator: int = 1000,
    p_interval: tuple[Fraction, Fraction] | None = None,
) -> list[Fraction]:
    """Default sweep grid: the lattice k/denominator within [1/2, 1], plus
    the domain boundary 1/2 itself (1 = denominator/denominator is on it).

    When a feasible p-interval is known, its exact endpoints are merged in:
    the endpoints are where a disagreement between the interval machinery
    and the oracle would hide.  Raises ValueError unless the denominator is
    an int from 1 to MAX_GRID_DENOMINATOR; an end raises what
    two_qubit_catalyst raises for it (outside [1/2, 1], or a string's parse
    error, which starts with "p: ").
    """
    first, extras = _grid_layout(denominator, map(_two_qubit_parameter, p_interval or ()))
    grid = [Fraction(k, denominator) for k in range(first, denominator + 1)]
    for index, a, b in extras:
        grid.insert(index, Fraction(a, b))
    return grid
