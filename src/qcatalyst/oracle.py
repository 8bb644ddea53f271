"""Brute-force ground truth: augmented spectra and direct majorization checks.

Pairing a state with a catalyst multiplies every state coefficient by every
catalyst coefficient; the catalytic conversion is possible exactly when the
augmented source spectrum is majorized by the augmented target spectrum.
Nothing here knows about the ratio-interval theorem, which is the point:
this module is the independent referee the interval machinery is validated
against.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Optional, Sequence

from .majorization import is_majorized_by
from .rationals import HALF
from .spectra import CatalystSpectrum, Spectrum4, two_qubit_catalyst

# 4n products of state and catalyst coefficients, sorted descending.
AugmentedSpectrum = tuple[Fraction, ...]

# Largest grid denominator sweep_grid accepts; d = 100,000 already takes
# seconds to sweep, and the grid holds d/2 Fractions.
MAX_GRID_DENOMINATOR = 100_000


def augment(state: Spectrum4, catalyst: CatalystSpectrum) -> AugmentedSpectrum:
    """All products state[i] * catalyst[j], sorted descending (on the ints)."""
    (alpha, den_a), (kappa, den_k) = state.scaled, catalyst.scaled
    products = sorted([a * k for a in alpha for k in kappa], reverse=True)
    return tuple([Fraction(n, den_a * den_k) for n in products])


def oracle_valid_catalyst(
    source: Spectrum4, target: Spectrum4, catalyst: CatalystSpectrum
) -> bool:
    """Direct check that the catalyst enables the transformation.

    Catalysts of any length are accepted; lengths other than 2 are outside
    the interval theorem and serve empirical exploration only.
    """
    return is_majorized_by(augment(source, catalyst), augment(target, catalyst))


def sweep(
    source: Spectrum4, target: Spectrum4, grid: Sequence[Fraction]
) -> list[tuple[Fraction, bool]]:
    """Oracle verdicts for the two-qubit catalyst (p, 1-p) at each grid p.

    Results come back in grid order.  Raises ValueError for a grid value
    outside [1/2, 1].
    """
    return [(p, oracle_valid_catalyst(source, target, two_qubit_catalyst(p))) for p in grid]


def sweep_grid(
    denominator: int = 1000,
    p_interval: Optional[tuple[Fraction, Fraction]] = None,
) -> list[Fraction]:
    """Default sweep grid: the lattice k/denominator within [1/2, 1], plus
    the domain boundary 1/2 itself (1 = denominator/denominator is on it).

    When a feasible p-interval is known, its exact endpoints are merged in:
    the endpoints are where a disagreement between the interval machinery
    and the oracle would hide.  Raises ValueError unless the denominator is
    an int from 1 to MAX_GRID_DENOMINATOR.
    """
    # type(), not isinstance: bool is an int subclass, and True is not a
    # denominator of 1.
    if type(denominator) is not int or not 1 <= denominator <= MAX_GRID_DENOMINATOR:
        raise ValueError(
            "grid denominator must be a positive integer up to "
            f"{MAX_GRID_DENOMINATOR}, got {denominator!r}"
        )
    extra = {HALF}
    if p_interval is not None:
        for endpoint in p_interval:
            if not HALF <= endpoint <= 1:
                raise ValueError(f"interval endpoint {endpoint} outside [1/2, 1]")
            extra.add(endpoint)
    grid = [Fraction(k, denominator) for k in range(-(-denominator // 2), denominator + 1)]
    # The lattice comes out ascending; only the extra points off it go in.
    for point in extra:
        if (point * denominator).denominator != 1:
            insort(grid, point)
    return grid
