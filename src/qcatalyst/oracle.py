"""Brute-force ground truth: augmented spectra and direct majorization checks.

Pairing a state with a catalyst multiplies every state coefficient by every
catalyst coefficient; the catalytic conversion is possible exactly when the
augmented source spectrum is majorized by the augmented target spectrum.
Nothing here knows about the ratio-interval theorem, which is the point:
this module is the independent referee the interval machinery is validated
against.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .majorization import is_majorized_by
from .rationals import HALF
from .spectra import CatalystSpectrum, Spectrum4, two_qubit_catalyst

# 4n products of state and catalyst coefficients, sorted descending.
AugmentedSpectrum = tuple[Fraction, ...]


def augment(state: Spectrum4, catalyst: CatalystSpectrum) -> AugmentedSpectrum:
    """All products state[i] * catalyst[j], sorted descending."""
    return tuple(sorted((a * k for a in state for k in catalyst), reverse=True))


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
    out = []
    for p in grid:
        catalyst = two_qubit_catalyst(p)  # validates the range
        out.append((p, oracle_valid_catalyst(source, target, catalyst)))
    return out


def sweep_grid(
    denominator: int = 1000,
    p_interval: Optional[tuple[Fraction, Fraction]] = None,
) -> list[Fraction]:
    """Default sweep grid: the lattice k/denominator within [1/2, 1], plus
    the domain boundaries 1/2 and 1 themselves.

    When a feasible p-interval is known, its exact endpoints are merged in
    (together with their neighbouring lattice points, which the lattice
    already contains): the endpoints are where a disagreement between the
    interval machinery and the oracle would hide.
    """
    # bool is an int subclass; True must not pass for a denominator of 1.
    if isinstance(denominator, bool) or not isinstance(denominator, int) or denominator < 1:
        raise ValueError(f"grid denominator must be a positive integer, got {denominator!r}")
    points = {
        Fraction(k, denominator)
        for k in range(-(-denominator // 2), denominator + 1)
    }
    points.add(HALF)
    points.add(Fraction(1))
    if p_interval is not None:
        for endpoint in p_interval:
            if not HALF <= endpoint <= 1:
                raise ValueError(f"interval endpoint {endpoint} outside [1/2, 1]")
            points.add(endpoint)
            scaled = endpoint * denominator
            for k in (math.floor(scaled), math.ceil(scaled)):
                candidate = Fraction(k, denominator)
                if HALF <= candidate <= 1:
                    points.add(candidate)
    return sorted(points)
