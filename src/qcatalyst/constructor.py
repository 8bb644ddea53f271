"""Manufacture state pairs whose ratio bounds hit prescribed targets exactly.

Given m0 > 0 and 0 < M0 < 1, build a canonical source/target spectrum pair
whose recomputed ratio bounds equal (m0, M0) exactly.  The construction
scales a fixed target profile by a and perturbs the source by a small mu:

    m0 <= 1:  a = (2/(m0+2))^2, profile (1, m0/2, m0/2, m0^2/4)
    m0 >  1:  a = 4/9,          profile (1, 1/2,  1/2,  1/4)

    source = a * (1 - mu,
                  h + (m0+1) mu,
                  h - (M0+1) m0 mu,
                  q + M0 m0 mu)        with (h, q) the profile's middle/last
    target = a * profile

which yields slack values eps = (mu a, m0 mu a, M0 m0 mu a) and, for small
enough mu, ratio bounds exactly (m0, M0).  The closed-form admissibility
bound on mu below is not sufficient for every (m0, M0) (the source ordering
and the max/min selections impose further upper bounds that grow with m0),
so the chooser tries mu = bound/2, bound/4, ... until every invariant
verifies; mu -> 0 satisfies all constraints, so this terminates.  The source
stays sorted only while mu <= (1-h)/(m0+2) and mu <= (h-q)/((2 M0+1) m0),
so the search starts at the first mu of that sequence that meets both,
found from bit lengths: every earlier one fails, and at m0 = 10^k there
are about 3.3 k of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .catalysis import compute_M, compute_m
from .rationals import HALF, Rational
from .spectra import EpsilonTriple, Spectrum4, _as_fraction, epsilon_decompose

_MAX_HALVINGS = 1000


class Branch(Enum):
    M0_LE_1 = "m0_le_1"
    M0_GT_1 = "m0_gt_1"


@dataclass(frozen=True)
class ConstructionResult:
    source: Spectrum4
    target: Spectrum4
    mu: Fraction
    branch: Branch

    @property
    def a(self) -> Fraction:  # the scale; the target profile starts with 1
        return self.target[0]


def _validate_targets(m0: Fraction, M0: Fraction) -> None:
    if m0 <= 0:
        raise ValueError(f"m0 must be positive, got {m0}")
    if not 0 < M0 < 1:
        raise ValueError(f"M0 must lie strictly between 0 and 1, got {M0}")


def mu_admissible_bound(m0: Rational, M0: Rational) -> Fraction:
    """Initial upper bound for the perturbation size mu.

    Necessary but not always sufficient; construct_states shrinks below it
    until the construction verifies.
    """
    m0 = _as_fraction(m0)
    M0 = _as_fraction(M0)
    _validate_targets(m0, M0)
    first = HALF * (1 - M0) / (1 + M0)
    if m0 <= 1:
        second = HALF * (1 - m0 / 2) / (1 + 2 * M0)
    else:
        second = HALF * HALF / (1 + 2 * M0)
    return min(first, second)


def _profile(m0: Fraction) -> tuple[Branch, Fraction, Fraction, Fraction]:
    """(branch, a, h, q): the scale and the target profile's middle and last."""
    if m0 <= 1:
        return Branch.M0_LE_1, (2 / (m0 + 2)) ** 2, m0 / 2, m0 * m0 / 4
    # The target profile sums to 9/4, so normalization forces a = 4/9.
    return Branch.M0_GT_1, Fraction(4, 9), HALF, Fraction(1, 4)


def _first_sorted_mu(m0: Fraction, M0: Fraction) -> Fraction:
    """The first mu = bound / 2**(j+1), j >= 0, that keeps the source sorted
    (see the module docstring); Spectrum4 rejects every earlier one."""
    _, _, h, q = _profile(m0)
    limit = min((1 - h) / (m0 + 2), (h - q) / ((2 * M0 + 1) * m0))
    bound = mu_admissible_bound(m0, M0)
    n, d = (bound / limit).as_integer_ratio()
    # The smallest j with 2**(j+1) >= n/d.  n/d > 2**(bit_length(n) -
    # bit_length(d) - 1), so no j below bit_length(n) - bit_length(d) - 2
    # qualifies, and the loop runs at most three times.
    j = max(n.bit_length() - d.bit_length() - 2, 0)
    while d << (j + 1) < n:
        j += 1
    return bound / 2 ** (j + 1)


def _try_build(m0: Fraction, M0: Fraction, mu: Fraction) -> Optional[ConstructionResult]:
    """Build the pair for this mu; None when any invariant fails."""
    branch, a, h, q = _profile(m0)
    source_values = (
        a * (1 - mu),
        a * (h + (m0 + 1) * mu),
        a * (h - (M0 + 1) * m0 * mu),
        a * (q + M0 * m0 * mu),
    )
    target_values = (a, a * h, a * h, a * q)
    try:
        source = Spectrum4(source_values)
        target = Spectrum4(target_values)
    except ValueError:
        return None
    eps = epsilon_decompose(source, target)
    if eps != EpsilonTriple(mu * a, m0 * mu * a, M0 * m0 * mu * a):
        return None
    if compute_m(source, eps) != m0 or compute_M(source, eps) != M0:
        return None
    return ConstructionResult(source, target, mu, branch)


def construct_states(
    m0: Rational, M0: Rational, mu: Optional[Rational] = None
) -> ConstructionResult:
    """Build a state pair with ratio bounds exactly (m0, M0).

    A specific mu may be pinned; it is then verified rather than searched,
    and a ValueError is raised if it breaks any invariant.  Raises
    ValueError when m0 <= 0 or M0 is outside (0, 1).
    """
    m0 = _as_fraction(m0)
    M0 = _as_fraction(M0)
    _validate_targets(m0, M0)
    if mu is None:
        mu = _first_sorted_mu(m0, M0)
        for _ in range(_MAX_HALVINGS):
            result = _try_build(m0, M0, mu)
            if result is not None:
                return result
            mu /= 2
        raise AssertionError(f"no admissible mu found for m0={m0}, M0={M0}")
    mu = _as_fraction(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    result = _try_build(m0, M0, mu)
    if result is None:
        raise ValueError(
            f"mu = {mu} violates the construction invariants for m0={m0}, M0={M0}"
        )
    return result
