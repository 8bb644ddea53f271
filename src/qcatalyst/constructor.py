"""Manufacture state pairs whose ratio bounds hit prescribed targets exactly.

Given m0 > 0 and 0 < M0 < 1, build a canonical source/target spectrum pair
whose recomputed ratio bounds equal (m0, M0) exactly.  The construction
scales a fixed target profile by a and perturbs the source by mu > 0:

    m0 <= 1:  a = (2/(m0+2))^2, profile (1, m0/2, m0/2, m0^2/4)
    m0 >  1:  a = 4/9,          profile (1, 1/2,  1/2,  1/4)

    source = a * (1 - mu, h + (m0+1) mu, h - (M0+1) m0 mu, q + M0 m0 mu)
    target = a * profile      with (h, q) the profile's middle and last

For every mu > 0 the slack triple is (mu a, m0 mu a, M0 m0 mu a), so the
terms eps2/eps1 = m0 of m and eps3/eps2 = M0 of M are in place, and
alpha2 - eps1 > 0.  Every other invariant is one linear limit mu <= L_i:

    source1 >= source2                       (1-h) / (m0+2)
    source3 >= source4                       (h-q) / ((2 M0+1) m0)
    m's term h + m0 mu <= m0                 1 - h/m0
    m's term q / (h - m0 mu) <= m0           (m0 h - q) / m0^2
    M's term (h - m0 mu)/(h + m0 mu) >= M0   h (1-M0) / (m0 (1+M0))

(h - m0 mu > 0 holds once source3 >= source4.)  Each L_i is positive, so
the mu that verify are exactly (0, L], L the least of the five.  The
default mu is the first of bound/2, bound/4, ... (mu_admissible_bound) that
is at most L, bound / 2^(j+1) with j read off a bit length.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .catalysis import compute_M, compute_m
from .rationals import HALF, value_text
from .spectra import EpsilonTriple, Spectrum4, _as_fraction, _Frozen, epsilon_decompose


class Branch(Enum):
    M0_LE_1 = "m0_le_1"
    M0_GT_1 = "m0_gt_1"


class ConstructionResult(_Frozen):
    __slots__ = _fields = ("source", "target", "mu", "branch")

    def __init__(self, source: Spectrum4, target: Spectrum4, mu: Fraction, branch: Branch) -> None:
        self._set(source=source, target=target, mu=mu, branch=branch)

    @property
    def a(self) -> Fraction:  # the scale; the target profile starts with 1
        return self.target[0]


def _validate_targets(m0: Fraction, M0: Fraction) -> None:
    if m0 <= 0:
        raise ValueError(f"m0 must be positive, got {value_text(m0)}")
    if not 0 < M0 < 1:
        raise ValueError(f"M0 must lie strictly between 0 and 1, got {value_text(M0)}")


def mu_admissible_bound(m0: Fraction, M0: Fraction) -> Fraction:
    """The base of the closed-form mu: min((1-M0)/(1+M0), (1-h)/(2 M0+1)) / 2
    with h = min(m0, 1)/2.  The default mu is bound / 2**(j+1), the first of
    bound/2, bound/4, ... within the five limits of the module docstring.
    """
    m0 = _as_fraction(m0)
    M0 = _as_fraction(M0)
    _validate_targets(m0, M0)
    return min(HALF * (1 - M0) / (1 + M0), HALF * (1 - min(m0 / 2, HALF)) / (1 + 2 * M0))


def _profile(m0: Fraction) -> tuple[Branch, Fraction, Fraction, Fraction]:
    """(branch, a, h, q): the scale and the target profile's middle and last."""
    if m0 <= 1:
        return Branch.M0_LE_1, (2 / (m0 + 2)) ** 2, m0 / 2, m0 * m0 / 4
    # The target profile sums to 9/4, so normalization forces a = 4/9.
    return Branch.M0_GT_1, Fraction(4, 9), HALF, Fraction(1, 4)


def _first_admissible_mu(m0: Fraction, M0: Fraction, h: Fraction, q: Fraction) -> Fraction:
    """The first mu = bound / 2**(j+1), j >= 0, within all five limits of the
    module docstring; every earlier one fails to verify."""
    limit = min(
        (1 - h) / (m0 + 2),
        (h - q) / ((2 * M0 + 1) * m0),
        1 - h / m0,
        (m0 * h - q) / (m0 * m0),
        h * (1 - M0) / (m0 * (1 + M0)),
    )
    bound = mu_admissible_bound(m0, M0)
    n, d = (bound / limit).as_integer_ratio()
    # The least power 2**(j+1) >= n/d, i.e. >= ceil(n/d), is 2**bit_length(ceil(n/d) - 1).
    j = max((-(-n // d) - 1).bit_length() - 1, 0)
    return bound / 2 ** (j + 1)


def construct_states(
    m0: Fraction, M0: Fraction, mu: Fraction | None = None
) -> ConstructionResult:
    """Build a state pair with ratio bounds exactly (m0, M0).

    mu defaults to the closed-form choice of the module docstring; a pinned
    mu must be positive.  Either way the pair is verified, and a ValueError
    is raised if it breaks any invariant.  Raises ValueError when m0 <= 0
    or M0 is outside (0, 1).
    """
    m0 = _as_fraction(m0)
    M0 = _as_fraction(M0)
    _validate_targets(m0, M0)
    branch, a, h, q = _profile(m0)
    if mu is None:
        mu = _first_admissible_mu(m0, M0, h, q)
    else:
        mu = _as_fraction(mu)
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {value_text(mu)}")
    try:
        source = Spectrum4((
            a * (1 - mu),
            a * (h + (m0 + 1) * mu),
            a * (h - (M0 + 1) * m0 * mu),
            a * (q + M0 * m0 * mu),
        ))
        target = Spectrum4((a, a * h, a * h, a * q))
    except ValueError:  # the source is out of order or negative
        verified = False
    else:
        eps = epsilon_decompose(source, target)
        verified = (
            eps == EpsilonTriple(mu * a, m0 * mu * a, M0 * m0 * mu * a)
            and compute_m(source, eps) == m0
            and compute_M(source, eps) == M0
        )
    if not verified:
        raise ValueError(
            f"mu = {value_text(mu)} violates the construction invariants "
            f"for m0={value_text(m0)}, M0={value_text(M0)}"
        )
    return ConstructionResult(source, target, mu, branch)
