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

All of it runs on ints.  With m0 = p/r, M0 = P/Q and mu = U/V in lowest
terms, the profile is (W, H, H, q) / W (so h = H/W), the target is
(W, H, H, q) / S with S = W + 2H + q (so a = W/S), and each limit, the
bound, the pair and its check are ratios of ints over positive denominators.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd

from .catalysis import _bounds
from .rationals import _as_pair, ratio_key, value_text
from .spectra import Spectrum4, _Frozen, _require_fractions, _slacks


class Branch(Enum):
    M0_LE_1 = "m0_le_1"
    M0_GT_1 = "m0_gt_1"


class ConstructionResult(_Frozen):
    __slots__ = _fields = ("source", "target", "mu", "branch")

    def __init__(self, source: Spectrum4, target: Spectrum4, mu: Fraction, branch: Branch) -> None:
        _require_fractions((mu,), "construction mu")
        self._set(source=source, target=target, mu=mu, branch=branch)

    @property
    def a(self) -> Fraction:  # the scale; the target profile starts with 1
        return self.target[0]


def _targets(m0: Fraction, M0: Fraction, mu: Fraction | None = None) -> tuple:
    """(p, r, P, Q, pinned) with m0 = p/r and M0 = P/Q in lowest terms and
    pinned the pair of mu, or None; raises unless m0 > 0 and 0 < M0 < 1.
    All three are read before either check, and a string's parse error
    starts with "m0: ", "M0: " or "mu: "."""
    (p, r), (P, Q) = _as_pair(m0, "m0"), _as_pair(M0, "M0")
    pinned = None if mu is None else _as_pair(mu, "mu")
    if p <= 0:
        raise ValueError(f"m0 must be positive, got {value_text(Fraction(p, r))}")
    if not 0 < P < Q:
        raise ValueError(f"M0 must lie strictly between 0 and 1, got {value_text(Fraction(P, Q))}")
    return p, r, P, Q, pinned


def _bound(p: int, r: int, P: int, Q: int) -> tuple[int, int]:
    """mu_admissible_bound for m0 = p/r, M0 = P/Q, as a pair of ints."""
    terms = [(Q - P, 2 * (Q + P)), ((2 * r - min(p, r)) * Q, 4 * r * (Q + 2 * P))]
    return min(terms, key=ratio_key)


def mu_admissible_bound(m0: Fraction, M0: Fraction) -> Fraction:
    """The base of the closed-form mu: min((1-M0)/(1+M0), (1-h)/(2 M0+1)) / 2
    with h = min(m0, 1)/2.  The default mu is bound / 2**(j+1), the first of
    bound/2, bound/4, ... within the five limits of the module docstring.
    """
    return Fraction(*_bound(*_targets(m0, M0)[:4]))


def _profile(p: int, r: int) -> tuple[Branch, int, int, int]:
    """(branch, W, H, q) for m0 = p/r: the target profile is (W, H, H, q) / W,
    so the target is (W, H, H, q) / (W + 2H + q) and a = W / (W + 2H + q)."""
    if p <= r:  # h = m0/2 and q = m0^2/4, over W = 4 r^2
        return Branch.M0_LE_1, 4 * r * r, 2 * p * r, p * p
    # The target profile sums to 9/4, so normalization forces a = 4/9.
    return Branch.M0_GT_1, 4, 2, 1


def _first_admissible_mu(
    p: int, r: int, P: int, Q: int, W: int, H: int, q: int
) -> tuple[int, int]:
    """The first mu = bound / 2**(j+1), j >= 0, within all five limits of the
    module docstring, as a pair of ints; every earlier one fails to verify.
    Each limit is written with h = H/W and the profile's last as q/W, over
    a positive denominator."""
    ln, ld = min([
        ((W - H) * r, W * (p + 2 * r)),
        ((H - q) * Q * r, W * (2 * P + Q) * p),
        (W * p - H * r, W * p),
        ((p * H - q * r) * r, W * p * p),
        (H * (Q - P) * r, W * p * (Q + P)),
    ], key=ratio_key)
    bn, bd = _bound(p, r, P, Q)
    n, d = bn * ld, bd * ln  # bound / limit
    # The least power 2**(j+1) >= n/d, i.e. >= ceil(n/d), is 2**bit_length(ceil(n/d) - 1).
    j = max((-(-n // d) - 1).bit_length() - 1, 0)
    return bn, bd << (j + 1)


def construct_states(
    m0: Fraction, M0: Fraction, mu: Fraction | None = None
) -> ConstructionResult:
    """Build a state pair with ratio bounds exactly (m0, M0).

    m0, M0 and a pinned mu are Fractions, ints or strings, each read as
    one int pair in lowest terms (rationals._as_pair; a float or a bool
    raises TypeError), and a string's parse error starts with "m0: ",
    "M0: " or "mu: ".  mu defaults to the closed-form choice of the module
    docstring; a pinned mu must be positive.  Either way the pair is
    verified, and a ValueError is raised if it breaks any invariant.  Raises
    ValueError when m0 <= 0 or M0 is outside (0, 1).  The pair is built and
    verified on the ints.
    """
    p, r, P, Q, pinned = _targets(m0, M0, mu)
    branch, W, H, q = _profile(p, r)
    U, V = _first_admissible_mu(p, r, P, Q, W, H, q) if pinned is None else pinned
    mu = Fraction(U, V)
    if U <= 0:
        raise ValueError(f"mu must be positive, got {value_text(mu)}")
    # a * (1 - mu, h + (m0+1) mu, h - (M0+1) m0 mu, q + M0 m0 mu) over
    # den = S V r Q, with a = W/S; the slacks (mu a, m0 mu a, M0 m0 mu a)
    # over the same den.
    S = W + 2 * H + q
    den = S * V * r * Q
    expected = (U * W * r * Q, p * U * W * Q, P * p * U * W)
    try:
        # Each component in lowest terms, as _of reads them.
        source = Spectrum4._of([(n // g, den // g) for n in (
            (V - U) * W * r * Q,
            H * V * r * Q + (p + r) * U * W * Q,
            H * V * r * Q - (P + Q) * p * U * W,
            q * V * r * Q + P * p * U * W,
        ) for g in [gcd(n, den)]])
        target = Spectrum4._of([(n // g, S // g) for n in (W, H, H, q) for g in [gcd(n, S)]])
    except ValueError:
        # A negative source component.  _of sorts an out-of-order source,
        # which moves s1, s1 + s2 or s4 and so eps1, eps2 or eps3 (the first
        # position that moves decides which): the slack comparison below
        # refuses it.
        verified = False
    else:
        # The slacks, then m and M from them as analyze computes them; the
        # slacks that match are all positive, so m is finite.
        slacks, slack_den = _slacks(source, target)
        verified = all(e * den == x * slack_den for e, x in zip(slacks, expected))
        if verified:
            m, M = _bounds(source, slacks, slack_den)
            verified = ratio_key(m) == ratio_key((p, r)) and ratio_key(M) == ratio_key((P, Q))
    if not verified:
        raise ValueError(
            f"mu = {value_text(mu)} violates the construction invariants "
            f"for m0={value_text(Fraction(p, r))}, M0={value_text(Fraction(P, Q))}"
        )
    return ConstructionResult(source, target, mu, branch)
