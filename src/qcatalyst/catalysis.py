"""Two-qubit catalyzability: the feasible catalyst-ratio interval [m, M].

For canonical spectra linked by a valid slack triple (eps1, eps2, eps3), a
two-qubit catalyst (p, 1-p) enables the otherwise impossible transformation
exactly when its ratio r = (1-p)/p satisfies m <= r <= M, where

    m = max((alpha2 - eps1)/(alpha1 + eps1),
            (alpha4 - eps3)/(alpha3 + eps3),
            eps2/eps1)                     (+infinity when eps1 = 0)
    M = min((alpha3 + eps3)/(alpha2 - eps1),
            eps3/eps2)

with alpha the source spectrum.  m > 0 and M < 1 always, so every feasible
ratio corresponds to a p in [1/2, 1].  ``analyze`` packages the whole
decision; ``closed_form_lambda_prime`` gives the eight partial sums of the
target-plus-catalyst spectrum in closed form, valid exactly on the feasible
interval, as an independent cross-check surface.
"""
from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .rationals import INFINITY, ExtendedRational, ratio_key, value_text
from .spectra import (
    EpsilonTriple,
    Spectrum4,
    StarViolation,
    _Frozen,
    _integer_form,
    _require_fractions,
    _slacks,
    _star_violation,
    _two_qubit_parameter,
    two_qubit_catalyst,
)


class DegenerateSpectrumError(ValueError):
    """A bound formula has a vanishing denominator with no vacuous reading.

    No slack triple produced by epsilon_decompose on real spectra reaches
    this (eps2 > 0 forces alpha2 - eps1 > 0); it is surfaced explicitly
    rather than assigning the expression a convention.
    """


class Verdict(Enum):
    LOCC_ALREADY_POSSIBLE = "locc_already_possible"
    CATALYZABLE = "catalyzable"
    INFEASIBLE = "infeasible"


class FeasibilityReport(_Frozen):
    """Outcome of the full decision procedure for source -> target.

    No field set means LOCC already works; the ratio bounds m, M are present
    whenever a valid slack decomposition exists, star_violation otherwise.
    The verdict is derived from these three fields.
    """

    __slots__ = _fields = ("m", "M", "star_violation")

    def __init__(self, m: ExtendedRational | None = None, M: Fraction | None = None,
                 star_violation: StarViolation | None = None) -> None:
        # Real exceptions, not asserts: the invariants must hold under -O.  Any
        # valid slack triple gives m > 0 (or +infinity) and 0 <= M < 1.  An
        # unpickled +infinity is an equal float, not INFINITY itself.
        bounds = [M] if isinstance(m, float) and m == INFINITY else [m, M]
        _require_fractions([b for b in bounds if b is not None], "report bounds m and M")
        if not (star_violation is None or isinstance(star_violation, StarViolation)):
            raise TypeError("report star_violation must be a StarViolation or None")
        if m is None or M is None:
            valid = m is None and M is None
        else:
            valid = star_violation is None and m > 0 and 0 <= M < 1
        if not valid:
            shown = f"m={value_text(m)}, M={value_text(M)}, star_violation={star_violation}"
            raise ValueError(f"inconsistent report: {shown}")
        self._set(m=m, M=M, star_violation=star_violation)

    @property
    def verdict(self) -> Verdict:
        if self.star_violation is not None or (self.m is not None and self.m > self.M):
            return Verdict.INFEASIBLE
        return Verdict.LOCC_ALREADY_POSSIBLE if self.m is None else Verdict.CATALYZABLE

    @property
    def r_interval(self) -> tuple[Fraction, Fraction] | None:
        """The feasible ratio interval [m, M], when catalyzable."""
        if self.verdict is not Verdict.CATALYZABLE:
            return None
        return (self.m, self.M)

    def _p_ends(self) -> tuple[tuple[int, int], tuple[int, int]] | None:
        """The feasible p-interval [1/(1+M), 1/(1+m)] as int pairs in lowest
        terms, ((D, N+D), (d, n+d)) for m = n/d and M = N/D, when
        catalyzable: p = d/(n+d) for r = n/d.  r = (1-p)/p decreases in p,
        so the ends swap; kept in one place because that inversion is a
        perennial hazard."""
        if self.verdict is not Verdict.CATALYZABLE:
            return None
        (n, d), (N, D) = self.m.as_integer_ratio(), self.M.as_integer_ratio()
        return (D, N + D), (d, n + d)

    @property
    def p_interval(self) -> tuple[Fraction, Fraction] | None:
        """The feasible p-interval, within [1/2, 1): _p_ends as Fractions."""
        ends = self._p_ends()
        return None if ends is None else tuple(Fraction(*end) for end in ends)


def _bounds(
    source: Spectrum4, slacks: Sequence[int], den: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(m, M) as (numerator, denominator) int pairs, from a source and its
    slacks over den, which must be a multiple of the source's denominator,
    as _slacks's den_s * den_t is; the source is put over den, and den
    cancels.  +infinity is m's term eps2/eps1 itself, (eps2, 0) when
    eps1 = 0.

    Every other denominator is positive for a canonical source and slacks
    of valid signs (eps2 > 0 and target2 = alpha2 - eps1 - eps2 >= 0), so
    ratio_key orders the terms and puts (eps2, 0) above every finite one.
    """
    a1, a2, a3, a4 = [a * den // source.scaled[1] for a in source.scaled[0]]
    e1, e2, e3 = slacks
    terms = [(a2 - e1, a1 + e1), (e2, e1)]
    if a3 + e3:
        terms.append((a4 - e3, a3 + e3))
    return max(terms, key=ratio_key), min([(a3 + e3, a2 - e1), (e3, e2)], key=ratio_key)


def _triple_bounds(alpha: Spectrum4, eps: EpsilonTriple) -> tuple[tuple[int, int], tuple[int, int]]:
    """_bounds of a source and a slack triple: the slacks are put over their
    lcm den, then over den times the source's denominator."""
    slacks, den = _integer_form([e.as_integer_ratio() for e in eps._args()])
    return _bounds(alpha, [e * alpha.scaled[1] for e in slacks], den * alpha.scaled[1])


def compute_m(alpha: Spectrum4, eps: EpsilonTriple) -> ExtendedRational:
    """Lower bound m of the feasible catalyst-ratio interval.

    +infinity when eps1 = 0 (no catalyst ratio is large enough).

    When alpha3 + eps3 = 0 the middle ratio is 0/0 (alpha3 = alpha4 =
    eps3 = 0, so its numerator alpha4 - eps3 vanishes too); the partial-sum
    constraint it encodes is vacuous there and the term is omitted from the
    max.  Such pairs are still reachable valid decompositions, but eps3 = 0
    forces the upper bound to 0, so they are never catalyzable either way.
    Computed on the ints (_triple_bounds), with one Fraction for the result.
    """
    m = _triple_bounds(alpha, eps)[0]
    return Fraction(*m) if m[1] else INFINITY


def compute_M(alpha: Spectrum4, eps: EpsilonTriple) -> Fraction:
    """Upper bound M of the feasible catalyst-ratio interval.

    Equals 0 when eps3 = 0.  Raises DegenerateSpectrumError when
    alpha2 - eps1 <= 0, which no valid slack triple of a real pair can
    produce.  Computed on the ints (_triple_bounds), with one Fraction for
    the result.
    """
    (nums, den_s), (e1, d1) = alpha.scaled, eps.eps1.as_integer_ratio()
    if nums[1] * d1 <= e1 * den_s:
        raise DegenerateSpectrumError(
            "alpha2 - eps1 <= 0: implied target has a vanishing second coefficient"
        )
    return Fraction(*_triple_bounds(alpha, eps)[1])


@lru_cache(maxsize=256)
def analyze(source: Spectrum4, target: Spectrum4) -> FeasibilityReport:
    """Full decision: LOCC-possible, catalyzable with interval, or infeasible.

    Read off the integer slacks: Nielsen's partial-sum conditions are
    eps1 >= 0, eps2 <= 0 and eps3 >= 0, and _star_violation reports the
    first violation in (eps1, eps2, eps3) order, so LOCC already works
    exactly when it reports EPS2_NOT_POSITIVE and eps3 >= 0.  The bounds
    come from the same ints; the only Fractions built are m and M.
    """
    slacks, den = _slacks(source, target)
    violation = _star_violation(*slacks)
    if violation is StarViolation.EPS2_NOT_POSITIVE and slacks[2] >= 0:
        return FeasibilityReport()
    if violation is not None:
        return FeasibilityReport(star_violation=violation)
    m, M = _bounds(source, slacks, den)
    return FeasibilityReport(m=Fraction(*m) if m[1] else INFINITY, M=Fraction(*M))


def is_valid_catalyst(source: Spectrum4, target: Spectrum4, p) -> bool:
    """Whether the two-qubit catalyst (p, 1-p) enables source -> target.

    True iff m <= (1-p)/p <= M; always False when the pair is infeasible.
    Raises ValueError when p is outside [1/2, 1] or when the transformation
    is already possible under LOCC (no catalyst is needed, the interval
    machinery does not apply).
    """
    k, d = _two_qubit_parameter(p)
    report = analyze(source, target)
    m, M, violation = report.m, report.M, report.star_violation
    if m is None and violation is None:
        raise ValueError(
            "transformation is already possible under LOCC; catalysis does not apply"
        )
    # No ratio passes a star violation or m = +infinity (compute_m's INFINITY).
    if violation is not None or m is INFINITY:
        return False
    # m <= r = (d-k)/k <= M on ints, which no r passes when m > M.
    (m_num, m_den), (M_num, M_den) = m.as_integer_ratio(), M.as_integer_ratio()
    return m_num * k <= (d - k) * m_den and (d - k) * M_den <= M_num * k


def closed_form_lambda_prime(
    target: Spectrum4, eps: EpsilonTriple, p
) -> tuple[Fraction, ...]:
    """The eight partial sums of the target-with-catalyst spectrum, in closed
    form.

    Valid only for feasible catalysts (m <= (1-p)/p <= M): only then is the
    descending order of the eight products fixed, which is what makes the
    closed forms the true sorted partial sums.  The source spectrum is
    recovered from (target, eps); a ValueError propagates when p is outside
    [1/2, 1], the pair is not a genuine decomposition or the ratio is outside
    [m, M].
    """
    p, q = two_qubit_catalyst(p)
    t1, t2, t3, t4 = target
    a1 = t1 - eps.eps1
    a2 = t2 + eps.eps1 + eps.eps2
    a3 = t3 - eps.eps2 - eps.eps3
    a4 = t4 + eps.eps3
    source = Spectrum4((a1, a2, a3, a4))
    # source's slacks are eps, with eps2 > 0: analyze finds bounds, not LOCC.
    if not is_valid_catalyst(source, target, p):
        report = analyze(source, target)
        raise ValueError(
            f"ratio (1-p)/p = {value_text(q / p)} outside feasible interval "
            f"[{value_text(report.m)}, {value_text(report.M)}]; "
            "closed forms do not describe the sorted spectrum there"
        )
    e1, e2, e3 = eps.eps1, eps.eps2, eps.eps3
    return (
        a1 * p + e1 * p,
        a1 + e1,
        a1 + a2 * p + e1 * q - e2 * p,
        a1 + a2 * p + a3 * p + e1 * q + e3 * p,
        a1 + a2 + a3 * p - e2 * q + e3 * p,
        a1 + a2 + a3 + e3,
        a1 + a2 + a3 + a4 * p + e3 * q,
        a1 + a2 + a3 + a4,
    )
