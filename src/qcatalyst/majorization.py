"""Partial sums, the majorization preorder, the LOCC criterion, Lorenz points.

A vector a is majorized by a vector b (of equal length and equal total) when
every partial sum of the descending rearrangement of a is at most the
corresponding partial sum for b.  For pure bipartite states sharing a Schmidt
basis, the transformation source -> target is possible under local operations
and classical communication exactly when the source spectrum is majorized by
the target spectrum.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate

from .rationals import _as_pair, value_text
from .spectra import Spectrum4, _integer_form, _Scaled


def _scaled(values: Iterable) -> tuple[Sequence[int], int]:
    """``values``, an outside iterable (not a _Scaled value), as integer
    numerators over a common denominator, sorted descending; raises on a
    negative component."""
    nums, den = _integer_form([_as_pair(v) for v in values])
    nums.sort(reverse=True)
    if nums and nums[-1] < 0:
        least = value_text(Fraction(nums[-1], den))
        raise ValueError(f"components must be nonnegative, got {least}")
    return nums, den


def partial_sums(values: Iterable) -> tuple[Fraction, ...]:
    """Cumulative sums of the descending rearrangement of ``values``.

    Raises ValueError on a negative component.
    """
    nums, den = values.scaled if isinstance(values, _Scaled) else _scaled(values)
    return tuple([Fraction(total, den) for total in accumulate(nums)])


def is_majorized_by(a: Sequence, b: Sequence) -> bool:
    """True iff a is majorized by b.

    Inputs are re-sorted internally, so any component order is accepted.
    Raises ValueError when lengths differ or totals differ (equal totals are
    part of the definition and are verified, not assumed).
    """
    return first_violated_index(a, b) is None


def first_violated_index(a: Sequence, b: Sequence) -> int | None:
    """Smallest k (1-based) whose partial sum of a exceeds that of b, else
    None, in which case a is majorized by b.

    Raises ValueError when lengths differ or totals differ.
    """
    # A _Scaled value's form is read here: one call fewer per vector on
    # every referee check.
    nums_a, den_a = a.scaled if isinstance(a, _Scaled) else _scaled(a)
    nums_b, den_b = b.scaled if isinstance(b, _Scaled) else _scaled(b)
    if len(nums_a) != len(nums_b):
        raise ValueError(f"length mismatch: {len(nums_a)} vs {len(nums_b)}")
    # Partial sums x/den_a and y/den_b compare as x*den_b and y*den_a.
    if (total_a := sum(nums_a)) * den_b != (total_b := sum(nums_b)) * den_a:
        raise ValueError(
            f"total mismatch: {value_text(Fraction(total_a, den_a))} "
            f"vs {value_text(Fraction(total_b, den_b))}"
        )
    x = y = 0
    for k, (s, t) in enumerate(zip(nums_a, nums_b), start=1):
        x, y = x + s, y + t
        if x * den_b > y * den_a:
            return k
    return None


def locc_possible(source: Spectrum4, target: Spectrum4) -> bool:
    """Nielsen's criterion: source -> target works under LOCC iff source
    is majorized by target."""
    return is_majorized_by(source, target)


def lorenz_points(values: Iterable) -> list[tuple[Fraction, Fraction]]:
    """Lorenz curve vertices (k/n, k-th partial sum) for k = 0..n.

    ``values`` must be nonnegative and sum to 1; the origin (0, 0) is
    prepended.  Majorization of one vector by another is containment of its
    polyline beneath the other's.
    """
    sums = partial_sums(values)
    total = sums[-1] if sums else 0
    if total != 1:
        raise ValueError(f"components must sum to 1, got {value_text(total)}")
    n = len(sums)
    points = [(Fraction(0), Fraction(0))]
    points.extend((Fraction(k, n), s) for k, s in enumerate(sums, start=1))
    return points
