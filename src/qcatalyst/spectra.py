"""Schmidt-coefficient spectra and the slack decomposition between two states.

A four-state spectrum is the probability vector of Schmidt coefficients of a
pure bipartite state, kept in canonical form: sorted descending, exact
Fractions, summing to 1.  A catalyst spectrum is the same for the borrowed
ancilla state; the two-qubit case (p, 1-p) is the one the interval theorem
speaks about, but any length is accepted for brute-force exploration.

``epsilon_decompose`` extracts the (eps1, eps2, eps3) slack variables linking
a source spectrum to a target spectrum:

    target1 = source1 + eps1
    target2 = source2 - eps1 - eps2
    target3 = source3 + eps2 + eps3
    target4 = source4 - eps3

with eps1 >= 0, eps2 > 0, eps3 >= 0.  Such a triple exists exactly when the
star pattern holds: the largest coefficient may only grow, the top-two sum
strictly shrinks (the sole majorization violation), and the smallest
coefficient may only shrink.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum
from fractions import Fraction
from math import lcm

from .rationals import _as_pair, value_text


# Largest catalyst make_catalyst reads, as its component count times the bit
# length of its common denominator: the oracle's work grows with both, and
# a small document of distinct denominators has a huge common one.  1,000
# components of 1/1000 use 10,000, and two at the 4,300-digit limit about
# 28,600.  3,200 components over 1,600 distinct 5-digit primes (a 55 KB
# document) use 72 million; unchecked, validate took 2.3 s and 164 MB on
# them (CPython 3.11.7, 2 cores).
MAX_CATALYST_BITS = 1 << 17


def _integer_form(pairs: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The numerators of the (numerator, denominator) ``pairs`` over their
    lcm denominator, and that denominator."""
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _require_fractions(values: Iterable, what: str) -> None:
    """Raise TypeError unless every one of ``values`` is a Fraction."""
    if not all([isinstance(v, Fraction) for v in values]):
        raise TypeError(f"{what} must be Fractions")


def _two_qubit_parameter(p: Fraction) -> tuple[int, int]:
    """(k, d) with p = k/d in lowest terms; raises unless 1/2 <= p <= 1.
    An exact Fraction is read here, every other p by _as_pair; a string's
    parse error starts with "p: "."""
    k, d = p.as_integer_ratio() if type(p) is Fraction else _as_pair(p, "p")
    if not d <= 2 * k <= 2 * d:
        raise ValueError(
            f"two-qubit catalyst parameter must be in [1/2, 1], got {value_text(Fraction(k, d))}"
        )
    return k, d


class _Frozen:
    """Base of the value types: read-only slots, set once by a checked
    ``__init__`` whose arguments ``_fields`` names in order.  A value prints
    as ``Type(field=value, ...)`` and compares and hashes by those arguments
    unless a class says otherwise; copy, deepcopy and pickle rebuild it
    through ``__init__``, so a duplicate is checked again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _args(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._args() == other._args() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._args())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._args()

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({shown})"


class _Scaled(_Frozen):
    """A value held as its integer form ``scaled``: numerators over one
    denominator.  It reads as the tuple of its Fractions, and compares and
    hashes by ``scaled``, which a canonical spectrum has exactly one of."""

    __slots__ = _fields = ("scaled",)

    def __init__(self, scaled: tuple[tuple[int, ...], int]) -> None:
        _set_scaled(self, scaled)

    def __eq__(self, other: object) -> bool:
        return self.scaled == other.scaled if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.scaled)

    def __iter__(self) -> Iterator[Fraction]:
        nums, den = self.scaled
        return iter([Fraction(n, den) for n in nums])

    def __len__(self) -> int:
        return len(self.scaled[0])

    def __getitem__(self, index):
        return tuple(self)[index]


# The slot's own setter, in C: a value is built without a Python frame for
# _Frozen.__setattr__, which refuses every assignment.
_set_scaled = _Scaled.scaled.__set__


class _Canonical(_Scaled):
    """A canonical probability vector: nonnegative, sorted descending, sum 1.
    It is built from its Fractions in that order or by ``_of`` from
    (numerator, denominator) pairs in any order; both ways the checks run in
    one order, and only the reduced ``scaled`` is stored."""

    __slots__ = ()
    _what = ""

    def __init__(self, components: tuple[Fraction, ...]) -> None:
        self._check_length(len(components))
        _require_fractions(components, f"{self._what} components")
        nums, den = _integer_form([v.as_integer_ratio() for v in components])
        _set_scaled(self, self._checked(nums, den))

    @classmethod
    def _of(cls, pairs: list[tuple[int, int]]) -> _Canonical:
        """The value of pairs in lowest terms, in any order.  Over their lcm
        they stay in lowest terms: a prime's top power in the lcm divides
        some pair's denominator, so not that pair's numerator."""
        cls._check_length(len(pairs))
        nums, den = _integer_form(pairs)
        nums.sort(reverse=True)
        _set_scaled(value := object.__new__(cls), cls._checked(nums, den, given_order=False))
        return value

    @classmethod
    def _checked(cls, nums: list[int], den: int, given_order=True) -> tuple[tuple[int, ...], int]:
        """Raise unless nums over den are nonnegative, sorted descending and
        sum to 1; return them as ``scaled``.  The order is checked only when
        it is given, as __init__'s Fractions are: _of sorts the numerators
        itself."""
        if min(nums) < 0:
            raise ValueError(f"{cls._what} components must be nonnegative")
        if given_order and nums != sorted(nums, reverse=True):
            raise ValueError(f"{cls._what} components must be sorted descending")
        if (total := sum(nums)) != den:
            shown = value_text(Fraction(total, den))
            raise ValueError(f"{cls._what} components must sum to 1, got {shown}")
        return tuple(nums), den


class Spectrum4(_Canonical):
    """Canonical four-component Schmidt spectrum (sorted descending, sum 1);
    only ``scaled`` is stored, and ``alpha`` is read from it.  Each read of
    ``alpha`` or of a component builds the four Fractions again."""

    __slots__ = ()
    _fields = ("alpha",)
    _what = "spectrum"

    @staticmethod
    def _check_length(n: int) -> None:
        if n != 4:
            raise ValueError(f"spectrum needs exactly 4 components, got {n}")

    alpha = property(tuple, doc="The components, as reduced Fractions.")


class CatalystSpectrum(_Canonical):
    """Canonical catalyst spectrum: n >= 1 components, sorted descending, sum 1;
    only ``scaled`` is stored, and ``kappa`` is read from it."""

    __slots__ = ()
    _fields = ("kappa",)
    _what = "catalyst"

    @staticmethod
    def _check_length(n: int) -> None:
        if n < 1:
            raise ValueError("catalyst needs at least one component")

    kappa = property(tuple, doc="The components, as reduced Fractions.")


class AugmentedSpectrum(_Scaled):
    """Sorted products of a state and a catalyst, as ints over den_state *
    den_catalyst; it reads, compares and hashes as its tuple of Fractions."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, AugmentedSpectrum) else other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class EpsilonTriple(_Frozen):
    """Valid slack decomposition: eps1 >= 0, eps2 > 0, eps3 >= 0."""

    __slots__ = _fields = ("eps1", "eps2", "eps3")

    def __init__(self, eps1: Fraction, eps2: Fraction, eps3: Fraction) -> None:
        _require_fractions((eps1, eps2, eps3), "slack triple components")
        if _star_violation(eps1, eps2, eps3) is not None:
            raise ValueError("slack triple must satisfy eps1 >= 0, eps2 > 0, eps3 >= 0")
        self._set(eps1=eps1, eps2=eps2, eps3=eps3)


class StarViolation(Enum):
    """Which sign condition of the slack decomposition failed."""

    EPS1_NEGATIVE = "eps1_negative"
    EPS2_NOT_POSITIVE = "eps2_not_positive"
    EPS3_NEGATIVE = "eps3_negative"

    @property
    def inequality(self) -> str:
        """The violated inequality on the spectra themselves."""
        return {
            StarViolation.EPS1_NEGATIVE: "source1 <= target1",
            StarViolation.EPS2_NOT_POSITIVE: "source1 + source2 > target1 + target2",
            StarViolation.EPS3_NEGATIVE: "source4 >= target4",
        }[self]


def make_spectrum(values: Iterable[Fraction | int | str]) -> Spectrum4:
    """Build a canonical spectrum from four probabilities in any order.

    Raises ValueError on a malformed rational, a count other than 4, a
    negative component or a sum different from 1.  Strings are parsed to
    ints, and the spectrum is built on the ints: no Fraction is made.
    """
    return Spectrum4._of([_as_pair(v) for v in values])


def make_catalyst(values: Iterable[Fraction | int | str]) -> CatalystSpectrum:
    """Build a canonical catalyst spectrum from components in any order.

    Raises ValueError when the component count times the bit length of the
    components' common denominator exceeds MAX_CATALYST_BITS.  The
    components are read one at a time, one lcm step each, and reading stops
    at the first step over the cap, before the numerators are scaled to the
    common denominator.  A string's parse error starts with "catalyst: ".
    """
    values = list(values)
    pairs, den = [], 1
    for value in values:
        pairs.append(pair := _as_pair(value, "catalyst"))
        den = lcm(den, pair[1])
        if len(values) * (bits := den.bit_length()) > MAX_CATALYST_BITS:
            raise ValueError(f"catalyst: {len(values)} components times {bits} or more bits "
                             f"of their common denominator exceed {MAX_CATALYST_BITS}")
    return CatalystSpectrum._of(pairs)


def two_qubit_catalyst(p: Fraction) -> CatalystSpectrum:
    """The catalyst (p, 1-p) with 1/2 <= p <= 1.

    Raises ValueError when p is outside [1/2, 1]; a string's parse error
    starts with "p: ".
    """
    k, d = _two_qubit_parameter(p)
    # Canonical by construction (d <= 2k <= 2d): CatalystSpectrum's check is
    # skipped.
    _set_scaled(catalyst := object.__new__(CatalystSpectrum), ((k, d - k), d))
    return catalyst


def _slacks(source: Spectrum4, target: Spectrum4) -> tuple[tuple[int, int, int], int]:
    """((eps1, eps2, eps3), den) of source -> target on the integer forms:
    the slacks as numerators over den = den_s * den_t, whatever their signs."""
    (s, den_s), (t, den_t) = source.scaled, target.scaled
    return (
        t[0] * den_s - s[0] * den_t,
        (s[0] + s[1]) * den_t - (t[0] + t[1]) * den_s,
        s[3] * den_t - t[3] * den_s,
    ), den_s * den_t


def _star_violation(eps1: int, eps2: int, eps3: int) -> StarViolation | None:
    """The first sign condition, in (eps1, eps2, eps3) order, that the
    slacks break, or None; they are ints over one denominator, or an
    EpsilonTriple's Fractions."""
    if eps1 < 0:
        return StarViolation.EPS1_NEGATIVE
    if eps2 <= 0:
        return StarViolation.EPS2_NOT_POSITIVE
    if eps3 < 0:
        return StarViolation.EPS3_NEGATIVE
    return None


def epsilon_decompose(
    source: Spectrum4, target: Spectrum4
) -> EpsilonTriple | StarViolation:
    """Slack decomposition of source -> target, or the violated sign condition.

    On success the third target line holds automatically by normalization:
    target3 = source3 + eps2 + eps3.  Multiple violations report the first
    in (eps1, eps2, eps3) order.  The slacks are computed on the integer
    forms (_slacks); a Fraction is built only for each slack of a returned
    triple.
    """
    slacks, den = _slacks(source, target)
    violation = _star_violation(*slacks)
    if violation is not None:
        return violation
    return EpsilonTriple(*[Fraction(eps, den) for eps in slacks])
