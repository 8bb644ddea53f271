"""The contract of the five value types: frozen, copyable, picklable, and
equal (with equal hashes) whenever they describe the same value.  The
oracle's AugmentedSpectrum keeps the same contract and, in addition, reads
as the tuple of its Fractions.

The checks go through the public constructors and attribute names only, so
they hold for any implementation of the types.  The reprs are pinned to the
text the types printed as frozen dataclasses.
"""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given

from qcatalyst import (
    CatalystSpectrum,
    ConstructionResult,
    EpsilonTriple,
    FeasibilityReport,
    Spectrum4,
    analyze,
    augment,
    construct_states,
    make_catalyst,
    make_spectrum,
    two_qubit_catalyst,
)
from qcatalyst.oracle import AugmentedSpectrum

from support import catalyst_params

F = Fraction

REPORT_FIELDS = ("m", "M", "star_violation")

# (value, its fields): one or more values of each type.
VALUES = [
    (make_spectrum(["0.4", "0.4", "0.1", "0.1"]), ("alpha",)),
    (make_spectrum(["1/2", "1/4", "1/4", "0"]), ("alpha",)),
    (make_catalyst(["2/5", "3/5"]), ("kappa",)),
    (make_catalyst(["1/6", "1/2", "1/3"]), ("kappa",)),
    (EpsilonTriple(F(9, 160), F(6, 160), F(2, 160)), ("eps1", "eps2", "eps3")),
    # Catalyzable, LOCC already possible, star violated, and m = +infinity.
    *(
        (analyze(make_spectrum(s.split(",")), make_spectrum(t.split(","))), REPORT_FIELDS)
        for s, t in [
            ("0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0"),
            ("0.5,0.25,0.25,0", "1,0,0,0"),
            ("0.5,0.25,0.25,0", "0.4,0.4,0.1,0.1"),
            ("0.5,0.3,0.1,0.1", "0.5,0.2,0.2,0.1"),
        ]
    ),
    (construct_states(F(2, 3), F(1, 3)), ("source", "target", "mu", "branch")),
]
IDS = [f"{type(value).__name__}{i}" for i, (value, _) in enumerate(VALUES)]


def test_every_type_is_covered():
    types = {type(value) for value, _ in VALUES}
    assert types == {
        Spectrum4, CatalystSpectrum, EpsilonTriple, FeasibilityReport, ConstructionResult
    }
    reports = [value for value, _ in VALUES if isinstance(value, FeasibilityReport)]
    assert len({report.verdict for report in reports}) == 3
    assert any(report.m == float("inf") for report in reports)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_duplicates_are_equal(value, fields, duplicate):
    twin = duplicate(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert all(getattr(twin, name) == getattr(value, name) for name in fields)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_frozen(value, fields):
    before = [getattr(value, name) for name in fields]
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == before


def test_spectra_from_different_orders_are_one_value():
    source = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
    reordered = make_spectrum([F(1, 10), "2/5", "0.1", F(2, 5)])
    target = make_spectrum(["0.5", "0.25", "0.25", "0"])
    retarget = make_spectrum(["0", "1/4", "0.5", F(1, 4)])
    assert (reordered, retarget) == (source, target)
    assert (hash(reordered), hash(retarget)) == (hash(source), hash(target))

    analyze.cache_clear()
    first = analyze(source, target)
    assert analyze(reordered, retarget) is first
    assert analyze.cache_info().hits == 1


def test_catalysts_from_different_orders_are_one_value():
    catalyst = make_catalyst(["3/5", "2/5"])
    for twin in (make_catalyst(["0.4", "0.6"]), two_qubit_catalyst(F(3, 5))):
        assert twin == catalyst and hash(twin) == hash(catalyst)


def test_values_of_different_types_are_unequal():
    # Equality asks for the same type first: a four-component catalyst
    # holding a spectrum's integer form is another value, and no value
    # equals the tuple of its fields.
    spectrum = VALUES[0][0]
    catalyst = make_catalyst(spectrum.alpha)
    assert catalyst.scaled == spectrum.scaled
    assert not spectrum == catalyst and not catalyst == spectrum
    assert (spectrum != catalyst) is True and (catalyst != spectrum) is True
    for fields in (spectrum.scaled, spectrum.alpha):
        assert spectrum != fields and fields != spectrum
    for value, fields in VALUES:
        if isinstance(value, (EpsilonTriple, FeasibilityReport)):
            assert value != tuple(getattr(value, name) for name in fields)


@given(catalyst_params(10**7))
@example(F(1, 2))
@example(F(1))
def test_two_qubit_catalyst_is_make_catalyst(p):
    built, reference = two_qubit_catalyst(p), make_catalyst([p, 1 - p])
    assert built == reference and hash(built) == hash(reference)
    assert built.scaled == reference.scaled and built.kappa == reference.kappa


@pytest.mark.parametrize(
    "value,text",
    [
        (
            VALUES[0][0],
            "Spectrum4(alpha=(Fraction(2, 5), Fraction(2, 5), Fraction(1, 10), Fraction(1, 10)))",
        ),
        (VALUES[2][0], "CatalystSpectrum(kappa=(Fraction(3, 5), Fraction(2, 5)))"),
        (
            VALUES[4][0],
            "EpsilonTriple(eps1=Fraction(9, 160), eps2=Fraction(3, 80), eps3=Fraction(1, 80))",
        ),
        (VALUES[5][0], "FeasibilityReport(m=Fraction(3, 5), M=Fraction(2, 3), star_violation=None)"),
        (VALUES[8][0], "FeasibilityReport(m=inf, M=Fraction(0, 1), star_violation=None)"),
        (
            VALUES[7][0],
            "FeasibilityReport(m=None, M=None, "
            "star_violation=<StarViolation.EPS1_NEGATIVE: 'eps1_negative'>)",
        ),
        (
            VALUES[9][0],
            "ConstructionResult("
            "source=Spectrum4(alpha=(Fraction(81, 160), Fraction(9, 32), Fraction(11, 80), "
            "Fraction(3, 40))), "
            "target=Spectrum4(alpha=(Fraction(9, 16), Fraction(3, 16), Fraction(3, 16), "
            "Fraction(1, 16))), "
            "mu=Fraction(1, 10), branch=<Branch.M0_LE_1: 'm0_le_1'>)",
        ),
        (
            augment(VALUES[0][0], VALUES[2][0]),
            "(Fraction(6, 25), Fraction(6, 25), Fraction(4, 25), Fraction(4, 25), "
            "Fraction(3, 50), Fraction(3, 50), Fraction(1, 25), Fraction(1, 25))",
        ),
    ],
)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize(
    "catalyst,expected",
    [
        (make_catalyst(["1/6", "1/2", "1/3"]), ((1, 2), (1, 3), (1, 6))),
        (two_qubit_catalyst(F(3, 5)), ((3, 5), (2, 5))),
        (two_qubit_catalyst(F(1)), ((1, 1), (0, 1))),
    ],
)
def test_kappa_items_are_reduced_fractions(catalyst, expected):
    # kappa is read from the integer form, whose denominator is shared.
    assert all(type(x) is F for x in catalyst.kappa)
    assert [x.as_integer_ratio() for x in catalyst.kappa] == list(expected)
    assert tuple(catalyst) == catalyst.kappa


AUGMENTED = [
    augment(make_spectrum(["0.4", "0.4", "0.1", "0.1"]), two_qubit_catalyst(F(3, 5))),
    augment(make_spectrum(["1/2", "1/4", "1/4", "0"]), make_catalyst(["1/6", "1/2", "1/3"])),
]


@pytest.mark.parametrize("value", AUGMENTED)
def test_augmented_spectrum_is_a_frozen_value(value):
    # augment sets scaled through the slot's setter, with no __init__.
    twin = AugmentedSpectrum(value.scaled)
    assert value == twin and hash(value) == hash(twin)
    for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        test_duplicates_are_equal(value, ("scaled",), duplicate)
    test_frozen(value, ("scaled",))


@pytest.mark.parametrize("p,twin", [(F(3, 5), ["3/5", "2/5"]), (F(1), ["1", "0"])])
def test_two_qubit_catalyst_is_a_frozen_value(p, twin):
    # Built like augment's values; the twin comes through make_catalyst.
    value, twin = two_qubit_catalyst(p), make_catalyst(twin)
    assert value == twin and hash(value) == hash(twin) and value.scaled == twin.scaled
    for duplicate in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        test_duplicates_are_equal(value, ("kappa",), duplicate)
    test_frozen(value, ("scaled", "kappa"))


def test_augmented_spectrum_reads_as_its_fraction_tuple():
    value = AUGMENTED[0]
    expected = tuple(F(x, 100) for x in (24, 24, 16, 16, 6, 6, 4, 4))
    assert value == expected and expected == value
    assert value != expected[:-1] and expected[:-1] != value
    assert value != list(expected) and hash(value) == hash(expected)
    assert len(value) == 8 and repr(value) == repr(expected)
    assert [value[i] for i in range(-8, 8)] == [*expected, *expected]
    assert value[1:4] == expected[1:4] and value[::-3] == expected[::-3]
    assert all(type(x) is F for x in (*value, *value[:], value[-1]))
    with pytest.raises(IndexError):
        value[8]
    # The same value over another denominator is equal, with an equal hash.
    twin = AugmentedSpectrum(((24, 24, 16, 16, 6, 6, 4, 4), 100))
    assert twin.scaled != value.scaled
    assert twin == value and value == twin and hash(twin) == hash(value)
