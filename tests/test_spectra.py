import cProfile
import pstats
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qcatalyst import (
    CatalystSpectrum,
    EpsilonTriple,
    Spectrum4,
    StarViolation,
    construct_states,
    epsilon_decompose,
    is_majorized_by,
    is_valid_catalyst,
    make_catalyst,
    make_spectrum,
    mu_admissible_bound,
    parse_rational,
    render_decimal,
    sweep_grid,
    two_qubit_catalyst,
)
import qcatalyst.spectra as spectra_module
from qcatalyst.rationals import _as_pair
from qcatalyst.spectra import MAX_CATALYST_BITS

from support import satisfies_star, spectra, star_pairs


class _SubFraction(Fraction):
    """A Fraction subclass: an exact value, but not of the exact type."""


CAT_SOURCE = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
CAT_TARGET = make_spectrum(["0.5", "0.25", "0.25", "0"])
HARD_SOURCE = make_spectrum(["0.45", "0.45", "0.05", "0.05"])
HARD_TARGET = make_spectrum(["0.5", "0.35", "0.15", "0"])


class TestMakeSpectrum:
    def test_sorts_descending(self):
        s = make_spectrum(["0.1", "0.4", "0.4", "0.1"])
        assert s.alpha == (
            Fraction(2, 5),
            Fraction(2, 5),
            Fraction(1, 10),
            Fraction(1, 10),
        )

    def test_already_canonical(self):
        assert CAT_TARGET.alpha == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(0),
        )

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_spectrum(["0.3", "0.3", "0.3", "0.3"])

    def test_negative_component(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_spectrum(["0.5", "0.5", "0.1", "-0.1"])

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="exactly 4"):
            make_spectrum(["0.5", "0.5"])

    @pytest.mark.parametrize(
        "text,message", [("1/0", "zero denominator"), ("1e-100000000", "exceeds 4300")]
    )
    def test_strings_go_through_parse_rational(self, text, message):
        with pytest.raises(ValueError, match=message):
            make_spectrum([text, "0", "0", "1"])

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="not exact"):
            make_spectrum([0.4, 0.4, 0.1, 0.1])
        # bool is an int subclass; True is not the rational 1.
        with pytest.raises(TypeError, match="not rationals"):
            make_spectrum([True, False, False, False])

    def test_direct_construction_requires_canonical(self):
        with pytest.raises(ValueError, match="sorted descending"):
            Spectrum4((Fraction(1, 10), Fraction(2, 5), Fraction(2, 5), Fraction(1, 10)))


class Weight(IntEnum):
    ONE = 1
    THREE = 3


class TestOutsideRationals:
    """rationals._as_pair, the one converter for values the library reads."""

    @pytest.mark.parametrize(
        "value,pair",
        [
            ("0.40", (2, 5)),
            ("-6/4", (-3, 2)),
            ("0/7", (0, 1)),
            (" 15e-1 ", (3, 2)),
            (Fraction(6, 4), (3, 2)),
            (3, (3, 1)),
            (-4, (-4, 1)),
            (Decimal("0.40"), (2, 5)),
            (Decimal("-15E-1"), (-3, 2)),
            (Weight.THREE, (3, 1)),
        ],
    )
    def test_lowest_terms(self, value, pair):
        result = _as_pair(value)
        assert result == pair and all(type(x) is int for x in result)

    @pytest.mark.parametrize(
        "values,twin",
        [
            ([Decimal("0.4"), Decimal("0.40"), Decimal("1E-1"), Decimal("0.1")],
             ["0.4", "0.40", "1e-1", "0.1"]),
            ([Weight.ONE, 0, 0, 0], ["1", "0", "0", "0"]),
            ([Fraction(1, 2), 0, Decimal("0.25"), "1/4"], ["1/2", "0", "0.25", "1/4"]),
        ],
        ids=["decimals", "int-enum", "mixed"],
    )
    def test_other_rationals_read_as_their_text(self, values, twin):
        # A value that is neither text, an int nor a Fraction is read
        # through Fraction(value), into the string twin's spectrum.
        assert make_spectrum(values).scaled == make_spectrum(twin).scaled

    def test_decimal_nan_is_a_value_error(self):
        with pytest.raises(ValueError, match="cannot convert NaN"):
            make_spectrum([Decimal("NaN"), "1", "0", "0"])

    @pytest.mark.parametrize(
        "value,message",
        [
            (0.5, "binary floats are not exact; pass a Fraction, int, or string"),
            (True, "booleans are not rationals; pass a Fraction, int, or string"),
            (False, "booleans are not rationals; pass a Fraction, int, or string"),
        ],
    )
    def test_float_and_bool_messages(self, value, message):
        with pytest.raises(TypeError) as info:
            _as_pair(value)
        assert str(info.value) == message

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), min_size=1, max_size=8))
    def test_unreduced_text_is_stored_in_lowest_terms(self, parts):
        # Components w*c/(W*c), which sum to 1 and share factors with their
        # denominators; each is reduced once, as it is read, and the
        # catalyst over their lcm is in lowest terms with no second gcd.
        total = sum(w for w, _ in parts)
        assume(total > 0)
        texts = [f"{w * c}/{total * c}" for w, c in parts]
        catalyst = make_catalyst(texts)
        nums, den = catalyst.scaled
        assert gcd(den, *nums) == 1
        assert catalyst == CatalystSpectrum(tuple(sorted(map(Fraction, texts), reverse=True)))

    def test_every_reader_gets_lowest_terms(self):
        assert two_qubit_catalyst("6/10").scaled == ((3, 2), 5)
        assert mu_admissible_bound("2/6", "2/4") == mu_admissible_bound(Fraction(1, 3), "0.5")
        # 6/10 is the lattice point 3/5, not a second row beside it.
        assert sweep_grid(5, ("6/10", "5/8")) == [
            Fraction(1, 2), Fraction(3, 5), Fraction(5, 8), Fraction(4, 5), Fraction(1)
        ]


class TestNamedParseErrors:
    """A reader that names its value puts the name in front of a string's
    parse error; range and domain messages carry no name."""

    @pytest.mark.parametrize(
        "read,prefix",
        [
            (lambda: two_qubit_catalyst("x"), "p: "),
            (lambda: is_valid_catalyst(CAT_SOURCE, CAT_TARGET, "x"), "p: "),
            (lambda: construct_states("x", "1/2"), "m0: "),
            (lambda: construct_states("1", "1/0"), "M0: "),
            (lambda: construct_states("1", "1/2", "1e9999"), "mu: "),
            (lambda: make_catalyst(["0.5", "x"]), "catalyst: "),
        ],
        ids=["two-qubit", "is-valid", "m0", "M0", "mu", "catalyst"],
    )
    def test_named(self, read, prefix):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value).startswith(prefix)
        assert "rational" in str(info.value)

    def test_unnamed(self):
        with pytest.raises(ValueError) as info:
            make_spectrum(["x", "0", "0", "1"])
        assert str(info.value) == "malformed rational 'x'"
        with pytest.raises(ValueError) as info:
            _as_pair("x")
        assert str(info.value) == "malformed rational 'x'"

    def test_range_messages_carry_no_name(self):
        with pytest.raises(ValueError, match=r"^two-qubit catalyst parameter"):
            two_qubit_catalyst("2/5")
        with pytest.raises(ValueError, match=r"^m0 must be positive"):
            construct_states("0", "1/2")

    def test_every_value_is_read_before_the_domain_checks(self):
        # m0 is out of range and mu is malformed: mu's parse error comes
        # first, as when the CLI parsed all three before constructing.
        with pytest.raises(ValueError, match=r"^mu: malformed rational 'x'$"):
            construct_states("0", "1/2", "x")


class TestCatalystCap:
    def test_prime_catalyst_refused(self):
        # 3,200 components 1/(N q) and (q-1)/(N q) over N = 1,600 distinct
        # 5-digit primes q: about 6,800 digits of common denominator.
        n = 1600
        primes = [q for q in range(10_001, 30_000, 2) if all(q % d for d in range(3, 174, 2))]
        catalyst = [text for q in primes[:n] for text in (f"1/{n * q}", f"{q - 1}/{n * q}")]
        with pytest.raises(ValueError) as info:
            make_catalyst(catalyst)
        message = str(info.value)
        assert message.startswith(f"catalyst: {2 * n} components times ")
        assert message.endswith(f"bits of their common denominator exceed {MAX_CATALYST_BITS}")

    def test_reading_stops_at_the_first_step_over_the_cap(self, monkeypatch):
        read = []

        def counted(value, name=""):
            read.append(value)
            return _as_pair(value, name)

        monkeypatch.setattr(spectra_module, "_as_pair", counted)
        with pytest.raises(ValueError, match="^catalyst: 200001 components times 1 or more bits"):
            make_catalyst(["1", *["0"] * 200_000])
        assert read == ["1"]

    def test_any_iterable_is_read(self):
        assert make_catalyst(iter(["0.4", "0.6"])).kappa == (Fraction(3, 5), Fraction(2, 5))


class TestCatalysts:
    def test_make_catalyst_sorts(self):
        assert make_catalyst(["0.4", "0.6"]).kappa == (Fraction(3, 5), Fraction(2, 5))

    def test_single_component(self):
        assert make_catalyst(["1"]).kappa == (Fraction(1),)

    def test_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_catalyst(["0.6", "0.6"])

    def test_two_qubit_catalyst(self):
        assert two_qubit_catalyst(Fraction(3, 5)).kappa == (Fraction(3, 5), Fraction(2, 5))
        assert two_qubit_catalyst(Fraction(1, 2)).kappa == (Fraction(1, 2), Fraction(1, 2))
        assert two_qubit_catalyst(1).kappa == (Fraction(1), Fraction(0))

    def test_two_qubit_catalyst_rejects_bool(self):
        # bool is an int subclass; True is not p = 1.
        with pytest.raises(TypeError, match="not rationals"):
            two_qubit_catalyst(True)

    @pytest.mark.parametrize("p", ["2/5", "11/10"])
    def test_two_qubit_catalyst_range(self, p):
        with pytest.raises(ValueError, match=r"\[1/2, 1\]"):
            two_qubit_catalyst(Fraction(p))

    @pytest.mark.parametrize(
        "p,pair_reads",
        [(Fraction(3, 5), 0), (_SubFraction(3, 5), 1), ("6/10", 1), (1, 1)],
        ids=["Fraction", "subclass", "str", "int"],
    )
    def test_only_an_exact_fraction_p_skips_as_pair(self, p, pair_reads):
        # _two_qubit_parameter reads an exact Fraction's own pair; any other
        # p, a Fraction subclass too, is read by _as_pair into the same value.
        profile = cProfile.Profile()
        catalyst = profile.runcall(two_qubit_catalyst, p)
        assert sum(calls for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
                   if name == "_as_pair") == pair_reads
        assert catalyst == make_catalyst([Fraction(p), 1 - Fraction(p)])

    @pytest.mark.parametrize(
        "p,error,message",
        [
            *((p, ValueError, "two-qubit catalyst parameter must be in [1/2, 1], got 2/5")
              for p in (Fraction(2, 5), _SubFraction(2, 5), "2/5")),
            (0, ValueError, "two-qubit catalyst parameter must be in [1/2, 1], got 0"),
            (True, TypeError, "booleans are not rationals; pass a Fraction, int, or string"),
        ],
        ids=["Fraction", "subclass", "str", "int", "bool"],
    )
    def test_every_kind_of_p_is_refused_alike(self, p, error, message):
        with pytest.raises(error) as info:
            two_qubit_catalyst(p)
        assert str(info.value) == message

    def test_empty_catalyst(self):
        with pytest.raises(ValueError, match="at least one"):
            CatalystSpectrum(())


class TestEpsilonDecompose:
    def test_catalyzable_example(self):
        eps = epsilon_decompose(CAT_SOURCE, CAT_TARGET)
        assert eps == EpsilonTriple(Fraction(1, 10), Fraction(1, 20), Fraction(1, 10))

    def test_infeasible_example(self):
        eps = epsilon_decompose(HARD_SOURCE, HARD_TARGET)
        assert eps == EpsilonTriple(Fraction(1, 20), Fraction(1, 20), Fraction(1, 20))

    def test_identical_states_fail(self):
        assert epsilon_decompose(CAT_SOURCE, CAT_SOURCE) is StarViolation.EPS2_NOT_POSITIVE

    def test_reversed_pair_fails(self):
        assert epsilon_decompose(CAT_TARGET, CAT_SOURCE) is StarViolation.EPS1_NEGATIVE

    def test_eps3_violation(self):
        source = make_spectrum(["0.4", "0.3", "0.2", "0.1"])
        target = make_spectrum(["0.45", "0.2", "0.15", "0.2"])
        assert epsilon_decompose(source, target) is StarViolation.EPS3_NEGATIVE

    def test_triple_signs_enforced(self):
        with pytest.raises(ValueError, match="eps1 >= 0"):
            EpsilonTriple(Fraction(-1, 10), Fraction(1, 10), Fraction(0))
        with pytest.raises(ValueError):
            EpsilonTriple(Fraction(1, 10), Fraction(0), Fraction(0))

    def test_violation_names_inequality(self):
        assert "source1" in StarViolation.EPS1_NEGATIVE.inequality
        assert ">" in StarViolation.EPS2_NOT_POSITIVE.inequality


def reference_decompose(source, target):
    """The module docstring's formulas on the Fraction components, with the
    first violation in (eps1, eps2, eps3) order."""
    eps1 = target[0] - source[0]
    eps2 = (source[0] + source[1]) - (target[0] + target[1])
    eps3 = source[3] - target[3]
    for violated, condition in [
        (eps1 < 0, StarViolation.EPS1_NEGATIVE),
        (eps2 <= 0, StarViolation.EPS2_NOT_POSITIVE),
        (eps3 < 0, StarViolation.EPS3_NEGATIVE),
    ]:
        if violated:
            return condition
    return EpsilonTriple(eps1, eps2, eps3)


def built_or_message(build, values):
    """(type, scaled) of build(values), or the message of its ValueError."""
    try:
        value = build(values)
    except ValueError as exc:
        return str(exc)
    return type(value), value.scaled


@st.composite
def component_texts(draw):
    """1 to 5 rational strings over one denominator, written as "n/d", in
    unreduced "kn/kd" form or as a terminating decimal; they sum to 1 unless
    a component is moved off, and may be negative."""
    d = draw(st.integers(1, 40))
    parts = draw(st.lists(st.integers(-2, d), min_size=1, max_size=5))
    if draw(st.booleans()):
        parts[-1] = d - sum(parts[:-1])
    k = draw(st.integers(1, 3))
    texts = []
    for n in parts:
        decimal, exact = render_decimal(Fraction(n, d))
        texts.append(decimal if exact and draw(st.booleans()) else f"{k * n}/{k * d}")
    return texts


def fraction_spectrum(texts):
    """make_spectrum's reference: each text to a Fraction, sorted, through
    the checked public constructor."""
    return Spectrum4(tuple(sorted(map(parse_rational, texts), reverse=True)))


def fraction_catalyst(texts):
    return CatalystSpectrum(tuple(sorted(map(parse_rational, texts), reverse=True)))


class TestOnTheInts:
    @given(component_texts())
    def test_make_spectrum_matches_the_fraction_reference(self, texts):
        expected = built_or_message(fraction_spectrum, texts)
        assert built_or_message(make_spectrum, texts) == expected
        assert built_or_message(make_spectrum, list(map(parse_rational, texts))) == expected

    @given(component_texts())
    def test_make_catalyst_matches_the_fraction_reference(self, texts):
        expected = built_or_message(fraction_catalyst, texts)
        assert built_or_message(make_catalyst, texts) == expected
        assert built_or_message(make_catalyst, list(map(parse_rational, texts))) == expected

    @pytest.mark.parametrize(
        "build,texts,message",
        [
            (make_spectrum, ["1/2", "1/2"], "spectrum needs exactly 4 components, got 2"),
            (make_spectrum, ["3/4", "1/2", "-1/4", "0"], "spectrum components must be nonnegative"),
            (
                make_spectrum, ["0.4", "0.4", "0.1", "0.2"],
                "spectrum components must sum to 1, got 11/10",
            ),
            (make_catalyst, [], "catalyst needs at least one component"),
            (make_catalyst, ["6/5", "-1/5"], "catalyst components must be nonnegative"),
            (make_catalyst, ["0.60", "0.60"], "catalyst components must sum to 1, got 6/5"),
        ],
    )
    def test_messages(self, build, texts, message):
        assert built_or_message(build, texts) == message

    def test_given_orders_are_checked(self):
        # Only __init__ takes the order as given; _of sorts.
        with pytest.raises(ValueError, match="catalyst components must be sorted descending"):
            CatalystSpectrum((Fraction(1, 3), Fraction(2, 3)))

    def test_make_spectrum_sorts_once(self):
        # _of sorts the numerators, and _checked no longer sorts a copy to
        # test the order (2 sorts at the parent of this change).
        profile = cProfile.Profile()
        profile.runcall(make_spectrum, ["0.1", "0.4", "0.1", "0.4"])
        names = ("<built-in method builtins.sorted>", "<method 'sort' of 'list' objects>")
        sorts = [calls for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
                 if name in names]
        assert sum(sorts) == 1

    def test_reduced_over_the_unreduced_texts(self):
        assert make_spectrum(["0.40", "4/10", "2/20", "0.1"]).scaled == ((4, 4, 1, 1), 10)
        assert make_catalyst(["2/4", "0.50"]).scaled == ((1, 1), 2)


class TestOneStoredForm:
    def test_spectra_store_only_the_integer_form(self):
        slots = {
            name
            for cls in (Spectrum4, CatalystSpectrum)
            for klass in cls.__mro__
            for name in vars(klass).get("__slots__", ())
        }
        assert slots == {"scaled"}

    @given(st.one_of(st.tuples(spectra(), spectra()), star_pairs()))
    def test_decomposition_matches_the_fraction_formulas(self, pair):
        source, target = pair
        decomposed = epsilon_decompose(source, target)
        assert decomposed == reference_decompose(source, target)
        if isinstance(decomposed, EpsilonTriple):
            slacks = (decomposed.eps1, decomposed.eps2, decomposed.eps3)
            assert all(type(eps) is Fraction for eps in slacks)


class TestSatisfiesStar:
    def test_examples(self):
        assert satisfies_star(CAT_SOURCE, CAT_TARGET)
        assert satisfies_star(HARD_SOURCE, HARD_TARGET)
        assert not satisfies_star(CAT_TARGET, CAT_SOURCE)


class TestStarProperties:
    @given(spectra(), spectra())
    def test_star_equivalent_to_decomposition(self, source, target):
        decomposed = epsilon_decompose(source, target)
        assert satisfies_star(source, target) == isinstance(decomposed, EpsilonTriple)

    @given(star_pairs())
    def test_generated_pairs_decompose(self, pair):
        source, target = pair
        assert isinstance(epsilon_decompose(source, target), EpsilonTriple)

    @given(star_pairs())
    def test_reconstruction(self, pair):
        source, target = pair
        eps = epsilon_decompose(source, target)
        assert target.alpha == (
            source[0] + eps.eps1,
            source[1] - eps.eps1 - eps.eps2,
            source[2] + eps.eps2 + eps.eps3,
            source[3] - eps.eps3,
        )

    @given(star_pairs())
    def test_positive_eps2_blocks_majorization(self, pair):
        source, target = pair
        assert not is_majorized_by(source.alpha, target.alpha)
