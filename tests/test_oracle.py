import contextlib
import cProfile
import fractions
import io
import json
import pstats
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcatalyst.cli as cli
from qcatalyst import (
    FeasibilityReport,
    Spectrum4,
    Verdict,
    analyze,
    augment,
    compute_M,
    compute_m,
    construct_states,
    epsilon_decompose,
    feasible_p_set,
    first_violated_index,
    is_majorized_by,
    is_valid_catalyst,
    locc_possible,
    make_catalyst,
    make_spectrum,
    oracle_valid_catalyst,
    sweep,
    sweep_grid,
    two_qubit_catalyst,
)
from qcatalyst.oracle import AugmentedSpectrum, _p_set, _sum_gaps

from support import (
    catalyst_params,
    catalysts,
    child_env,
    coprime_star_pairs,
    power_sums_allow_catalysis,
    reference_oracle,
    spectra,
    star_pairs,
)

F = Fraction

CAT_SOURCE = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
CAT_TARGET = make_spectrum(["0.5", "0.25", "0.25", "0"])
HARD_SOURCE = make_spectrum(["0.45", "0.45", "0.05", "0.05"])
HARD_TARGET = make_spectrum(["0.5", "0.35", "0.15", "0"])
WORKED_CATALYST = make_catalyst(["0.6", "0.4"])


class TestAugment:
    def test_source_products(self):
        assert augment(CAT_SOURCE, WORKED_CATALYST) == tuple(
            F(x, 100) for x in (24, 24, 16, 16, 6, 6, 4, 4)
        )

    def test_target_products(self):
        assert augment(CAT_TARGET, WORKED_CATALYST) == tuple(
            F(x, 100) for x in (30, 20, 15, 15, 10, 10, 0, 0)
        )

    def test_trivial_catalyst_is_identity(self):
        assert augment(CAT_SOURCE, make_catalyst(["1"])) == CAT_SOURCE.alpha

    @given(spectra(), catalyst_params())
    def test_sorted_and_normalized(self, state, p):
        products = augment(state, two_qubit_catalyst(p))
        assert list(products) == sorted(products, reverse=True)
        assert sum(products) == 1

    @given(spectra(), st.lists(st.integers(0, 10**7), min_size=1, max_size=5))
    def test_equals_sorted_fraction_products(self, state, weights):
        # Catalysts of any length, with denominators up to 5 * 10**7.
        total = sum(weights) or 1
        weights[0] += total - sum(weights)
        catalyst = make_catalyst(F(w, total) for w in weights)
        expected = sorted((a * k for a in state.alpha for k in catalyst.kappa), reverse=True)
        assert augment(state, catalyst) == tuple(expected)
        assert all(type(x) is F for x in augment(state, catalyst))


class TestOracleValidCatalyst:
    def test_worked_example(self):
        assert oracle_valid_catalyst(CAT_SOURCE, CAT_TARGET, WORKED_CATALYST)

    def test_infeasible_low_p(self):
        assert not oracle_valid_catalyst(
            HARD_SOURCE, HARD_TARGET, make_catalyst(["0.55", "0.45"])
        )

    def test_infeasible_high_p(self):
        assert not oracle_valid_catalyst(
            HARD_SOURCE, HARD_TARGET, make_catalyst(["0.7", "0.3"])
        )

    def test_three_component_catalyst_accepted(self):
        catalyst = make_catalyst(["0.5", "0.3", "0.2"])
        expected = is_majorized_by(
            augment(CAT_SOURCE, catalyst), augment(CAT_TARGET, catalyst)
        )
        assert oracle_valid_catalyst(CAT_SOURCE, CAT_TARGET, catalyst) == expected

    @given(spectra(), spectra())
    def test_unit_catalyst_reduces_to_locc(self, source, target):
        assert oracle_valid_catalyst(
            source, target, make_catalyst(["1"])
        ) == locc_possible(source, target)

    @given(st.permutations(["0.5", "0.3", "0.2"]))
    def test_component_order_irrelevant(self, components):
        catalyst = make_catalyst(components)
        assert oracle_valid_catalyst(CAT_SOURCE, CAT_TARGET, catalyst) == (
            oracle_valid_catalyst(CAT_SOURCE, CAT_TARGET, make_catalyst(["0.5", "0.3", "0.2"]))
        )


@st.composite
def constructed_pairs(draw):
    """Catalyzable pairs with bounds (m0, M0), built by construct_states."""
    big_m0 = draw(st.fractions(F(1, 50), F(49, 50), max_denominator=50))
    m0 = draw(st.fractions(F(1, 50), big_m0, max_denominator=50))
    result = construct_states(m0, big_m0)
    return result.source, result.target


# Pairs that often reach the catalyzable regime, which arbitrary pairs rarely do.
catalyzable_leaning = st.one_of(star_pairs(feasible_leaning=True), constructed_pairs())
any_pairs = st.one_of(st.tuples(spectra(), spectra()), star_pairs(), catalyzable_leaning)


def fraction_calls(method: str, fn, *args) -> int:
    """How many times one call of fn(*args) runs Fraction.<method>, under cProfile."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(
        calls
        for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if path == fractions.__file__ and name == method
    )


def fractions_built(fn, *args) -> int:
    """How many Fractions one call of fn(*args) creates, under cProfile."""
    return fraction_calls("__new__", fn, *args)


def python_calls(fn, *args) -> int:
    """How many Python-level function calls one call of fn(*args) makes,
    itself included, under cProfile; built-ins are not counted."""
    profile = cProfile.Profile()
    profile.runcall(fn, *args)
    return sum(calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path != "~")


def violation_or_message(a, b):
    """first_violated_index(a, b), or the message of its ValueError."""
    try:
        return first_violated_index(a, b)
    except ValueError as exc:
        return str(exc)


def cli_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class TestOnTheIntegers:
    def test_uncached_analyze_request_builds_only_m_and_M(self):
        # Text to ints, the spectra, the slacks, the bounds and the report
        # are all ints; the report's m and M are the two Fractions (36 when
        # the request went through Fractions).
        argv = ["analyze", "--source", "0.4,0.4,0.1,0.1", "--target", "0.5,0.25,0.25,0"]
        analyze.cache_clear()
        assert fractions_built(cli_quietly, argv) == 2

    def test_uncached_sweep_request_builds_no_fraction_for_the_grid(self):
        # Only analyze's m and M: the interval ends reach the grid as
        # _p_ends's int pairs, and the referee's breakpoints, roots and
        # pieces are _p_set's int pairs (17 when the referee built them as
        # Fractions, 19 when the ends also came as p_interval's Fractions).
        argv = ["sweep", "--source", "0.4,0.4,0.1,0.1", "--target", "0.5,0.25,0.25,0"]
        analyze.cache_clear()
        assert fractions_built(cli_quietly, [*argv, "--denominator", "20"]) == 2

    def test_lorenz_request_builds_no_fraction(self):
        # The rows come from the spectra's int partial sums (20 when they
        # went through majorization.lorenz_points).
        argv = ["lorenz", "0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0"]
        assert fractions_built(cli_quietly, argv) == 0

    def test_feasible_p_set_builds_only_its_ends(self):
        # Two Fractions per piece returned, none for a breakpoint or a root.
        assert fractions_built(feasible_p_set, CAT_SOURCE, CAT_TARGET) == 2
        assert fractions_built(feasible_p_set, HARD_SOURCE, HARD_TARGET) == 0

    def test_p_interval_builds_only_its_ends(self):
        # The ends come from the bounds' int pairs (4 when they were 1/(1+r)).
        report = analyze(CAT_SOURCE, CAT_TARGET)
        assert fractions_built(FeasibilityReport.p_interval.fget, report) == 2
        assert report.p_interval == (F(3, 5), F(5, 8))

    def test_locc_verdict_builds_no_fraction(self):
        source = make_spectrum([F(1, 2), F(1, 4), F(1, 4), F(0)])
        target = make_spectrum([F(1), F(0), F(0), F(0)])
        analyze.cache_clear()
        assert fractions_built(analyze, source, target) == 0
        assert analyze(source, target).verdict is Verdict.LOCC_ALREADY_POSSIBLE

    def test_each_bound_builds_one_fraction(self):
        eps = epsilon_decompose(CAT_SOURCE, CAT_TARGET)
        assert fractions_built(compute_m, CAT_SOURCE, eps) == 1
        assert fractions_built(compute_M, CAT_SOURCE, eps) == 1

    def test_construct_request(self):
        # The constructor reads m0 and M0 as int pairs and builds and checks
        # the pair on the ints: the one Fraction is mu (3 when the CLI parsed
        # m0, M0 into Fractions, 123 when it worked in Fractions).
        assert fractions_built(cli_quietly, ["construct", "--m0", "7/30", "--M0", "3/7"]) == 1

    @pytest.mark.parametrize(
        "argv,document,twin,count",
        [
            (
                ["analyze"],
                {"source": [1, 0, 0, 0], "target": [1, 0, 0, 0]},
                {"source": ["1", "0", "0", "0"], "target": ["1", "0", "0", "0"]},
                0,
            ),
            (["construct"], {"m0": 1, "M0": "1/2"}, {"m0": "1", "M0": "1/2"}, 1),
        ],
        ids=["analyze", "construct"],
    )
    def test_document_ints_build_as_many_fractions_as_their_text(
        self, monkeypatch, argv, document, twin, count
    ):
        # A JSON int reaches _as_pair as an int and is read as (value, 1)
        # (8 Fractions for the analyze document and 2 for construct's, mu
        # and m0, when an int went through Fraction(value)).
        def built(doc):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
            analyze.cache_clear()
            return fractions_built(cli_quietly, argv)

        assert built(document) == built(twin) == count

    def test_no_fraction_per_check(self):
        catalyst = two_qubit_catalyst(F(3, 5))
        assert fractions_built(oracle_valid_catalyst, CAT_SOURCE, CAT_TARGET, catalyst) == 0
        # The count sees Fractions where they are made: when the products are read.
        assert fractions_built(tuple, augment(CAT_SOURCE, catalyst)) == 8

    def test_python_calls_per_check(self):
        # The referee: oracle_valid_catalyst, augment twice, is_majorized_by
        # and first_violated_index, which reads each spectrum's scaled
        # itself (9 when augment called a product helper and
        # AugmentedSpectrum's __init__, 13 with a comprehension in that helper
        # and a form reader per spectrum).  augment alone is its own frame (3).
        # The cached rule hashes each spectrum in one frame (10 when __hash__
        # called a comparison-key hook) and reads its exact Fraction p
        # without _as_pair (8); two_qubit_catalyst is itself,
        # _two_qubit_parameter and Fraction.as_integer_ratio (5 through
        # _as_pair and a builder helper).
        # The cache starts empty: a cached key that is an equal spectrum but
        # another object would add its comparisons to the count.
        p = F(3, 5)
        catalyst = two_qubit_catalyst(p)
        analyze.cache_clear()
        assert python_calls(oracle_valid_catalyst, CAT_SOURCE, CAT_TARGET, catalyst) == 5
        assert python_calls(augment, CAT_SOURCE, catalyst) == 1
        assert python_calls(two_qubit_catalyst, p) == 3
        assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, p)
        assert python_calls(is_valid_catalyst, CAT_SOURCE, CAT_TARGET, p) == 7

    def test_python_calls_per_build_and_comparison(self):
        # A spectrum's slot is set where it is built (21 for make_spectrum
        # and 14 for Spectrum4 when a builder helper and _Scaled.__init__
        # set it).  _sum_gaps sorts its products in its own frame (4 through
        # a helper per list), so _p_set of the worked pair makes 28 (36).
        # A cache hit on equal spectra that are other objects hashes and
        # compares each in one frame (8 through a comparison-key hook).
        values = ["0.4", "0.4", "0.1", "0.1"]
        assert python_calls(make_spectrum, values) == 20
        assert python_calls(Spectrum4, CAT_SOURCE.alpha) == 13
        # The worked pair over one denominator, 40, and p = 3/5.
        assert python_calls(_sum_gaps, [16, 16, 4, 4], [20, 10, 10, 0], (3, 5)) == 2
        assert python_calls(_p_set, CAT_SOURCE, CAT_TARGET) == 28
        analyze(CAT_SOURCE, CAT_TARGET)
        source, target = make_spectrum(values), make_spectrum(["0.5", "0.25", "0.25", "0"])
        assert (source, target) == (CAT_SOURCE, CAT_TARGET) and source is not CAT_SOURCE
        hits = analyze.cache_info().hits
        assert python_calls(analyze, source, target) == 4
        assert analyze.cache_info().hits == hits + 1

    def test_validate_catalyst_request_reads_each_component_once(self):
        # Each component text goes to make_catalyst and is read once, by
        # _as_pair, into its reduced int pair, from which the catalyst is
        # built (none when the CLI parsed the components itself).  The
        # request builds only analyze's m and M: 2 (5 when each component
        # was parsed into a Fraction).
        components = ["0.5", "0.3", "0.2"]
        profile = cProfile.Profile()
        profile.runcall(cli._catalyst, {"catalyst": components})
        assert sum(calls for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
                   if name == "_as_pair") == 3
        argv = ["validate", "--source", "0.4,0.4,0.1,0.1", "--target", "0.5,0.25,0.25,0"]
        analyze.cache_clear()
        assert fractions_built(cli_quietly, [*argv, "--catalyst", ",".join(components)]) == 2

    def test_slack_decomposition_builds_a_fraction_per_slack(self):
        # One reduced Fraction per slack of a returned triple, none on a violation.
        assert fractions_built(epsilon_decompose, CAT_SOURCE, CAT_TARGET) == 3
        assert fractions_built(epsilon_decompose, CAT_TARGET, CAT_SOURCE) == 0

    def test_two_qubit_catalyst_builds_no_fraction(self):
        p = F(3, 5)
        assert fractions_built(two_qubit_catalyst, p) == 0

    def test_cached_catalyst_check_compares_no_fraction(self):
        # The check reads the report's bounds on the ints, not its verdict (m > M).
        p = F(3, 5)
        assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, p)
        assert fraction_calls("_richcmp", is_valid_catalyst, CAT_SOURCE, CAT_TARGET, p) == 0

    def test_cli_import_leaves_dataclasses_out(self):
        code = "import sys, qcatalyst.cli; print('dataclasses' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    def test_mismatch_messages_match_the_fraction_tuples(self):
        a = augment(CAT_SOURCE, WORKED_CATALYST)
        longer = augment(CAT_TARGET, make_catalyst(["0.5", "0.3", "0.2"]))
        halved = AugmentedSpectrum((a.scaled[0], 2 * a.scaled[1]))
        for b, message in [(longer, "length mismatch: 8 vs 12"), (halved, "total mismatch: 1 vs 1/2")]:
            assert violation_or_message(a, b) == message
            assert violation_or_message(tuple(a), tuple(b)) == message

    @given(st.one_of(any_pairs, coprime_star_pairs()), catalysts(), catalysts(), st.integers(0, 2))
    @settings(max_examples=200)
    def test_first_violated_index_reads_the_ints_as_the_fractions(self, pair, c1, c2, shift):
        # Catalysts of different lengths give a length mismatch, and a
        # shifted denominator (shift > 0) a total mismatch.
        source, target = pair
        a = augment(source, c1)
        nums, den = augment(target, c2).scaled
        b = AugmentedSpectrum((nums, den + shift))
        assert violation_or_message(a, b) == violation_or_message(tuple(a), tuple(b))


class TestAgainstFractionReference:
    @given(any_pairs, catalysts())
    @settings(max_examples=200)
    def test_catalysts_of_any_length(self, pair, catalyst):
        assert oracle_valid_catalyst(*pair, catalyst) == reference_oracle(*pair, catalyst)

    @given(
        st.one_of(coprime_star_pairs(), coprime_star_pairs(feasible_leaning=True)),
        st.one_of(catalysts(), st.builds(two_qubit_catalyst, catalyst_params(10**7))),
    )
    @settings(max_examples=100)
    def test_large_denominators(self, pair, catalyst):
        assert oracle_valid_catalyst(*pair, catalyst) == reference_oracle(*pair, catalyst)

    @given(catalyzable_leaning)
    @settings(max_examples=100)
    def test_at_the_ends_of_the_feasible_set(self, pair):
        # Where the verdict turns: each end of the set and just outside it.
        just = F(1, 10**9)
        for lo, hi in feasible_p_set(*pair):
            for p in {lo, hi, max(lo - just, F(1, 2)), min(hi + just, F(1))}:
                catalyst = two_qubit_catalyst(p)
                assert oracle_valid_catalyst(*pair, catalyst) == reference_oracle(*pair, catalyst)


def crossings(state):
    """Every p = y/(x+y) in [1/2, 1] for components x, y of the spectrum."""
    return {y / (x + y) for x in state for y in state if x + y and x <= y}


def implied_p_set(source, target):
    """The p-set the interval rule's verdict implies."""
    report = analyze(source, target)
    return {
        Verdict.LOCC_ALREADY_POSSIBLE: ((F(1, 2), F(1)),),
        Verdict.CATALYZABLE: (report.p_interval,),
        Verdict.INFEASIBLE: (),
    }[report.verdict]


def in_p_set(pieces, p) -> bool:
    return any(lo <= p <= hi for lo, hi in pieces)


def assert_membership_is_the_oracle_verdict(source, target, extra_points=()):
    """The feasible set is sorted and disjoint, and membership equals the
    oracle at every breakpoint, at every endpoint, 1e-9 outside each
    endpoint and at each extra point in [1/2, 1]."""
    pieces = feasible_p_set(source, target)
    assert list(pieces) == sorted(pieces)
    assert all(lo <= hi for lo, hi in pieces)
    assert all(a[1] < b[0] for a, b in zip(pieces, pieces[1:]))
    just = F(1, 10**9)
    points = {*extra_points, *crossings(source), *crossings(target)}
    for lo, hi in pieces:
        points |= {lo, hi, lo - just, hi + just}
    for p in points:
        if F(1, 2) <= p <= 1:
            catalyst = two_qubit_catalyst(p)
            assert in_p_set(pieces, p) == oracle_valid_catalyst(source, target, catalyst)


def on_lattice(d, twentieths):
    """The spectrum of the weights, in twentieths, rounded down to
    multiples of 1/d; the last component takes the remainder."""
    parts = [w * d // 20 for w in twentieths]
    parts[-1] += d - sum(parts)
    return make_spectrum([F(x, d) for x in parts])


# The worked pair at the input digit limit: the source over 10**4299 + 3
# and the target over 10**4299 + 7 (4,300-digit denominators, every
# numerator up to 4,299 digits); catalyzable, with 8,598-digit ends.
LIMIT_PAIR = (on_lattice(10**4299 + 3, [8, 8, 2, 2]), on_lattice(10**4299 + 7, [10, 5, 5, 0]))


class TestFeasiblePSet:
    def test_worked_example(self):
        assert feasible_p_set(CAT_SOURCE, CAT_TARGET) == ((F(3, 5), F(5, 8)),)

    def test_infeasible_pair_is_empty(self):
        assert feasible_p_set(HARD_SOURCE, HARD_TARGET) == ()

    def test_locc_pair_is_whole_range(self):
        source = make_spectrum([F(1, 4)] * 4)
        assert feasible_p_set(source, CAT_TARGET) == ((F(1, 2), F(1)),)

    def test_isolated_point(self):
        # m = M = 1/3 leaves the single catalyst p = 1/(1 + 1/3).
        pair = construct_states(F(1, 3), F(1, 3))
        assert feasible_p_set(pair.source, pair.target) == ((F(3, 4), F(3, 4)),)

    @given(spectra(), spectra())
    @settings(max_examples=300)
    def test_equals_what_analyze_implies(self, source, target):
        assert feasible_p_set(source, target) == implied_p_set(source, target)

    @given(catalyzable_leaning)
    @settings(max_examples=150)
    def test_equals_the_p_interval_near_catalysis(self, pair):
        assert feasible_p_set(*pair) == implied_p_set(*pair)

    @given(any_pairs, st.lists(catalyst_params(1000), max_size=5))
    @settings(max_examples=150)
    def test_membership_is_the_oracle_verdict(self, pair, random_ps):
        assert_membership_is_the_oracle_verdict(*pair, random_ps)

    @given(st.one_of(coprime_star_pairs(), coprime_star_pairs(feasible_leaning=True)))
    @settings(max_examples=100)
    def test_membership_is_the_oracle_verdict_at_large_denominators(self, pair):
        # Breakpoints and roots with denominators past 10**12; the
        # strategies above stop at 48.
        assert_membership_is_the_oracle_verdict(*pair)

    def test_membership_is_the_oracle_verdict_at_the_digit_limit(self):
        # Ends past 10**8597.  Not an @example of the test above: its
        # oracle checks take 0.15-0.3 s on a 2-core host, around the 200 ms
        # deadline hypothesis applies to explicit examples too.
        assert len(feasible_p_set(*LIMIT_PAIR)) == 1
        assert_membership_is_the_oracle_verdict(*LIMIT_PAIR)

    @given(any_pairs)
    @settings(max_examples=300)
    def test_power_sums_referee_catalyzable_pairs(self, pair):
        source, target = pair
        if not locc_possible(source, target) and feasible_p_set(source, target):
            assert power_sums_allow_catalysis(source, target)


class TestSweep:
    def test_worked_example_grid(self):
        grid = [F(1, 2), F(3, 5), F(5, 8), F(2, 3), F(3, 4)]
        assert sweep(CAT_SOURCE, CAT_TARGET, grid) == [
            (F(1, 2), False),
            (F(3, 5), True),
            (F(5, 8), True),
            (F(2, 3), False),
            (F(3, 4), False),
        ]

    def test_infeasible_pair_all_false(self):
        grid = sweep_grid(20)
        assert all(not ok for _, ok in sweep(HARD_SOURCE, HARD_TARGET, grid))

    def test_locc_possible_pair_all_true(self):
        source = make_spectrum([F(1, 4)] * 4)
        grid = sweep_grid(10)
        assert all(ok for _, ok in sweep(source, CAT_TARGET, grid))

    def test_out_of_range_grid_value(self):
        with pytest.raises(ValueError, match=r"\[1/2, 1\]"):
            sweep(CAT_SOURCE, CAT_TARGET, [F(1, 4)])

    @pytest.mark.parametrize("p", [F(1, 4), F(11, 10), "0.3", 2])
    def test_out_of_range_message(self, p):
        with pytest.raises(ValueError, match=r"must be in \[1/2, 1\], got "):
            sweep(CAT_SOURCE, CAT_TARGET, [F(3, 5), p])

    def test_strings_and_ints_keep_their_form(self):
        grid = ["0.6", "5/8", 1, "0.5", F(3, 5)]
        assert sweep(CAT_SOURCE, CAT_TARGET, grid) == [
            ("0.6", True),
            ("5/8", True),
            (1, False),
            ("0.5", False),
            (F(3, 5), True),
        ]

    @given(any_pairs, st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_shuffled_grid_matches_the_oracle(self, pair, rng):
        source, target = pair
        grid = sweep_grid(30, analyze(source, target).p_interval)
        rng.shuffle(grid)
        assert sweep(source, target, grid) == [
            (p, oracle_valid_catalyst(source, target, two_qubit_catalyst(p))) for p in grid
        ]

    @given(star_pairs())
    @settings(max_examples=60)
    def test_feasible_set_is_the_predicted_interval(self, pair):
        source, target = pair
        report = analyze(source, target)
        interval = report.p_interval
        grid = sweep_grid(24, interval)
        for p, valid in sweep(source, target, grid):
            expected = interval is not None and interval[0] <= p <= interval[1]
            assert valid == expected


class TestSweepGrid:
    def test_lattice_contents(self):
        assert sweep_grid(4) == [F(1, 2), F(3, 4), F(1)]
        assert sweep_grid(1) == [F(1, 2), F(1)]

    def test_odd_denominator_keeps_boundaries(self):
        assert sweep_grid(5) == [F(1, 2), F(3, 5), F(4, 5), F(1)]

    def test_endpoints_merged_in(self):
        grid = sweep_grid(7, (F(3, 5), F(5, 8)))
        assert grid == [F(1, 2), F(4, 7), F(3, 5), F(5, 8), F(5, 7), F(6, 7), F(1)]

    def test_on_lattice_endpoints_not_duplicated(self):
        grid = sweep_grid(40, (F(3, 5), F(5, 8)))
        assert grid == sweep_grid(40)

    @given(st.integers(1, 200), catalyst_params(), catalyst_params())
    def test_same_grid_as_set_and_sort(self, denominator, a, b):
        interval = (min(a, b), max(a, b))
        lattice = {F(k, denominator) for k in range(-(-denominator // 2), denominator + 1)}
        assert sweep_grid(denominator) == sorted(lattice | {F(1, 2)})
        assert sweep_grid(denominator, interval) == sorted(lattice | {F(1, 2), *interval})

    def test_denominator_validation(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_grid(0)

    @pytest.mark.parametrize(
        "denominator", [True, "5", 100_001, pytest.param(10**5000, id="10**5000")]
    )
    def test_denominator_must_be_an_int(self, denominator):
        # bool is an int subclass; True is not a denominator of 1.  Above
        # 100,000 the grid itself would take seconds to build.  str() refuses
        # 10**5000, yet the message still names the reason.
        with pytest.raises(ValueError, match="positive integer"):
            sweep_grid(denominator)

    def test_endpoint_range_validation(self):
        # An end is read by two_qubit_catalyst's reader, so it raises
        # exactly what two_qubit_catalyst raises for it.
        for end in (F(1, 4), F(1, 10**5000), "3/2", "x"):
            with pytest.raises(ValueError) as expected:
                two_qubit_catalyst(end)
            with pytest.raises(ValueError) as got:
                sweep_grid(10, (end, F(3, 5)))
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
        assert str(got.value) == "p: malformed rational 'x'"
        # The denominator is still checked before the ends.
        with pytest.raises(ValueError, match="positive integer"):
            sweep_grid(0, (F(1, 4), F(3, 5)))

    @pytest.mark.parametrize(
        "interval,message",
        [
            ((0.6, 0.7), "not exact"),
            ((F(3, 5), 0.7), "not exact"),
            ((True, F(3, 5)), "not rationals"),
        ],
    )
    def test_endpoints_must_be_rationals(self, interval, message):
        # A binary float endpoint would put its binary value in the grid.
        with pytest.raises(TypeError, match=message):
            sweep_grid(5, interval)
