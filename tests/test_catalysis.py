import ast
import importlib
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcatalyst
from qcatalyst import (
    DegenerateSpectrumError,
    EpsilonTriple,
    INFINITY,
    FeasibilityReport,
    Spectrum4,
    StarViolation,
    Verdict,
    analyze,
    closed_form_lambda_prime,
    compute_M,
    compute_m,
    epsilon_decompose,
    is_valid_catalyst,
    locc_possible,
    make_spectrum,
    oracle_valid_catalyst,
    partial_sums,
    augment,
    two_qubit_catalyst,
)
from qcatalyst.catalysis import _bounds
from qcatalyst.rationals import ratio_key
from qcatalyst.spectra import _slacks

from support import ROOT, catalyst_params, child_env, coprime_star_pairs, spectra, star_pairs

F = Fraction

CAT_SOURCE = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
CAT_TARGET = make_spectrum(["0.5", "0.25", "0.25", "0"])
CAT_EPS = EpsilonTriple(F(1, 10), F(1, 20), F(1, 10))

HARD_SOURCE = make_spectrum(["0.45", "0.45", "0.05", "0.05"])
HARD_TARGET = make_spectrum(["0.5", "0.35", "0.15", "0"])
HARD_EPS = EpsilonTriple(F(1, 20), F(1, 20), F(1, 20))


class TestComputeBounds:
    def test_catalyzable_example(self):
        # max(3/10 / 1/2, 0 / 1/5, 1/20 / 1/10) and min(1/5 / 3/10, 1/10 / 1/20)
        assert compute_m(CAT_SOURCE, CAT_EPS) == F(3, 5)
        assert compute_M(CAT_SOURCE, CAT_EPS) == F(2, 3)

    def test_infeasible_example(self):
        assert compute_m(HARD_SOURCE, HARD_EPS) == F(1)
        assert compute_M(HARD_SOURCE, HARD_EPS) == F(1, 4)

    def test_zero_eps1_gives_infinity(self):
        eps = EpsilonTriple(F(0), F(1, 20), F(1, 20))
        assert compute_m(HARD_SOURCE, eps) == INFINITY

    def test_zero_eps3_gives_zero_upper_bound(self):
        source = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
        eps = EpsilonTriple(F(1, 20), F(1, 20), F(0))
        assert compute_M(source, eps) == 0

    def test_vanishing_tail_skips_vacuous_ratio(self):
        # alpha3 = alpha4 = eps3 = 0 makes the middle ratio 0/0; the max runs
        # over the two well-defined terms.
        alpha = make_spectrum(["0.5", "0.5", "0", "0"])
        eps = EpsilonTriple(F(1, 10), F(1, 10), F(0))
        assert compute_m(alpha, eps) == F(1)
        assert compute_M(alpha, eps) == F(0)
        target = Spectrum4((F(3, 5), F(3, 10), F(1, 10), F(0)))
        report = analyze(alpha, target)
        assert report.verdict is Verdict.INFEASIBLE

    def test_vanishing_tail_with_zero_eps1(self):
        alpha = make_spectrum(["0.5", "0.5", "0", "0"])
        eps = EpsilonTriple(F(0), F(1, 10), F(0))
        assert compute_m(alpha, eps) == INFINITY

    def test_degenerate_second_coefficient(self):
        alpha = make_spectrum(["0.7", "0.1", "0.1", "0.1"])
        eps = EpsilonTriple(F(1, 10), F(1, 20), F(0))
        with pytest.raises(DegenerateSpectrumError, match="second"):
            compute_M(alpha, eps)

    @given(spectra(), spectra())
    @example(make_spectrum(["0.7", "0.1", "0.1", "0.1"]), make_spectrum(["0.5", "0.5", "0", "0"]))
    @settings(max_examples=300)
    def test_bounds_match_the_fraction_formulas(self, alpha, other):
        # The slacks of a real decomposition when there is one; otherwise
        # any triple read off the second spectrum, which reaches the
        # vanishing middle term and alpha2 - eps1 <= 0 too.
        eps = epsilon_decompose(alpha, other)
        if not isinstance(eps, EpsilonTriple):
            eps = EpsilonTriple(other[1], other[0], other[3])
        assert compute_m(alpha, eps) == reference_m(alpha, eps)
        try:
            expected = reference_M(alpha, eps)
        except ZeroDivisionError:
            expected = None
        if expected is None or alpha[1] - eps.eps1 <= 0:
            with pytest.raises(DegenerateSpectrumError) as raised:
                compute_M(alpha, eps)
            assert str(raised.value) == (
                "alpha2 - eps1 <= 0: implied target has a vanishing second coefficient"
            )
        else:
            assert compute_M(alpha, eps) == expected


# eps1 = eps3 = 0: the slacks are (0, 8, 0) over 128, m is +infinity and M is 0.
ZERO_EPS1_PAIR = (
    make_spectrum(["1/2", "1/4", "1/8", "1/8"]),
    make_spectrum(["1/2", "3/16", "3/16", "1/8"]),
)


class TestBoundPairs:
    """The kernels' bounds are plain (numerator, denominator) int pairs."""

    def test_zero_eps1_pair(self):
        source, target = ZERO_EPS1_PAIR
        assert _slacks(source, target) == ((0, 8, 0), 128)
        m, M = _bounds(source, (0, 8, 0), 128)
        assert m == (8, 0)
        assert M[1] > 0 and Fraction(*M) == 0

    @given(star_pairs())
    @example(ZERO_EPS1_PAIR)
    def test_lower_bound_is_eps2_over_eps1_at_infinity(self, pair):
        # +infinity is the term eps2/eps1 itself, (eps2, 0); every finite m
        # has a positive denominator.  Both are the Fraction formula's m.
        source, target = pair
        slacks, den = _slacks(source, target)
        m = _bounds(source, slacks, den)[0]
        if slacks[0] == 0:
            assert m == (slacks[1], 0)
        else:
            assert m[1] > 0
        expected = reference_m(source, epsilon_decompose(source, target))
        assert (Fraction(*m) if m[1] else INFINITY) == expected

    @given(star_pairs())
    @example(ZERO_EPS1_PAIR)
    def test_bounds_take_any_multiple_of_the_slack_denominator(self, pair):
        # _bounds reads the denominator it is given, not den_s * den_t: the
        # slacks over k times theirs give the same bounds under ratio_key.
        source, target = pair
        slacks, den = _slacks(source, target)
        eps = epsilon_decompose(source, target)
        m, M = reference_m(source, eps), reference_M(source, eps)
        expected = [(1, 0) if m == INFINITY else m.as_integer_ratio(), M.as_integer_ratio()]
        for k in (1, 2, 7):
            bounds = _bounds(source, [k * e for e in slacks], k * den)
            assert [ratio_key(b) for b in bounds] == [ratio_key(b) for b in expected]


def reference_m(alpha, eps):
    """The module docstring's m, on the Fractions."""
    a1, a2, a3, a4 = alpha
    e1, e2, e3 = eps.eps1, eps.eps2, eps.eps3
    if e1 == 0:
        return INFINITY
    terms = [(a2 - e1) / (a1 + e1), e2 / e1]
    if a3 + e3 != 0:
        terms.append((a4 - e3) / (a3 + e3))
    return max(terms)


def reference_M(alpha, eps):
    """The module docstring's M, on the Fractions."""
    _, a2, a3, _ = alpha
    return min((a3 + eps.eps3) / (a2 - eps.eps1), eps.eps3 / eps.eps2)


class TestAnalyze:
    def test_catalyzable_example(self):
        report = analyze(CAT_SOURCE, CAT_TARGET)
        assert report.verdict is Verdict.CATALYZABLE
        assert report.m == F(3, 5)
        assert report.M == F(2, 3)
        assert report.r_interval == (F(3, 5), F(2, 3))
        assert report.p_interval == (F(3, 5), F(5, 8))
        assert report.star_violation is None

    def test_infeasible_example(self):
        report = analyze(HARD_SOURCE, HARD_TARGET)
        assert report.verdict is Verdict.INFEASIBLE
        assert report.m == F(1)
        assert report.M == F(1, 4)
        assert report.star_violation is None
        assert report.r_interval is None and report.p_interval is None

    def test_identity_is_locc_possible(self):
        report = analyze(CAT_SOURCE, CAT_SOURCE)
        assert report.verdict is Verdict.LOCC_ALREADY_POSSIBLE
        assert report.m is None and report.M is None

    def test_star_violation_reported(self):
        report = analyze(CAT_TARGET, CAT_SOURCE)
        assert report.verdict is Verdict.INFEASIBLE
        assert report.star_violation is StarViolation.EPS1_NEGATIVE
        assert report.m is None and report.M is None

    @given(spectra(), spectra())
    @settings(max_examples=300)
    def test_agrees_with_nielsen_on_any_pair(self, source, target):
        report = analyze(source, target)
        locc = locc_possible(source, target)
        assert (report.verdict is Verdict.LOCC_ALREADY_POSSIBLE) == locc
        decomposition = epsilon_decompose(source, target)
        if not locc and isinstance(decomposition, StarViolation):
            assert report.star_violation is decomposition

    def test_equal_spectra_share_one_cache_entry(self):
        decimal = make_spectrum(["0.5", "0.25", "0.25", "0"])
        ratio = make_spectrum(["1/2", "1/4", "1/4", "0"])
        assert decimal == ratio and hash(decimal) == hash(ratio)
        analyze.cache_clear()
        first = analyze(CAT_SOURCE, decimal)
        assert analyze(CAT_SOURCE, ratio) is first
        info = analyze.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_rule_is_independent_of_the_referee(self):
        # The majorization code referees the interval rule (via the oracle),
        # so the rule must reach its answer without it.
        import qcatalyst.catalysis as catalysis
        import qcatalyst.majorization as majorization

        borrowed = [
            name
            for name, value in vars(catalysis).items()
            if value is majorization
            or getattr(value, "__module__", None) == majorization.__name__
        ]
        assert borrowed == []

    def test_referee_is_independent_of_the_rule(self):
        # The other direction: the oracle must reach its answer without the
        # interval rule it referees.
        import qcatalyst.catalysis as catalysis
        import qcatalyst.oracle as oracle

        borrowed = [
            name
            for name, value in vars(oracle).items()
            if value is catalysis or getattr(value, "__module__", None) == catalysis.__name__
        ]
        assert borrowed == []

    def test_each_integer_convention_has_one_owner(self):
        # Only rationals writes the text "inf", and only rationals states the
        # 12-digit decimal width: the int 12, 10**12, or a width of 12 in a
        # %-format or a format spec.
        width = r"(?<!\d)0?12(?!\d)"
        width_format = re.compile(r"%[-+ #0]*12(?!\d)|\{[^{}]*:[^{}]*" + width + r"[^{}]*\}")

        def states_width(node) -> bool:
            if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                return re.search(width, ast.unparse(node.format_spec)) is not None
            if not isinstance(node, ast.Constant):
                return False
            if type(node.value) is int:
                return node.value in (12, 10**12)
            return isinstance(node.value, str) and width_format.search(node.value) is not None

        inf_modules, width_modules = set(), set()
        for path in sorted(Path(qcatalyst.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and node.value == "inf":
                    inf_modules.add(path.name)
                if states_width(node):
                    width_modules.add(path.name)
        assert inf_modules == {"rationals.py"}
        assert width_modules == {"rationals.py"}

    def test_package_has_no_assert(self):
        # Invariants must hold under python -O and fail with a message, never
        # a traceback: no assert statement and no raised AssertionError.
        found = []
        for path in sorted(Path(qcatalyst.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                raised = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(raised, ast.Call):
                    raised = raised.func
                if isinstance(node, ast.Assert) or (
                    isinstance(raised, ast.Name) and raised.id == "AssertionError"
                ):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_package_has_no_float(self):
        # No value may pass through a binary float: no float literal, no
        # float(...) call, and math.inf only where rationals.INFINITY is defined.
        def is_float(node) -> bool:
            if isinstance(node, ast.Constant):
                return isinstance(node.value, float)
            if isinstance(node, ast.Call):
                return isinstance(node.func, ast.Name) and node.func.id == "float"
            if isinstance(node, ast.ImportFrom):
                return "inf" in [alias.name for alias in node.names]
            return isinstance(node, ast.Attribute) and node.attr == "inf"

        package = Path(qcatalyst.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if is_float(node)
        ]
        lines = (package / "rationals.py").read_text().splitlines()
        definition = next(n for n, line in enumerate(lines, 1) if line.startswith("INFINITY"))
        assert found == [f"rationals.py:{definition}"]

    def test_package_does_not_import_typing(self):
        # Annotations are never evaluated (from __future__ import annotations),
        # and collections.abc holds the abstract types they name.
        def imports_typing(node) -> bool:
            if isinstance(node, ast.Import):
                return any(alias.name.split(".")[0] == "typing" for alias in node.names)
            return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "typing"

        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(qcatalyst.__file__).parent.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if imports_typing(node)
        ]
        assert found == []

    def test_traced_names_exist(self):
        # The benchmark traces functions by name; each must stay a callable.
        # spans.py is read, not imported, so nothing is written under it.
        tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
        traced = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"
        )
        missing = [
            f"{module}.{name}" for module, names in traced.items() for name in names
            if not callable(getattr(importlib.import_module(f"qcatalyst.{module}"), name, None))
        ]
        assert traced and missing == []

    def test_public_names_are_the_init_imports(self):
        # There is no __all__: the public names are exactly what __init__
        # imports, so `from qcatalyst import *` also binds the submodules.
        # Modules are left out because qcatalyst.cli is bound on the package
        # once anything has imported it.
        public = {
            name
            for name, value in vars(qcatalyst).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == {
            "Branch", "CatalystSpectrum", "ConstructionResult", "DegenerateSpectrumError",
            "EpsilonTriple", "ExtendedRational", "FeasibilityReport", "INFINITY",
            "Spectrum4", "StarViolation", "Verdict", "analyze", "augment",
            "closed_form_lambda_prime", "compute_M", "compute_m", "construct_states",
            "epsilon_decompose", "feasible_p_set", "first_violated_index",
            "is_majorized_by", "is_valid_catalyst", "locc_possible", "lorenz_points",
            "make_catalyst", "make_spectrum", "mu_admissible_bound",
            "oracle_valid_catalyst", "parse_rational", "partial_sums", "render_decimal",
            "render_rational", "sweep", "sweep_grid", "two_qubit_catalyst",
        }
        assert "__all__" not in vars(qcatalyst)
        # ExtendedRational is a Fraction or the +inf sentinel.
        assert isinstance(F(1, 2), qcatalyst.ExtendedRational)
        assert isinstance(INFINITY, qcatalyst.ExtendedRational)


class TestIsValidCatalyst:
    def test_worked_catalyst(self):
        assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(3, 5))

    def test_even_catalyst_is_too_weak(self):
        # p = 1/2 means ratio 1, above the upper bound 2/3.
        assert not is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(1, 2))

    def test_endpoints_inclusive(self):
        assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(3, 5))
        assert is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(5, 8))

    def test_just_outside_endpoints(self):
        assert not is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(3, 5) - F(1, 1000))
        assert not is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(5, 8) + F(1, 1000))

    @pytest.mark.parametrize("p", ["1/2", "11/20", "3/5", "7/10", "1"])
    def test_infeasible_pair_always_false(self, p):
        assert not is_valid_catalyst(HARD_SOURCE, HARD_TARGET, F(p))

    def test_product_catalyst_never_works(self):
        assert not is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(1))

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[1/2, 1\]"):
            is_valid_catalyst(CAT_SOURCE, CAT_TARGET, F(2, 5))

    def test_locc_possible_pair_rejected(self):
        with pytest.raises(ValueError, match="already possible"):
            is_valid_catalyst(CAT_SOURCE, CAT_SOURCE, F(3, 5))

    @given(spectra(), spectra(), catalyst_params())
    @example(
        make_spectrum(["0.5", "0.3", "0.1", "0.1"]), make_spectrum(["0.5", "0.2", "0.2", "0.1"]),
        F(3, 5),
    )  # m = +infinity
    @example(HARD_SOURCE, HARD_TARGET, F(3, 5))  # m > M: the interval is empty
    @example(CAT_SOURCE, CAT_TARGET, F(5, 8))
    def test_is_the_verdict_and_the_p_interval(self, source, target, p):
        report = analyze(source, target)
        if report.verdict is Verdict.LOCC_ALREADY_POSSIBLE:
            with pytest.raises(ValueError, match="already possible"):
                is_valid_catalyst(source, target, p)
            return
        inside = report.verdict is Verdict.CATALYZABLE and (
            report.p_interval[0] <= p <= report.p_interval[1]
        )
        assert is_valid_catalyst(source, target, p) is inside

    @given(star_pairs())
    def test_domain_ends_match_the_oracle(self, pair):
        # p = 1/2 is ratio 1 and p = 1 is ratio 0, both outside every [m, M].
        source, target = pair
        for p in (F(1, 2), F(1)):
            expected = oracle_valid_catalyst(source, target, two_qubit_catalyst(p))
            assert is_valid_catalyst(source, target, p) is expected is False

    @pytest.mark.parametrize("p", [F(3, 2), "3/2"])
    def test_p_out_of_range_message(self, p):
        message = "two-qubit catalyst parameter must be in [1/2, 1], got 3/2"
        with pytest.raises(ValueError) as raised:
            is_valid_catalyst(CAT_SOURCE, CAT_TARGET, p)
        assert str(raised.value) == message
        # The range is checked before the pair: a LOCC pair gets the same error.
        with pytest.raises(ValueError, match=r"\[1/2, 1\], got 3/2"):
            is_valid_catalyst(CAT_SOURCE, CAT_SOURCE, p)


class TestClosedFormLambdaPrime:
    def test_worked_example(self):
        values = closed_form_lambda_prime(CAT_TARGET, CAT_EPS, F(3, 5))
        assert values == (
            F(3, 10),
            F(1, 2),
            F(13, 20),
            F(4, 5),
            F(9, 10),
            F(1),
            F(1),
            F(1),
        )

    def test_second_entry_is_top_target_coefficient(self):
        values = closed_form_lambda_prime(CAT_TARGET, CAT_EPS, F(5, 8))
        assert values[1] == F(1, 2)
        assert values[7] == F(1)

    def test_outside_interval_rejected(self):
        # The whole message: its bounds are analyze's m and M, INFINITY too.
        cases = [
            (CAT_EPS, F(9, 10), "1/9 outside feasible interval [3/5, 2/3]"),
            (EpsilonTriple(F(0), F(1, 20), F(0)), F(3, 5), "2/3 outside feasible interval [inf, 0]"),
        ]
        for eps, p, shown in cases:
            with pytest.raises(ValueError) as raised:
                closed_form_lambda_prime(CAT_TARGET, eps, p)
            assert str(raised.value) == (
                f"ratio (1-p)/p = {shown}; closed forms do not describe the sorted spectrum there"
            )

    def test_matches_sorted_augmented_sums(self):
        for p in (F(3, 5), F(29, 48), F(5, 8)):
            catalyst = two_qubit_catalyst(p)
            expected = partial_sums(augment(CAT_TARGET, catalyst))
            assert closed_form_lambda_prime(CAT_TARGET, CAT_EPS, p) == expected


class TestReportInvariants:
    @given(star_pairs())
    def test_bounds_and_intervals(self, pair):
        source, target = pair
        report = analyze(source, target)
        assert report.verdict in (Verdict.CATALYZABLE, Verdict.INFEASIBLE)
        assert report.m is not None and report.M is not None
        assert report.m > 0
        assert report.M <= 1
        if report.verdict is Verdict.CATALYZABLE:
            lo, hi = report.p_interval
            assert F(1, 2) <= lo <= hi <= 1
            assert lo == 1 / (1 + report.M) and hi == 1 / (1 + report.m)
            # Weak inequalities: both endpoints really work.
            assert is_valid_catalyst(source, target, lo)
            assert is_valid_catalyst(source, target, hi)
        else:
            assert report.m > report.M

    @given(
        st.one_of(
            star_pairs(),
            star_pairs(feasible_leaning=True),
            coprime_star_pairs(),
            coprime_star_pairs(feasible_leaning=True),
        )
    )
    def test_p_ends_are_the_p_interval_in_lowest_terms(self, pair):
        report = analyze(*pair)
        ends = report._p_ends()
        assert (ends is None) == (report.p_interval is None)
        if ends is not None:
            # as_integer_ratio is in lowest terms with a positive denominator.
            assert ends == tuple(x.as_integer_ratio() for x in report.p_interval)
            assert report.p_interval == (1 / (1 + report.M), 1 / (1 + report.m))

    @pytest.mark.parametrize(
        "fields",
        [
            {"m": F(1, 2)},
            {"M": F(1, 2)},
            {"m": F(1, 2), "M": F(2)},
            {"m": F(0), "M": F(1, 2)},
            {"m": F(1), "M": F(1, 4), "star_violation": StarViolation.EPS1_NEGATIVE},
            # m > M, but no slack triple gives a negative M, m <= 0 or M >= 1.
            {"m": F(1, 2), "M": F(-1)},
            {"m": F(-5), "M": F(-6)},
            {"m": INFINITY, "M": F(5)},
        ],
    )
    def test_inconsistent_report_rejected(self, fields):
        with pytest.raises(ValueError, match="inconsistent"):
            FeasibilityReport(**fields)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FeasibilityReport(m=0.5, M=F(3, 4)),
            lambda: FeasibilityReport(m=True, M=F(1, 2)),
            lambda: FeasibilityReport(m=F(1, 2), M=0.75),
            lambda: FeasibilityReport(m=F(1, 2), M=INFINITY),
            lambda: EpsilonTriple(0.1, 0.2, 0.0),
            lambda: EpsilonTriple(F(1, 10), F(1, 5), 0),
        ],
        ids=["float_m", "bool_m", "float_M", "infinite_M", "float_triple", "int_eps3"],
    )
    def test_non_fraction_fields_rejected(self, build):
        # m may be +infinity; every other field that is set is a Fraction.
        with pytest.raises(TypeError, match="must be Fractions"):
            build()

    @pytest.mark.parametrize("violation", ["eps9_negative", "eps1_negative", 1, True])
    def test_star_violation_must_be_one(self, violation):
        # Any reader of the field (the CLI reads .value) needs the enum.
        with pytest.raises(TypeError, match="star_violation must be a StarViolation or None"):
            FeasibilityReport(star_violation=violation)

    def test_inconsistent_report_rejected_under_optimize(self):
        # assert statements vanish under -O; the invariants must not.
        for value, error in [
            ("FeasibilityReport(m=F(1, 2), M=F(2))", "ValueError: inconsistent"),
            ("EpsilonTriple(F(-1), F(1), F(0))", "ValueError: slack triple must satisfy"),
            ("FeasibilityReport(m=0.5, M=F(3, 4))", "TypeError"),
            (
                "import qcatalyst as q; r = q.construct_states(F(2, 3), F(1, 3)); "
                "q.ConstructionResult(r.source, r.target, 0.5, r.branch)",
                "TypeError: construction mu must be Fractions",
            ),
            ('FeasibilityReport(star_violation="x")', "TypeError: report star_violation"),
            ("import qcatalyst as q; q.render_rational(True)", "TypeError: booleans"),
        ]:
            code = (
                "from fractions import Fraction as F\n"
                "from qcatalyst import EpsilonTriple, FeasibilityReport\n"
                f"{value}\n"
            )
            result = subprocess.run(
                [sys.executable, "-O", "-c", code],
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode != 0
            assert error in result.stderr

    def test_impossible_bounds_rejected_under_optimize(self):
        code = (
            "from fractions import Fraction as F\n"
            "from qcatalyst import FeasibilityReport\n"
            "FeasibilityReport(m=F(1, 2), M=F(-1))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode != 0
        assert "ValueError: inconsistent" in result.stderr

    @given(star_pairs(), catalyst_params())
    @settings(max_examples=200)
    def test_agrees_with_oracle(self, pair, p):
        source, target = pair
        predicted = is_valid_catalyst(source, target, p)
        actual = oracle_valid_catalyst(source, target, two_qubit_catalyst(p))
        assert predicted == actual

    @given(star_pairs())
    def test_closed_form_matches_oracle_inside_interval(self, pair):
        source, target = pair
        report = analyze(source, target)
        if report.verdict is not Verdict.CATALYZABLE:
            return
        eps = epsilon_decompose(source, target)
        lo, hi = report.p_interval
        for p in (lo, hi, (lo + hi) / 2):
            expected = partial_sums(augment(target, two_qubit_catalyst(p)))
            assert closed_form_lambda_prime(target, eps, p) == expected


class TestNecessityOfSlack:
    @given(star_pairs())
    def test_zero_eps1_means_infeasible(self, pair):
        # Fold the first slack back into the target: the pair keeps a valid
        # decomposition with eps1 = 0 and must become infeasible (m infinite).
        source, target = pair
        eps = epsilon_decompose(source, target)
        adjusted = Spectrum4((source[0], target[1] + eps.eps1, target[2], target[3]))
        assert epsilon_decompose(source, adjusted) == EpsilonTriple(
            F(0), eps.eps2, eps.eps3
        )
        report = analyze(source, adjusted)
        assert report.verdict is Verdict.INFEASIBLE
        assert report.m == INFINITY

    @given(star_pairs())
    def test_zero_eps3_means_infeasible(self, pair):
        # Same with the last slack: eps3 = 0 collapses the upper bound to 0.
        source, target = pair
        eps = epsilon_decompose(source, target)
        adjusted = Spectrum4((target[0], target[1], source[2] + eps.eps2, source[3]))
        assert epsilon_decompose(source, adjusted) == EpsilonTriple(
            eps.eps1, eps.eps2, F(0)
        )
        report = analyze(source, adjusted)
        assert report.verdict is Verdict.INFEASIBLE
        assert report.M == 0
