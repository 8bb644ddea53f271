import argparse
import contextlib
import cProfile
import fractions
import importlib.util
import io
import json
import os
import pstats
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcatalyst.cli as cli
import qcatalyst.spectra as spectra_module
from qcatalyst import (
    StarViolation,
    analyze,
    construct_states,
    epsilon_decompose,
    locc_possible,
    make_spectrum,
    parse_rational,
    render_decimal,
    render_rational,
    sweep,
    sweep_grid,
)
from qcatalyst.oracle import MAX_GRID_DENOMINATOR

from support import ROOT, child_env, coprime_star_pairs, spectra, star_pairs

CATALYZABLE = ["--source", "0.4,0.4,0.1,0.1", "--target", "0.5,0.25,0.25,0"]
HARD = ["--source", "0.45,0.45,0.05,0.05", "--target", "0.5,0.35,0.15,0"]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# README's command-line examples with their exact stdout and exit code.
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_readme_examples_byte_identical(capsys, monkeypatch, case):
    code, out, _ = run(capsys, case["argv"], stdin=case["stdin"], monkeypatch=monkeypatch)
    assert (code, out) == (case["exit_code"], case["stdout"])


# Report-shaped JSON: 0 and 1 beside False and True (True == 1, so a dict
# lookup would confuse them), quotes, control and non-ASCII characters.
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600"]),
)
_json_documents = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=24,
)


class TestReportWriter:
    @given(st.one_of(_json_documents, st.dictionaries(st.text(), _json_documents, max_size=6)))
    @settings(max_examples=100)
    def test_matches_json_dumps_indent_2(self, document):
        assert cli._json_text(document) == json.dumps(document, indent=2)

    @pytest.mark.parametrize(
        "document", [{}, [], {"a": {}}, {"b": []}, [[], {}], {"x": [True, 1, False, 0, None]}]
    )
    def test_empty_containers_and_bool_beside_int(self, document):
        assert cli._json_text(document) == json.dumps(document, indent=2)

    def test_every_golden_report(self):
        reports = [case["stdout"] for case in GOLDEN if case["stdout"].startswith("{")]
        assert len(reports) >= 4
        for text in reports:
            assert cli._json_text(json.loads(text)) + "\n" == text


class TestCheckLocc:
    def test_blocked_pair(self, capsys):
        code, out, _ = run(capsys, ["check-locc", *CATALYZABLE])
        doc = json.loads(out)
        assert code == 0
        assert doc["possible"] is False
        assert doc["first_violated_index"] == 2
        assert doc["partial_sums_source"] == ["2/5", "4/5", "9/10", "1/1"]
        assert doc["partial_sums_target"] == ["1/2", "3/4", "1/1", "1/1"]

    def test_identity(self, capsys):
        code, out, _ = run(
            capsys, ["check-locc", "--source", "0.4,0.4,0.1,0.1", "--target", "0.4,0.4,0.1,0.1"]
        )
        doc = json.loads(out)
        assert code == 0 and doc["possible"] is True
        assert doc["first_violated_index"] is None

    def test_bad_sum_is_input_error(self, capsys):
        code, out, err = run(
            capsys, ["check-locc", "--source", "0.3,0.3,0.3,0.3", "--target", "0.5,0.25,0.25,0"]
        )
        assert code == 1 and out == "" and "sum to 1" in err

    def test_malformed_rational(self, capsys):
        code, _, err = run(
            capsys, ["check-locc", "--source", "a,b,c,d", "--target", "0.5,0.25,0.25,0"]
        )
        assert code == 1 and "malformed" in err

    def test_overlong_number_named(self, capsys):
        source = "0." + "1" * 4301 + ",0.5,0.25,0.25"
        code, out, err = run(capsys, ["check-locc", "--source", source, "--target", "1,0,0,0"])
        assert code == 1 and out == ""
        assert "has a number over 4300 digits" in err and "malformed" not in err

    def test_stdin_document(self, capsys, monkeypatch):
        doc = {
            "source": ["0.4", "0.4", "0.1", "0.1"],
            "target": ["0.5", "0.25", "0.25", "0"],
        }
        code, out, _ = run(capsys, ["check-locc"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["possible"] is False

    def test_partial_flags_rejected(self, capsys):
        code, _, err = run(capsys, ["check-locc", "--source", "0.4,0.4,0.1,0.1"])
        assert code == 1 and "both --source and --target" in err

    def test_values_beyond_the_input_digit_limit_render(self, capsys):
        # Each input stays within 4,300 digits; their sum does not.
        big = "0.24" + "9" * 4298
        code, out, err = run(
            capsys,
            ["check-locc", "--source", f"1e-4300,0.5,0.25,{big}", "--target", "0.5,0.25,0.25,0"],
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["partial_sums_source"][2] == "9" * 4300 + "/1" + "0" * 4300

    def test_document_numbers_read_exactly(self, capsys, monkeypatch):
        # Through a binary float both leading coefficients would become 2/5.
        stdin = (
            '{"source": [0.4000000000000000001, 0.3999999999999999999, 0.1, 0.1],'
            ' "target": [0.5, 0.25, 0.25, 0]}'
        )
        code, out, _ = run(capsys, ["check-locc"], stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0
        sums = json.loads(out)["partial_sums_source"]
        assert sums[0] == "4000000000000000001/10000000000000000000"
        assert sums[1] == "4/5"


class TestAnalyze:
    def test_catalyzable(self, capsys):
        code, out, _ = run(capsys, ["analyze", *CATALYZABLE])
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "catalyzable"
        assert doc["m"]["exact"] == "3/5"
        assert doc["M"]["exact"] == "2/3"
        assert [v["exact"] for v in doc["p_interval"]] == ["3/5", "5/8"]
        assert doc["M"]["decimal_is_exact"] is False
        assert doc["reason"] is None

    def test_infeasible(self, capsys):
        code, out, _ = run(capsys, ["analyze", *HARD])
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "infeasible"
        assert doc["m"]["exact"] == "1/1"
        assert doc["M"]["exact"] == "1/4"
        assert doc["reason"] == {"kind": "empty_interval"}
        assert doc["p_interval"] is None

    def test_infinite_lower_bound(self, capsys):
        # eps1 = eps3 = 0: m is +infinity and M is 0, so the interval is empty.
        argv = ["analyze", "--source", "1/2,1/4,1/8,1/8", "--target", "1/2,3/16,3/16,1/8"]
        code, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert code == 0
        assert doc["verdict"] == "infeasible"
        assert doc["m"] == {"exact": "inf", "decimal": "inf", "decimal_is_exact": True}
        assert doc["M"] == {"exact": "0/1", "decimal": "0", "decimal_is_exact": True}
        assert doc["r_interval"] is None and doc["p_interval"] is None
        assert doc["reason"] == {"kind": "empty_interval"}

    def test_locc_possible(self, capsys):
        code, out, _ = run(
            capsys,
            ["analyze", "--source", "0.25,0.25,0.25,0.25", "--target", "0.5,0.25,0.25,0"],
        )
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "locc_already_possible"

    def test_star_violation_reason(self, capsys):
        code, out, _ = run(
            capsys, ["analyze", "--source", "0.5,0.25,0.25,0", "--target", "0.4,0.4,0.1,0.1"]
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["reason"]["kind"] == "star_violated"
        assert doc["reason"]["condition"] == "eps1_negative"
        assert "violated_inequality" in doc["reason"]

    def test_huge_exponent_ends_quickly(self):
        # Building 10**100000000 once took minutes; the bound rejects it first.
        done = subprocess.run(
            [sys.executable, "-m", "qcatalyst.cli", "analyze"]
            + ["--source", "1e-100000000,0.5,0.25,0.25", "--target", "0.5,0.25,0.25,0"],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert "exceeds 4300" in done.stderr and "Traceback" not in done.stderr

    @given(
        st.one_of(
            star_pairs(),
            star_pairs(feasible_leaning=True),
            coprime_star_pairs(),
            coprime_star_pairs(feasible_leaning=True),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_r_interval_lists_the_bound_fields(self, pair):
        source, target = pair
        argv = ["analyze", "--source", ",".join(map(render_rational, source))]
        doc = json.loads(stdout_of([*argv, "--target", ",".join(map(render_rational, target))]))
        report = analyze(source, target)
        if report.p_interval is None:
            assert doc["r_interval"] is None and doc["p_interval"] is None
            return
        # Each field as the bound's own int pair renders it.
        fields = [cli._ratio_field(*b.as_integer_ratio()) for b in report.r_interval]
        assert doc["r_interval"] == [doc["m"], doc["M"]] == fields
        assert [end["exact"] for end in doc["p_interval"]] == [
            render_rational(end) for end in report.p_interval
        ]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["analyze", *CATALYZABLE])
        _, second, _ = run(capsys, ["analyze", *CATALYZABLE])
        assert first == second

    def test_exact_strings_round_trip(self, capsys):
        _, out, _ = run(capsys, ["analyze", *CATALYZABLE])
        doc = json.loads(out)

        def walk(node):
            if isinstance(node, dict):
                if "exact" in node:
                    yield node["exact"]
                for v in node.values():
                    yield from walk(v)
            elif isinstance(node, list):
                for v in node:
                    yield from walk(v)

        for text in walk(doc):
            assert render_rational(parse_rational(text)) == text


class TestValidate:
    def test_worked_catalyst(self, capsys):
        code, out, _ = run(capsys, ["validate", *CATALYZABLE, "--catalyst", "0.6,0.4"])
        doc = json.loads(out)
        assert code == 0
        assert doc["theorem_verdict"] is True
        assert doc["oracle_verdict"] is True
        assert doc["agree"] is True
        assert doc["p"] == "3/5"

    def test_p_flag(self, capsys):
        code, out, _ = run(capsys, ["validate", *CATALYZABLE, "--p", "2/3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["theorem_verdict"] is False and doc["oracle_verdict"] is False

    def test_three_component_catalyst(self, capsys):
        code, out, _ = run(capsys, ["validate", *CATALYZABLE, "--catalyst", "0.5,0.3,0.2"])
        doc = json.loads(out)
        assert code == 0
        assert doc["theorem_verdict"] is None
        assert isinstance(doc["oracle_verdict"], bool)
        assert doc["agree"] is True
        assert doc["p"] is None

    def test_infeasible_pair(self, capsys):
        code, out, _ = run(capsys, ["validate", *HARD, "--catalyst", "0.6,0.4"])
        doc = json.loads(out)
        assert code == 0
        assert doc["theorem_verdict"] is False and doc["oracle_verdict"] is False

    def test_locc_possible_pair(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "validate",
                "--source", "0.25,0.25,0.25,0.25",
                "--target", "0.5,0.25,0.25,0",
                "--catalyst", "0.6,0.4",
            ],
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["locc_already_possible"] is True
        assert doc["theorem_verdict"] is True and doc["oracle_verdict"] is True

    def test_catalyst_and_p_together_rejected(self, capsys):
        code, _, err = run(capsys, ["validate", *CATALYZABLE, "--catalyst", "0.6,0.4", "--p", "0.6"])
        assert code == 1 and "exactly one" in err

    def test_disagreement_is_internal_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_valid_catalyst", lambda *args: False)
        code, out, err = run(capsys, ["validate", *CATALYZABLE, "--catalyst", "0.6,0.4"])
        doc = json.loads(out)
        assert code == 2
        assert doc["agree"] is False
        assert "internal consistency failure" in err

    def test_document_with_p(self, capsys, monkeypatch):
        doc = {
            "source": ["0.4", "0.4", "0.1", "0.1"],
            "target": ["0.5", "0.25", "0.25", "0"],
            "p": "3/5",
        }
        code, out, _ = run(capsys, ["validate"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["theorem_verdict"] is True

    def test_p_flag_joins_document(self, capsys, monkeypatch):
        doc = {"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["0.5", "0.25", "0.25", "0"]}
        code, out, _ = run(
            capsys, ["validate", "--p", "3/5"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["theorem_verdict"] is True

    @pytest.mark.parametrize(
        "argv,extra,message",
        [
            # The flag and the document's catalyst both reach the request.
            (["--p", "3/5"], {"catalyst": ["0.6", "0.4"]}, "exactly one"),
            ([], {"catalyst": ["0.6", "0.4"], "p": "3/5"}, "exactly one"),
            # A document array holds one rational per element.
            ([], {"catalyst": ["0.6,0.4"]}, "malformed"),
        ],
    )
    def test_ambiguous_catalyst_rejected(self, capsys, monkeypatch, argv, extra, message):
        doc = {"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["0.5", "0.25", "0.25", "0"]}
        stdin = json.dumps({**doc, **extra})
        code, out, err = run(capsys, ["validate", *argv], stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize(
        "argv,extra",
        [(["--p", "0.3"], {}), (["--p", "0"], {}), ([], {"p": "3/10"})],
    )
    def test_p_outside_its_range_rejected(self, capsys, monkeypatch, argv, extra):
        # (p, 1-p) must not be re-sorted into the catalyst for 1-p.
        doc = {"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["0.5", "0.25", "0.25", "0"]}
        stdin = json.dumps({**doc, **extra})
        code, out, err = run(capsys, ["validate", *argv], stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and out == "" and "[1/2, 1]" in err

    @staticmethod
    def _catalyst_document(catalyst) -> str:
        doc = {"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["0.5", "0.25", "0.25", "0"]}
        return json.dumps({**doc, "catalyst": catalyst})

    def test_catalyst_work_capped(self, capsys, monkeypatch):
        # 3,200 components 1/(N q) and (q-1)/(N q) over N = 1,600 distinct
        # 5-digit primes q: a 55 KB document whose common denominator has
        # about 6,800 digits (about 2.3 s and 164 MB of work unchecked).
        n = 1600
        primes = [q for q in range(10_001, 30_000, 2) if all(q % d for d in range(3, 174, 2))]
        assert len(primes) >= n
        catalyst = [text for q in primes[:n] for text in (f"1/{n * q}", f"{q - 1}/{n * q}")]
        stdin = self._catalyst_document(catalyst)
        start = time.perf_counter()
        code, out, err = run(capsys, ["validate"], stdin=stdin, monkeypatch=monkeypatch)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith(f"error: catalyst: {2 * n} components times ")
        assert err.endswith(
            f"bits of their common denominator exceed {spectra_module.MAX_CATALYST_BITS}\n"
        )

    def test_catalyst_over_the_cap_refused_at_its_first_step(self, capsys, monkeypatch):
        # One "1" and 200,000 "0"s: 200,001 components times the 1 bit of
        # the first denominator are over the cap, so make_catalyst reads
        # only "1".
        parsed = []
        as_pair = spectra_module._as_pair

        def counted(value, name=""):
            if name == "catalyst":
                parsed.append(value)
            return as_pair(value, name)

        monkeypatch.setattr(spectra_module, "_as_pair", counted)
        stdin = self._catalyst_document(["1", *["0"] * 200_000])
        code, out, err = run(capsys, ["validate"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, parsed) == (1, "", ["1"])
        assert err == (
            "error: catalyst: 200001 components times 1 or more bits "
            f"of their common denominator exceed {spectra_module.MAX_CATALYST_BITS}\n"
        )

    @pytest.mark.parametrize(
        "catalyst,message",
        [
            # Malformed at or before the step over the cap: the parse error.
            (["x", *["0"] * 200_000], "error: catalyst: malformed rational 'x'\n"),
            # Malformed after it: the cap's message.
            (["1", "x", *["0"] * 200_000], "error: catalyst: 200002 components times 1 "),
        ],
        ids=["malformed-first", "malformed-after"],
    )
    def test_malformed_catalyst_over_the_cap(self, capsys, monkeypatch, catalyst, message):
        stdin = self._catalyst_document(catalyst)
        code, out, err = run(capsys, ["validate"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "") and err.startswith(message)

    @pytest.mark.parametrize(
        "catalyst",
        [
            ["1/1000"] * 1000,
            # Two components at the 4,300-digit limit.
            [f"{5 * 10**4298 + 1}/{10**4299}", f"{5 * 10**4298 - 1}/{10**4299}"],
            # p = (10**4300 - 1)/10**4300: a denominator of 4,301 digits, so
            # the rule must get p as a Fraction, not as text to parse again.
            ["1e-4300", "0." + "9" * 4300],
            ["1", *["0"] * 1000],
        ],
        ids=["1000-equal", "digit-limit", "p-over-the-digit-limit", "1001-with-zeros"],
    )
    def test_large_catalysts_accepted(self, capsys, monkeypatch, catalyst):
        stdin = self._catalyst_document(catalyst)
        code, out, err = run(capsys, ["validate"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        assert json.loads(out)["agree"] is True


class TestSweep:
    def test_worked_example_d40(self, capsys):
        code, out, _ = run(capsys, ["sweep", *CATALYZABLE, "--denominator", "40"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,p_decimal,valid"
        valid = [row.split(",")[0] for row in lines[1:] if row.endswith(",1")]
        assert valid == ["3/5", "5/8"]
        assert len(lines) == 22  # header + 21 lattice points, endpoints on-lattice

    def test_d1_boundaries_invalid_endpoints_merged(self, capsys):
        code, out, _ = run(capsys, ["sweep", *CATALYZABLE, "--denominator", "1"])
        assert code == 0
        rows = dict(
            (row.split(",")[0], row.split(",")[2]) for row in out.splitlines()[1:]
        )
        assert rows["1/2"] == "0" and rows["1/1"] == "0"
        assert rows["3/5"] == "1" and rows["5/8"] == "1"

    def test_infeasible_pair_all_invalid(self, capsys):
        code, out, _ = run(capsys, ["sweep", *HARD, "--denominator", "50"])
        assert code == 0
        assert all(row.endswith(",0") for row in out.splitlines()[1:])

    def test_document_denominator(self, capsys, monkeypatch):
        doc = {
            "source": ["0.4", "0.4", "0.1", "0.1"],
            "target": ["0.5", "0.25", "0.25", "0"],
            "grid_denominator": 8,
        }
        code, out, _ = run(capsys, ["sweep"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert "5/8,0.625,1" in out.splitlines()

    def test_bad_denominator(self, capsys):
        code, _, err = run(capsys, ["sweep", *CATALYZABLE, "--denominator", "0"])
        assert code == 1 and "positive integer" in err

    # Past 640 characters an int literal is read through Decimal, which
    # would also read this text, as 111...1.
    @pytest.mark.parametrize("text", ["x", "1.5", pytest.param("1" * 700 + ".5", id="long")])
    def test_non_integer_denominator_flag_names_the_flag(self, capsys, text):
        code, out, err = run(capsys, ["sweep", *CATALYZABLE, "--denominator", text])
        message = f"error: argument --denominator: invalid int value: '{text}'\n"
        assert (code, out, err) == (1, "", message)

    def test_huge_denominator_ends_quickly(self):
        # A grid of 10**11 points once ran without end; the bound rejects it.
        done = subprocess.run(
            [sys.executable, "-m", "qcatalyst.cli", "sweep", *CATALYZABLE]
            + ["--denominator", "100000000000"],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 1 and done.stdout == ""
        assert "positive integer up to 100000" in done.stderr
        assert "Traceback" not in done.stderr

    def test_boolean_document_denominator_rejected(self, capsys, monkeypatch):
        # bool is an int subclass: true must not pass for a denominator of 1.
        doc = {
            "source": ["0.4", "0.4", "0.1", "0.1"],
            "target": ["0.5", "0.25", "0.25", "0"],
            "grid_denominator": True,
        }
        code, out, err = run(capsys, ["sweep"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1 and out == "" and "positive integer" in err

    def test_closed_stdout_ends_quietly(self):
        # The reader (think `| head -1`) goes away after the header line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcatalyst.cli", "sweep", *CATALYZABLE]
            + ["--denominator", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
        assert header == "p,p_decimal,valid\n"
        assert code == 1
        assert "Traceback" not in err and "Exception ignored" not in err


def sweep_argv(source, target, denominator: int) -> list[str]:
    return [
        "sweep",
        "--source", ",".join(map(render_rational, source)),
        "--target", ",".join(map(render_rational, target)),
        "--denominator", str(denominator),
    ]


def stdout_of(argv) -> str:
    """Standard output of an in-process cli.main call that exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def reference_sweep_csv(source, target, denominator: int) -> str:
    """The sweep CSV built from the public Fraction API."""
    grid = sweep_grid(denominator, analyze(source, target).p_interval)
    lines = ["p,p_decimal,valid"] + [
        f"{render_rational(p)},{render_decimal(p)[0]},{1 if valid else 0}"
        for p, valid in sweep(source, target, grid)
    ]
    return "".join(line + "\n" for line in lines)


arbitrary_pairs = st.tuples(spectra(), spectra())
sweep_pairs = st.one_of(
    star_pairs(),
    star_pairs(feasible_leaning=True),
    # Interval endpoints with denominators past 10**12, off every lattice.
    coprime_star_pairs(),
    coprime_star_pairs(feasible_leaning=True),
    arbitrary_pairs.filter(lambda pair: locc_possible(*pair)),
    arbitrary_pairs.filter(
        lambda pair: isinstance(epsilon_decompose(*pair), StarViolation)
        and not locc_possible(*pair)
    ),
)


class TestSweepRows:
    @given(sweep_pairs, st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_fraction_reference(self, pair, denominator):
        assert stdout_of(sweep_argv(*pair, denominator)) == reference_sweep_csv(*pair, denominator)

    @pytest.mark.parametrize("denominator", [1, 5, 10, 399])
    def test_isolated_point_off_the_lattice(self, denominator):
        # m = M = 1/3 leaves the single catalyst p = 3/4 (lo == hi).
        pair = construct_states(Fraction(1, 3), Fraction(1, 3))
        out = stdout_of(sweep_argv(pair.source, pair.target, denominator))
        assert out == reference_sweep_csv(pair.source, pair.target, denominator)
        assert [row for row in out.splitlines() if row.endswith(",1")] == ["3/4,0.75,1"]

    def test_largest_denominator(self):
        source = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
        target = make_spectrum(["0.5", "0.25", "0.25", "0"])
        out = stdout_of(sweep_argv(source, target, MAX_GRID_DENOMINATOR))
        lines = out.splitlines()
        assert len(lines) == 1 + 50_001
        assert sum(line.endswith(",1") for line in lines) == 2_501  # 3/5 to 5/8
        assert out == reference_sweep_csv(source, target, MAX_GRID_DENOMINATOR)

    EDGE_PAIRS = {
        "catalyzable": (["0.4", "0.4", "0.1", "0.1"], ["0.5", "0.25", "0.25", "0"]),
        "locc-possible": (["0.4", "0.3", "0.2", "0.1"], ["0.7", "0.2", "0.1", "0"]),
        "infeasible": (["0.45", "0.45", "0.05", "0.05"], ["0.5", "0.35", "0.15", "0"]),
    }

    @pytest.mark.parametrize("pair", EDGE_PAIRS.values(), ids=EDGE_PAIRS.keys())
    @pytest.mark.parametrize(
        "denominator",
        [
            # The benchmark's denominators.
            1000, 1250, 1500, 1750, 2000,
            # Expansions longer than 12 digits, written truncated.
            8192, 65536,
            # 1/2 off the lattice.
            1, 3,
        ],
    )
    def test_kernel_edges(self, pair, denominator):
        source, target = (make_spectrum(values) for values in pair)
        out = stdout_of(sweep_argv(source, target, denominator))
        assert out == reference_sweep_csv(source, target, denominator)

    @pytest.mark.parametrize("denominator", [8, 40])
    def test_piece_ends_on_the_lattice(self, denominator):
        # The worked pair's piece is [3/5, 5/8]: both ends are lattice points
        # at d = 40 (24/40 and 25/40), the upper one at d = 8.
        source = make_spectrum(["0.4", "0.4", "0.1", "0.1"])
        target = make_spectrum(["0.5", "0.25", "0.25", "0"])
        out = stdout_of(sweep_argv(source, target, denominator))
        assert out == reference_sweep_csv(source, target, denominator)
        valid = [row.split(",")[0] for row in out.splitlines() if row.endswith(",1")]
        assert valid == ["3/5", "5/8"]

    def test_no_fraction_per_row(self):
        def fractions_built(denominator: int) -> int:
            profile = cProfile.Profile()
            with contextlib.redirect_stdout(io.StringIO()):
                profile.runcall(cli.main, ["sweep", *CATALYZABLE, "--denominator", str(denominator)])
            return sum(
                calls
                for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
                if path == fractions.__file__ and name == "__new__"
            )

        analyze.cache_clear()
        assert fractions_built(2000) < 100
        # With the pair's analysis cached, the count does not grow with the rows.
        assert fractions_built(20) == fractions_built(2000)


class TestConstruct:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, ["construct", "--m0", "2/3", "--M0", "1/3", "--mu", "1/10"])
        doc = json.loads(out)
        assert code == 0
        assert doc["branch"] == "m0_le_1"
        assert doc["a"]["exact"] == "9/16"
        assert doc["source"] == ["81/160", "9/32", "11/80", "3/40"]
        assert doc["target"] == ["9/16", "3/16", "3/16", "1/16"]
        assert doc["epsilon"] == ["9/160", "3/80", "1/80"]
        assert doc["recomputed_m"]["exact"] == "2/3"
        assert doc["recomputed_M"]["exact"] == "1/3"

    def test_large_branch(self, capsys):
        code, out, _ = run(capsys, ["construct", "--m0", "3/2", "--M0", "1/2"])
        doc = json.loads(out)
        assert code == 0
        assert doc["branch"] == "m0_gt_1"
        assert doc["a"]["exact"] == "4/9"
        assert doc["recomputed_m"]["exact"] == "3/2"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, ["construct", "--m0", "1", "--M0", "1"])
        assert code == 1 and "strictly between" in err

    def test_stdin_document(self, capsys, monkeypatch):
        doc = {"m0": "2/3", "M0": "1/3", "mu": "1/10"}
        code, out, _ = run(capsys, ["construct"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["mu"]["exact"] == "1/10"

    def test_mu_flag_replaces_document_mu(self, capsys, monkeypatch):
        doc = {"m0": "2/3", "M0": "1/3", "mu": "1/10"}
        code, out, _ = run(
            capsys, ["construct", "--mu", "1/20"], stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["mu"]["exact"] == "1/20"

    @pytest.mark.parametrize(
        "big_m0",
        [
            "1/1000",
            "1/2",
            "999/1000",
            pytest.param("0." + "9" * 400, id="0.9x400"),
            pytest.param("0." + "9" * 4290, id="0.9x4290"),
        ],
    )
    @pytest.mark.parametrize("m0", ["1e400", "1e4300"])
    def test_huge_m0_verifies(self, capsys, m0, big_m0):
        # The default mu is bound / 2**(j+1) with j about log2(m0), 1,328 at
        # 1e400.  With M0 near 1, a search halving down from the bound needs
        # that many steps.
        code, out, err = run(capsys, ["construct", "--m0", m0, "--M0", big_m0])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["recomputed_m"]["exact"] == render_rational(parse_rational(m0))
        assert doc["recomputed_M"]["exact"] == render_rational(parse_rational(big_m0))


class TestHugeValuesInErrors:
    # str() refuses ints over 4,300 digits; the messages still give the reason.
    TINY = "1e-4300"
    UNIFORM = "1/4,1/4,1/4,1/4"
    OFF_SUM = "1/4,1/4,1/4," + TINY

    @pytest.mark.parametrize(
        "argv,reason",
        [
            (
                ["validate", "--source", UNIFORM, "--target", UNIFORM, "--p", TINY],
                "two-qubit catalyst parameter must be in [1/2, 1], got 1/1000",
            ),
            (
                ["analyze", "--source", OFF_SUM, "--target", UNIFORM],
                "source: spectrum components must sum to 1, got 75000",
            ),
            (
                ["check-locc", "--source", OFF_SUM, "--target", UNIFORM],
                "source: spectrum components must sum to 1, got 75000",
            ),
            (["construct", "--m0=-" + TINY, "--M0", "1/2"], "m0 must be positive, got -1/1000"),
            (
                ["construct", "--m0", "1/2", "--M0", "1/3", "--mu=-" + TINY],
                "mu must be positive, got -1/1000",
            ),
            (
                ["construct", "--m0", "1/2", "--M0=" + TINY, "--mu", "1/2"],
                "mu = 1/2 violates the construction invariants for m0=1/2, M0=1/1000",
            ),
        ],
        ids=["validate-p", "analyze-sum", "check-locc-sum", "construct-m0", "construct-mu",
             "construct-M0"],
    )
    def test_message_names_the_reason(self, capsys, argv, reason):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + reason)
        assert "Exceeds the limit" not in err


class TestLorenz:
    def test_blocked_pair_source(self, capsys):
        code, out, _ = run(capsys, ["lorenz", "0.4,0.4,0.1,0.1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k_over_n,lambda,lambda_decimal"
        assert lines[1] == "0/1,0/1,0"
        assert lines[3] == "1/2,4/5,0.8"
        assert lines[5] == "1/1,1/1,1"

    def test_point_mass_and_uniform(self, capsys):
        code, out, _ = run(capsys, ["lorenz", "1,0,0,0", "0.25,0.25,0.25,0.25"])
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        point_mass = blocks[0].splitlines()
        assert point_mass[2] == "1/4,1/1,1"
        uniform = blocks[1].splitlines()
        assert uniform[2] == "1/4,1/4,0.25"
        assert uniform[4] == "3/4,3/4,0.75"

    def test_stdin_spectra(self, capsys, monkeypatch):
        doc = {"spectra": [["0.5", "0.25", "0.25", "0"]]}
        code, out, _ = run(capsys, ["lorenz"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 0
        assert "1/4,1/2,0.5" in out.splitlines()

    def test_document_needs_spectra(self, capsys, monkeypatch):
        doc = {"source": ["0.5", "0.25", "0.25", "0"]}
        code, out, err = run(capsys, ["lorenz"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 1 and out == "" and "needs a nonempty 'spectra' array" in err

    def test_malformed_spectrum(self, capsys):
        code, _, err = run(capsys, ["lorenz", "0.4,0.4"])
        assert code == 1 and "exactly 4" in err

    def test_each_spectrum_is_read_after_the_rows_before_it(self, capsys, monkeypatch):
        # No list of parsed spectra: spectra[1] is read only once the five
        # rows of spectra[0] are written.
        events = []
        read, write = cli._spectrum, cli.decimal_text

        def spy_read(values, key):
            events.append(key)
            return read(values, key)

        def spy_write(*args):
            events.append("row")
            return write(*args)

        monkeypatch.setattr(cli, "_spectrum", spy_read)
        monkeypatch.setattr(cli, "decimal_text", spy_write)
        code, _, _ = run(capsys, ["lorenz", "0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0"])
        assert code == 0
        assert events == ["spectra[0]", *["row"] * 5, "spectra[1]", *["row"] * 5]

    @pytest.mark.parametrize("from_stdin", [False, True], ids=["flags", "stdin"])
    def test_spectrum_count_cap(self, capsys, monkeypatch, from_stdin):
        # The count is checked before any spectrum is read.
        monkeypatch.setattr(cli, "MAX_LORENZ_SPECTRA", 3)
        read, read_one = [], cli._spectrum

        def spy_read(values, key):
            read.append(key)
            return read_one(values, key)

        monkeypatch.setattr(cli, "_spectrum", spy_read)

        def lorenz(count):
            spectra = [["1", "0", "0", "0"]] * count
            if from_stdin:
                doc = json.dumps({"spectra": spectra})
                return run(capsys, ["lorenz"], stdin=doc, monkeypatch=monkeypatch)
            return run(capsys, ["lorenz", *map(",".join, spectra)])

        assert lorenz(3)[0] == 0 and len(read) == 3
        read.clear()
        assert lorenz(4) == (1, "", "error: lorenz reads at most 3 spectra, got 4\n")
        assert read == []

    def test_malformed_spectrum_after_good_ones(self, capsys, monkeypatch):
        # The first bad spectrum is named, and the rows already made for the
        # good ones before it are not written.
        doc = {"spectra": [["1", "0", "0", "0"], ["0.5", "0.5", "0", "0"], ["0.5", "0.5"]]}
        code, out, err = run(capsys, ["lorenz"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "error: spectra[2]: spectrum needs exactly 4 components, got 2\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["explode"])
        assert code == 1 and err != ""

    def test_missing_command(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1 and err != ""


class TestStdinDocument:
    def test_closed_stdin_is_input_error(self, capsys, monkeypatch):
        # With file descriptor 0 closed (`qcatalyst analyze <&-`) Python sets sys.stdin to None.
        monkeypatch.setattr(sys, "stdin", None)
        code, out, err = run(capsys, ["analyze"])
        assert code == 1 and out == ""
        assert err.startswith("error: missing flags") and "Traceback" not in err

    def test_byte_order_mark_is_input_error(self, capsys, monkeypatch):
        # The text json.loads gives a document that starts with a BOM.
        stdin = "\ufeff{}"
        code, out, err = run(capsys, ["analyze"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == ("error: invalid JSON request document: Unexpected UTF-8 BOM "
                       "(decode using utf-8-sig): line 1 column 1 (char 0)\n")

    def test_deeply_nested_document_is_input_error(self, capsys, monkeypatch):
        stdin = "[" * 200_000 + "]" * 200_000
        code, out, err = run(capsys, ["analyze"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "error: invalid JSON request document: nested too deeply\n"

    PAIR = '"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["0.5", "0.25", "0.25", "0"]'

    @pytest.mark.parametrize(
        "argv,stdin,reason",
        [
            (
                ["construct"],
                '{"m0": ' + "1" * 5000 + ', "M0": "1/2"}',
                "m0: rational '111",
            ),
            (
                ["sweep"],
                "{" + PAIR + ', "grid_denominator": ' + "1" * 5000 + "}",
                "grid denominator must be a positive integer up to 100000, got '111",
            ),
        ],
        ids=["construct-m0", "sweep-denominator"],
    )
    def test_overlong_document_integer_named(self, capsys, monkeypatch, argv, stdin, reason):
        # json.load's int() refuses a literal over 4,300 digits with CPython's
        # own ValueError; the CLI must still say which value is wrong and why.
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + reason)
        assert "Exceeds the limit" not in err
        if argv == ["construct"]:
            assert err.endswith("has a number over 4300 digits\n")

    @pytest.mark.parametrize(
        "argv,stdin,message",
        [
            (["analyze"], "[1]", "request document must be a JSON object\n"),
            (["analyze"], "{}", "request document needs 'source' and 'target'\n"),
            (
                ["analyze"],
                '{"source": "0.4", "target": ["1", "0", "0", "0"]}',
                "source must be an array of rational strings\n",
            ),
            (["construct"], '{"m0": "1/2"}', "request document needs 'm0' and 'M0'\n"),
            (["analyze"], "{", "invalid JSON request document: "),
        ],
        ids=["not-an-object", "no-pair", "source-not-an-array", "no-M0", "invalid-json"],
    )
    def test_document_error_message(self, capsys, monkeypatch, argv, stdin, message):
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message) and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,stdin,message",
        [
            (
                ["analyze"],
                '{"source": [NaN, 0, 0, 0], "target": ["1", "0", "0", "0"]}',
                "source: malformed rational 'NaN'",
            ),
            (
                ["sweep"],
                "{" + PAIR + ', "grid_denominator": Infinity}',
                "grid denominator must be a positive integer up to 100000, got 'Infinity'",
            ),
            (
                ["construct"],
                '{"m0": -Infinity, "M0": "1/2"}',
                "m0: malformed rational '-Infinity'",
            ),
            (
                ["analyze"],
                '{"source": [true, null, 0, 0], "target": ["1", "0", "0", "0"]}',
                "source: malformed rational 'true'",
            ),
            (["construct"], '{"m0": null, "M0": "1/2"}', "m0: malformed rational 'null'"),
            (
                ["validate"],
                "{" + PAIR + ', "catalyst": [false, "1"]}',
                "catalyst: malformed rational 'false'",
            ),
            (
                ["validate"],
                "{" + PAIR + ', "catalyst": [null, "1"]}',
                "catalyst: malformed rational 'null'",
            ),
            (
                ["sweep"],
                "{" + PAIR + ', "grid_denominator": null}',
                "grid denominator must be a positive integer up to 100000, got null",
            ),
            (
                ["sweep"],
                "{" + PAIR + ', "grid_denominator": true}',
                "grid denominator must be a positive integer up to 100000, got true",
            ),
            (["validate"], "{" + PAIR + ', "p": [null, true]}', "p: malformed rational '[...]'"),
            (
                ["validate"],
                "{" + PAIR + ', "p": ' + "[" * 900 + "]" * 900 + "}",
                "p: malformed rational '[...]'",
            ),
            (
                ["analyze"],
                '{"source": [{"a": [1, {}]}, 0, 0, 0], "target": ["1", "0", "0", "0"]}',
                "source: malformed rational '{...}'",
            ),
            (
                ["sweep"],
                "{" + PAIR + ', "grid_denominator": [1000]}',
                "grid denominator must be a positive integer up to 100000, got '[...]'",
            ),
        ],
        ids=[
            "analyze-nan", "sweep-infinity", "construct-minus-infinity",
            "analyze-true", "construct-null", "validate-false", "validate-null", "sweep-null",
            "sweep-true", "validate-array-of-literals", "validate-900-deep", "analyze-object",
            "sweep-array",
        ],
    )
    def test_json_constant_read_as_text(self, capsys, monkeypatch, argv, stdin, message):
        # json reads NaN and +-Infinity as binary floats unless told not to;
        # they must stay text, and the message quotes them as written.  The
        # literals true, false and null are quoted as written too, not as
        # Python writes True, False and None.  An array or an object is
        # quoted as its brackets alone, whatever it holds and however deep.
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,stdin",
        [
            (["analyze"], '{"source": [1, 0, 0, 0], "target": [1, 0, 0, 0]}'),
            (["validate"], '{"source": [1, 0, 0, 0], "target": [1, 0, 0, 0], "catalyst": [1, 0]}'),
            (["validate"], '{"source": [1, 0, 0, 0], "target": [1, 0, 0, 0], "p": 1}'),
            (["construct"], '{"m0": 2, "M0": 0, "mu": ' + "7" * 700 + "}"),
        ],
        ids=["analyze", "validate-catalyst", "validate-p", "construct"],
    )
    def test_document_int_reaches_the_library_as_an_int(self, capsys, monkeypatch, argv, stdin):
        # Every library reader takes ints, so the CLI does not write a
        # document's int out for the reader to parse again.
        seen = []
        for name in ("make_spectrum", "make_catalyst", "two_qubit_catalyst", "construct_states"):
            def spy(*args, reader=getattr(cli, name)):
                args = [a if a is None or isinstance(a, (str, int)) else list(a) for a in args]
                seen.extend(type(v) for a in args if a is not None
                            for v in (a if isinstance(a, list) else [a]))
                return reader(*args)
            monkeypatch.setattr(cli, name, spy)
        run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert seen and set(seen) == {int}

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_document_integer_at_the_digit_limit_stays_an_int(self, capsys, monkeypatch, sign):
        stdin = "{" + self.PAIR + ', "grid_denominator": ' + sign + "9" * 4300 + "}"
        code, out, err = run(capsys, ["sweep"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        reason = "grid denominator must be a positive integer up to 100000"
        assert err == f"error: {reason}, got {sign}{'9' * 4300}\n"


class TestBoundedIO:
    # Padded with leading spaces to the cap, or to one character past it.
    DOCUMENT = '{"source": ["1", "0", "0", "0"], "target": ["1", "0", "0", "0"]}'

    def test_document_at_the_cap_is_read(self, capsys, monkeypatch):
        stdin = " " * (cli._MAX_DOCUMENT_CHARS - len(self.DOCUMENT)) + self.DOCUMENT
        code, out, _ = run(capsys, ["analyze"], stdin=stdin, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["verdict"] == "locc_already_possible"

    def test_document_over_the_cap_is_refused(self, capsys, monkeypatch):
        stdin = " " * (cli._MAX_DOCUMENT_CHARS + 1 - len(self.DOCUMENT)) + self.DOCUMENT
        code, out, err = run(capsys, ["analyze"], stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == f"error: request document is longer than {cli._MAX_DOCUMENT_CHARS} characters\n"

    def test_endless_document_is_refused_in_bounded_memory(self):
        # `yes | qcatalyst analyze`: read to its end, more spaces than the
        # child's address space holds end in a MemoryError.
        limit = 128 << 20
        chunk = b" " * (1 << 20)
        with subprocess.Popen(
            [sys.executable, "-m", "qcatalyst.cli", "analyze"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        ) as proc:
            # The child stops reading once it has refused the document.
            with contextlib.suppress(BrokenPipeError):
                for _ in range(2 * limit // len(chunk)):
                    proc.stdin.write(chunk)
                proc.stdin.close()
            out, err = proc.stdout.read(), proc.stderr.read()
        assert (proc.returncode, out) == (1, b"")
        message = f"error: request document is longer than {cli._MAX_DOCUMENT_CHARS} characters\n"
        assert err.decode() == message

    def unwritable_stdout(self, **options) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "qcatalyst.cli", "analyze", *CATALYZABLE],
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
            timeout=60,
            **options,
        )

    def test_closed_stdout_is_input_error(self):
        # `qcatalyst analyze ... >&-`: Python sets sys.stdout to None.
        done = self.unwritable_stdout(preexec_fn=lambda: os.close(1))
        assert done.returncode == 1
        assert done.stderr == "error: standard output is closed; nothing can be written\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_input_error(self):
        with open("/dev/full", "w") as full:
            done = self.unwritable_stdout(stdout=full)
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 28] No space left on device\n"

    def test_broken_pipe_keeps_no_descriptor(self, monkeypatch):
        # main can be called again: each call on a pipe whose reader went
        # away opens devnull for stdout and closes what it opened.
        def lowest_free() -> int:
            fd = os.open(os.devnull, os.O_RDONLY)
            os.close(fd)
            return fd

        before = lowest_free()
        for _ in range(5):
            read_end, write_end = os.pipe()
            os.close(read_end)
            with open(write_end, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert cli.main(["analyze", *CATALYZABLE]) == 1
        assert lowest_free() == before

    def test_unreadable_stdin_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(["analyze"]) == 1
        assert sys.stdout.getvalue() == ""
        assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"

    def test_unreadable_stdin_leaves_stdout_alone(self):
        # The host's stdout still reaches its reader after the call.
        code = (
            "import io, sys\n"
            "import qcatalyst.cli as cli\n"
            "class UnreadableStdin(io.StringIO):\n"
            "    def read(self, size=-1):\n"
            "        raise OSError(5, 'Input/output error')\n"
            "sys.stdin = UnreadableStdin()\n"
            "print('exit', cli.main(['analyze']))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=child_env(), text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "exit 1\n")
        assert done.stderr == "error: [Errno 5] Input/output error\n"


class _UnreadableStdin(io.StringIO):
    """A stdin whose read fails, as a terminal that hung up does."""

    def read(self, size=-1):
        raise OSError(5, "Input/output error")


class TestOwnDigitLimit:
    # The 4,300-digit limit is counted on the text by rationals, so it holds
    # with CPython's int_max_str_digits limit switched off or at its lowest,
    # 640: a number under 4,300 digits is read at either.
    PAIR = ["--target", "0.5,0.25,0.25,0"]
    DOCUMENT_PAIR = '{"source": ["0.4", "0.4", "0.1", "0.1"], "target": ["1", "0", "0", "0"], '
    QUARTER = "1" + "0" * 1000 + "/4" + "0" * 1000

    @pytest.mark.parametrize(
        "argv,stdin,message",
        [
            (
                ["check-locc", "--source", "1" * 4301 + "/1" + "0" * 4301 + ",0.5,0.25,0.25", *PAIR],
                None,
                "has a number over 4300 digits\n",
            ),
            (
                ["analyze", "--source", "1e" + "0" * 4297 + "1234" + ",0.5,0.25,0.25", *PAIR],
                None,
                "exceeds 4300 in magnitude\n",
            ),
            (
                ["analyze"],
                '{"source": [' + "1" * 4301 + ', "0", "0", "0"], "target": ["1", "0", "0", "0"]}',
                "has a number over 4300 digits\n",
            ),
            (
                ["sweep", "--source", "0.4,0.4,0.1,0.1", *PAIR, "--denominator", "9" * 4301],
                None,
                "error: grid denominator must be a positive integer up to 100000, "
                f"got '{'9' * 4301}'\n",
            ),
            (
                # 4,301 characters but 4,300 digits: read as the int.
                ["sweep", "--source", "0.4,0.4,0.1,0.1", *PAIR, "--denominator", "+" + "9" * 4300],
                None,
                "error: grid denominator must be a positive integer up to 100000, "
                f"got {'9' * 4300}\n",
            ),
            (
                ["analyze"],
                '{"source": [' + "1" * 700 + ', "0", "0", "0"], "target": ["1", "0", "0", "0"]}',
                f"error: source: spectrum components must sum to 1, got {'1' * 700}\n",
            ),
            (
                ["analyze", "--source", ",".join([QUARTER] * 4), "--target", "1,0,0,0"],
                None,
                None,
            ),
            (
                ["validate"],
                DOCUMENT_PAIR + '"p": [' + "1" * 700 + "]}",
                "error: p: malformed rational '[...]'\n",
            ),
            (
                ["sweep"],
                DOCUMENT_PAIR + '"grid_denominator": [' + "1" * 700 + "]}",
                "error: grid denominator must be a positive integer up to 100000, got '[...]'\n",
            ),
            (
                ["construct"],
                '{"m0": {"a": ' + "1" * 700 + '}, "M0": "1/3"}',
                "error: m0: malformed rational '{...}'\n",
            ),
        ],
        ids=[
            "numerator",
            "exponent",
            "document-integer",
            "denominator-flag",
            "signed-denominator-flag",
            "document-integer-700",
            "valid-1001-digits",
            "document-p-array-700",
            "document-denominator-array-700",
            "document-m0-object-700",
        ],
    )
    def test_same_with_the_interpreter_limit_off(self, argv, stdin, message):
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        runs = []
        for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
            done = subprocess.run(
                [sys.executable, "-m", "qcatalyst.cli", *argv],
                input=stdin,
                capture_output=True,
                env={**env, **limit},
                text=True,
                timeout=60,
            )
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1] == runs[2]
        code, out, err = runs[0]
        if message is None:
            assert (code, err) == (0, "") and '"verdict": "locc_already_possible"' in out
        else:
            assert (code, out) == (1, "") and err.endswith(message)


HELP_GOLDEN = json.loads((Path(__file__).with_name("cli_help_golden.json")).read_text())


@pytest.mark.parametrize("case", HELP_GOLDEN, ids=[" ".join(c["argv"]) for c in HELP_GOLDEN])
def test_help_byte_identical(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main(case["argv"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == case["stdout"]


class TestSharedParser:
    FAILING = (
        (["frobnicate"], "invalid choice"),
        (["analyze", "--source", "0.4,0.4,0.1,0.1"], "both --source and --target"),
        (["check-locc", "--source", "a,b,c,d", "--target", "0.5,0.25,0.25,0"], "malformed"),
    )

    def test_reuse_carries_no_state(self, capsys, monkeypatch):
        for case in GOLDEN + GOLDEN[::-1]:
            for argv, message in self.FAILING:
                code, out, err = run(capsys, argv)
                assert code == 1 and out == "" and message in err
            code, out, _ = run(capsys, case["argv"], stdin=case["stdin"], monkeypatch=monkeypatch)
            assert (code, out) == (case["exit_code"], case["stdout"])

    def test_import_builds_no_parser(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import qcatalyst.cli as cli; print(cli._build_parser.cache_info().currsize)"],
            capture_output=True,
            env=child_env(),
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr

    def test_second_call_reuses_the_parser(self, capsys):
        cli._build_parser.cache_clear()
        run(capsys, ["analyze", *CATALYZABLE])
        first = cli._build_parser()
        run(capsys, ["check-locc", *CATALYZABLE])
        assert cli._build_parser() is first
        assert cli._build_parser.cache_info().misses == 1


def fingerprint_calls() -> list:
    """(argv, stdin) of the 3,060 calls of scripts/cli_fingerprint.py's
    default run: seeds 1-3, 1,000 requests and 20 sweep calls each."""
    spec = importlib.util.spec_from_file_location(
        "cli_fingerprint", ROOT / "scripts" / "cli_fingerprint.py"
    )
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return [call for seed in (1, 2, 3) for call in fingerprint.calls(seed, 1000, 20)]


class _Parsed(Exception):
    """Raised in place of building the request, with the flags main parsed."""


class TestDispatch:
    """main hands a call that names a command first to that command's parser
    alone; the top-level parser must answer every call the same way."""

    PAIR = ["0.5,0.25,0.25,0"]
    EDGES = [
        ["analyze", "--sour", "0.4,0.4,0.1,0.1", "--target", *PAIR],
        ["construct", "--m", "1/5", "--M0", "1/2"],  # --m0 or --mu: ambiguous
        ["analyze", "--source=0.4,0.4,0.1,0.1", "--target=0.5,0.25,0.25,0"],
        ["analyze", "-h"],
        ["sweep", "--source", "1,0,0,0", "--help"],
        ["lorenz", "--", "a,b,c,d"],
        ["lorenz", "--", "-1,2,0,0", "--source"],
        ["construct", "--m0", "-1/5", "--M0", "1/2"],
        ["construct", "--m0", "-1", "--M0", "1/2"],
        ["check-locc", "--source", "-0.1,0.6,0.3,0.2", "--target", *PAIR],
        ["analyze", "--source", "1,0,0,0", "--source", "0.4,0.4,0.1,0.1", "--target", *PAIR],
        ["analyze", "--frobnicate", "1", *CATALYZABLE],
        ["sweep", *CATALYZABLE, "--denominator", "ten"],
        ["--", "analyze", *CATALYZABLE],
        [],
        ["-h"],
        ["--he"],
        ["-x", "analyze", *CATALYZABLE],
        ["analyse", *CATALYZABLE],
        ["lorenz"],
    ]

    @staticmethod
    def through_main(capsys, monkeypatch, argv) -> tuple:
        def parsed(args, *_):
            raise _Parsed(vars(args))

        monkeypatch.setattr(cli, "_request", parsed)
        try:
            code = cli.main(argv)
        except _Parsed as reached:
            return "request", {"command": argv[0], **reached.args[0]}
        except SystemExit as exited:
            return "exit", exited.code, capsys.readouterr().out
        return "error", code, capsys.readouterr().err

    @staticmethod
    def through_top_level(capsys, argv) -> tuple:
        try:
            args = cli._build_parser().parse_args(argv)
        except cli.InputError as exc:
            return "error", 1, f"error: {exc}\n"
        except SystemExit as exited:
            return "exit", exited.code, capsys.readouterr().out
        return "request", vars(args)

    def test_same_answer_as_the_top_level_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        # The script puts perfbench/ on sys.path; keep that to this test.
        monkeypatch.setattr(sys, "path", [*sys.path])
        calls = fingerprint_calls()
        assert len(calls) == 3060
        kinds = set()
        for argv in [argv for argv, _ in calls] + self.EDGES:
            answer = self.through_main(capsys, monkeypatch, argv)
            assert answer == self.through_top_level(capsys, argv), argv
            kinds.add(answer[0])
        assert kinds == {"request", "error", "exit"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *CATALYZABLE],
            ["lorenz", "0.4,0.4,0.1,0.1", "0.5,0.25,0.25,0"],
            ["construct", "--m0", "7/30", "--M0", "3/7"],
            ["check-locc", "--source", "0.4,0.4,0.1,0.1"],
        ],
        ids=["analyze", "lorenz", "construct", "partial-flags"],
    )
    def test_a_command_call_runs_one_parse(self, capsys, argv):
        profile = cProfile.Profile()
        profile.runcall(cli.main, argv)
        capsys.readouterr()
        parses = sum(
            calls
            for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
            if path == argparse.__file__ and name == "parse_known_args"
        )
        assert parses == 1
