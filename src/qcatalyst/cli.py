"""Command-line front end: every decision procedure, machine-readable output.

Every command reads one request document.  Flags (for humans) are its keys;
when none of the command's required flags is given, the JSON document on
standard input (for harnesses) supplies the rest, and a flag that is given
replaces the document key of the same name.  Reports are JSON with exact
"num/den" strings as the authoritative values; decimal fields are annotated
approximations.  Tabular commands (sweep, lorenz) emit CSV with a header
row and LF line endings.  Each ``_cmd_*`` handler returns its report (a dict)
or its CSV lines; ``main`` alone writes them, with one ``print``, and
picks the exit code.

Exit codes: 0 = evaluated (whatever the verdict), 1 = input error,
2 = internal consistency failure (interval theorem and brute-force oracle
disagree, which indicates a bug, never a valid state).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, cycle
from json.encoder import encode_basestring_ascii
from math import gcd

from .catalysis import (
    Verdict,
    _bounds,
    analyze,
    is_valid_catalyst,
)
from .constructor import construct_states
from .majorization import first_violated_index
from .oracle import (
    _DENOMINATOR_RULE,
    _grid_layout,
    _p_set,
    oracle_valid_catalyst,
    p_set_verdicts,
)
from .rationals import (
    _DECIMAL_DIGITS,
    _DECIMAL_SCALE,
    MAX_DIGITS,
    ExtendedRational,
    _digits,
    _int,
    decimal_text,
    ratio_text,
    render_decimal,
    render_rational,
    value_text,
)
from .spectra import (
    Spectrum4,
    _slacks,
    make_catalyst,
    make_spectrum,
    two_qubit_catalyst,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2

# Longest stdin request document, in characters.  The document is read up to
# one character past it, so that endless input (`yes | qcatalyst analyze`)
# is refused in bounded memory; a pair of 4,300-digit spectra is about 70 KB.
_MAX_DOCUMENT_CHARS = 1 << 24

# Most spectra one lorenz call reads, from flags or the document: its rows
# and output grow with the count, and the document cap alone lets in 1.7
# million.  In process, 50,000 spectra [1, 0, 0, 0] took 0.84 s and 46 MB and
# 100,000 took 1.73 s and 75 MB (CPython 3.11.7, 2 cores).
MAX_LORENZ_SPECTRA = 50_000


class InputError(Exception):
    """Malformed flags or request document."""


class _Parser(argparse.ArgumentParser):
    # The top-level parser's command table: each command's name to its
    # parser, its handler and the flags that stand for the stdin document.
    commands: dict[str, tuple]

    # argparse's default error() exits with status 2, which is reserved here
    # for internal consistency failures; route usage errors to exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _ratio_field(num: int, den: int) -> dict:
    """The report field of num/den, den > 0; the exact text in lowest terms."""
    g = gcd(num, den)
    decimal, exact = decimal_text(num, den)
    return {"exact": ratio_text(num // g, den // g), "decimal": decimal, "decimal_is_exact": exact}


def _rational_field(value: ExtendedRational) -> dict:
    decimal, exact = render_decimal(value)
    return {"exact": render_rational(value), "decimal": decimal, "decimal_is_exact": exact}


def _ratio_strings(nums, den: int) -> list[str]:
    """The "num/den" text of each of nums over den, in lowest terms."""
    return [ratio_text(n // g, den // g) for n in nums for g in [gcd(n, den)]]


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) of a report (dicts with string keys,
    lists, strings, ints, booleans and None), without json's pure-Python
    encoder, which any indent selects."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    # Identity, not a lookup: True == 1 and False == 0.
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return value_text(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
    else:
        brackets = "[]"
        items = [_json_text(item, inner) for item in value]
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _document_text(value) -> str | int:
    """A document value as the library reads it: a string or an int as it
    is, JSON's literals as the document wrote them, and an array or an
    object as "[...]" or "{...}" whatever it holds.  Writing out what it
    holds would recurse as deep as the document nests, and str() would
    write Python's literals and refuse an int past int_max_str_digits."""
    if type(value) in (list, dict):
        return "[...]" if type(value) is list else "{...}"
    return value if type(value) in (str, int) else _json_text(value)


def _array(values, label: str) -> list:
    if not isinstance(values, list):
        raise InputError(f"{label} must be an array of rational strings")
    return values


def _spectrum(values, label: str) -> Spectrum4:
    texts = [v if type(v) is str else _document_text(v) for v in _array(values, label)]
    try:
        return make_spectrum(texts)
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from None


def _json_int(text: str) -> int | str:
    """A JSON integer, or an integer flag, as an int, or as its text past
    MAX_DIGITS digits, counted as int() counts them."""
    return text if _digits(text) > MAX_DIGITS else _int(text)


# argparse names a flag's converter in its error: "invalid int value: 'x'".
_json_int.__name__ = "int"

# Numbers keep their literal text, so parse_rational reads them exactly
# instead of through a binary float; so do integers of more than MAX_DIGITS
# digits and the constants NaN, Infinity and -Infinity, so that the CLI names
# what is wrong with them as written.  One decoder serves every document:
# json.loads with these hooks builds a new one per call.
_DECODER = json.JSONDecoder(parse_float=str, parse_int=_json_int, parse_constant=str)


def _load_document() -> dict:
    if sys.stdin is None or sys.stdin.isatty():
        state = "closed" if sys.stdin is None else "a terminal"
        raise InputError(
            f"missing flags and standard input is {state}; "
            "pass flags or pipe a JSON request document"
        )
    try:
        text = sys.stdin.read(_MAX_DOCUMENT_CHARS + 1)
    except OSError as exc:  # an input error; main's OSError branch is for writes
        raise InputError(exc) from None
    if len(text) > _MAX_DOCUMENT_CHARS:
        raise InputError(f"request document is longer than {_MAX_DOCUMENT_CHARS} characters")
    try:
        # json.loads's own first check, with its text.
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        document = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON request document: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON request document: nested too deeply") from None
    if not isinstance(document, dict):
        raise InputError("request document must be a JSON object")
    return document


def _request(args: argparse.Namespace, required: tuple[str, ...]) -> dict:
    """The request document of one command call, from the flags given.

    Flags are document keys.  The stdin document is read only when none of
    the command's required keys came as a flag; a flag that is given
    replaces the document key of the same name.
    """
    flags = vars(args)
    given = [key for key in required if key in flags]
    if not given:
        return {**_load_document(), **flags}
    if len(given) < len(required):
        names = " and ".join(f"--{key}" for key in required)
        raise InputError(f"provide both {names}, or neither (stdin document)")
    return flags


def _require(request: dict, *keys: str) -> None:
    if any(key not in request for key in keys):
        raise InputError(f"request document needs {' and '.join(map(repr, keys))}")


def _spectrum_pair(request: dict) -> tuple[Spectrum4, Spectrum4]:
    _require(request, "source", "target")
    return _spectrum(request["source"], "source"), _spectrum(request["target"], "target")


def _cmd_check_locc(request: dict) -> dict:
    source, target = _spectrum_pair(request)
    violated = first_violated_index(source, target)
    return {
        "possible": violated is None,
        "partial_sums_source": _ratio_strings(accumulate(source.scaled[0]), source.scaled[1]),
        "partial_sums_target": _ratio_strings(accumulate(target.scaled[0]), target.scaled[1]),
        "first_violated_index": violated,
    }


def _cmd_analyze(request: dict) -> dict:
    """The analyze report: each bound rendered once, and the p-interval from
    the report's int ends."""
    report = analyze(*_spectrum_pair(request))
    verdict, reason = report.verdict, None
    # Read only when catalyzable: _p_ends would compare m and M again.
    ends = report._p_ends() if verdict is Verdict.CATALYZABLE else None
    m, M = [None if b is None else _rational_field(b) for b in (report.m, report.M)]
    violation = report.star_violation
    if violation is not None:
        reason = {
            "kind": "star_violated",
            "condition": violation.value,
            "violated_inequality": violation.inequality,
        }
    elif verdict is Verdict.INFEASIBLE:
        reason = {"kind": "empty_interval"}
    return {
        "verdict": verdict.value,
        "m": m,
        "M": M,
        "r_interval": None if ends is None else [m, M],
        "p_interval": None if ends is None else [_ratio_field(*end) for end in ends],
        "reason": reason,
    }


def _catalyst(request: dict):
    if ("catalyst" in request) == ("p" in request):
        raise InputError("provide exactly one of --catalyst or --p (or a document key)")
    if "catalyst" in request:
        return make_catalyst(map(_document_text, _array(request["catalyst"], "catalyst")))
    return two_qubit_catalyst(_document_text(request["p"]))


def _cmd_validate(request: dict) -> dict:
    source, target = _spectrum_pair(request)
    catalyst = _catalyst(request)
    kappa, den = catalyst.scaled
    report = analyze(source, target)
    already_possible = report.verdict is Verdict.LOCC_ALREADY_POSSIBLE
    oracle_verdict = oracle_valid_catalyst(source, target, catalyst)
    theorem_verdict: bool | None = None
    if len(kappa) == 2:
        # When LOCC already works, majorization survives pairing with any
        # shared catalyst, so the transformation stays possible; no interval
        # check applies.
        theorem_verdict = already_possible or is_valid_catalyst(
            source, target, Fraction(kappa[0], den)
        )
    return {
        "catalyst": _ratio_strings(kappa, den),
        "p": _ratio_strings(kappa[:1], den)[0] if len(kappa) == 2 else None,
        "locc_already_possible": already_possible,
        "theorem_verdict": theorem_verdict,
        "oracle_verdict": oracle_verdict,
        "agree": theorem_verdict is None or theorem_verdict == oracle_verdict,
    }


def _cmd_sweep(request: dict) -> list[str]:
    """oracle.sweep over sweep_grid, rendered, on the ints: no Fraction and
    no function call per row."""
    source, target = _spectrum_pair(request)
    d = request.get("grid_denominator", 1000)
    if d is None or type(d) is bool:
        raise InputError(f"{_DENOMINATOR_RULE}, got {_document_text(d)}")
    first, extras = _grid_layout(_document_text(d), analyze(source, target)._p_ends() or ())
    pieces = _p_set(source, target)
    # A piece [lo, hi] holds the lattice rows k/d from ceil(lo d) to
    # floor(hi d), so the verdict flips only at those edges (and 1/1 is
    # written below).
    edges = [first]
    for (ln, ld), (hn, hd) in pieces:
        edges += [-(-ln * d // ld), min(hn * d // hd + 1, d)]
    rows = ["p,p_decimal,valid"]
    for start, stop, valid in zip(edges, [*edges[1:], d], cycle("01")):
        # decimal_text(k, d) of 0 < k < d: the trailing zeros of a
        # terminating expansion are dropped, those of a truncation kept.
        rows += [
            f"{k // g}/{d // g},0.{digits if r else digits.rstrip('0')},{valid}"
            for k in range(start, stop)
            for g, (s, r) in [(gcd(k, d), divmod(k * _DECIMAL_SCALE, d))]
            for digits in [str(s).zfill(_DECIMAL_DIGITS)]
        ]
    # The row 1/1 and the points off the lattice, from the largest down.
    others = [(d - first, 1, 1), *extras]
    for (index, a, b), valid in zip(others, p_set_verdicts(pieces, [x[1:] for x in others])):
        rows.insert(index + 1, f"{ratio_text(a, b)},{decimal_text(a, b)[0]},{1 if valid else 0}")
    return rows


def _cmd_construct(request: dict) -> dict:
    _require(request, "m0", "M0")
    mu = _document_text(request["mu"]) if "mu" in request else None
    result = construct_states(_document_text(request["m0"]), _document_text(request["M0"]), mu)
    (alpha, den_s), (beta, den_t) = result.source.scaled, result.target.scaled
    # The bounds recomputed from the pair on the ints, as analyze does;
    # eps1 = mu a > 0, so m is finite.
    slacks, slack_den = _slacks(result.source, result.target)
    m, M = _bounds(result.source, slacks, slack_den)
    return {
        "branch": result.branch.value,
        "mu": _rational_field(result.mu),
        "a": _ratio_field(beta[0], den_t),
        "source": _ratio_strings(alpha, den_s),
        "target": _ratio_strings(beta, den_t),
        "epsilon": _ratio_strings(slacks, slack_den),
        "recomputed_m": _ratio_field(*m),
        "recomputed_M": _ratio_field(*M),
    }


def _cmd_lorenz(request: dict) -> list[str]:
    raw = request.get("spectra")
    if not isinstance(raw, list) or not raw:
        raise InputError("request document needs a nonempty 'spectra' array")
    if len(raw) > MAX_LORENZ_SPECTRA:
        raise InputError(f"lorenz reads at most {MAX_LORENZ_SPECTRA} spectra, got {len(raw)}")
    lines = []
    for index, values in enumerate(raw):
        # The vertices (k/n, k-th partial sum) from the origin, as
        # majorization.lorenz_points gives them, on the ints; each spectrum
        # is read as its rows are written, and none is kept.
        nums, den = _spectrum(values, f"spectra[{index}]").scaled
        if index:
            lines.append("")
        lines.append("k_over_n,lambda,lambda_decimal")
        sums = [0, *accumulate(nums)]
        rows = zip(_ratio_strings(range(len(sums)), len(nums)), _ratio_strings(sums, den), sums)
        lines += [f"{k},{s},{decimal_text(n, den)[0]}" for k, s, n in rows]
    return lines


def _csv_list(text: str) -> list[str]:
    """A comma-separated flag value as the document's array of strings."""
    return text.split(",")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qcatalyst",
        description=(
            "Exact decision procedures for four-state LOCC transformations "
            "and two-qubit entanglement catalysis."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name: str, summary: str, handler, required) -> argparse.ArgumentParser:
        # SUPPRESS keeps the flags that were not given out of the request.
        sub = subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        parser.commands[name] = sub, handler, required
        return sub

    def pair_command(name: str, summary: str, handler) -> argparse.ArgumentParser:
        sub = command(name, summary, handler, ("source", "target"))
        sub.add_argument("--source", type=_csv_list, help="source spectrum, e.g. 0.4,0.4,0.1,0.1")
        sub.add_argument("--target", type=_csv_list, help="target spectrum, e.g. 0.5,0.25,0.25,0")
        return sub

    pair_command("check-locc", "decide plain LOCC convertibility", _cmd_check_locc)
    pair_command("analyze", "full catalyzability report", _cmd_analyze)

    sub = pair_command("validate", "check one specific catalyst", _cmd_validate)
    sub.add_argument("--catalyst", type=_csv_list, help="catalyst spectrum, e.g. 0.6,0.4")
    sub.add_argument("--p", help="two-qubit catalyst parameter p in [1/2, 1]")

    sub = pair_command("sweep", "oracle verdicts over a p grid (CSV)", _cmd_sweep)
    sub.add_argument(
        "--denominator",
        dest="grid_denominator",
        metavar="DENOMINATOR",
        type=_json_int,
        help="grid denominator d (default 1000)",
    )

    sub = command("construct", "build a pair with prescribed bounds", _cmd_construct, ("m0", "M0"))
    sub.add_argument("--m0", help="target lower ratio bound, m0 > 0")
    sub.add_argument("--M0", help="target upper ratio bound, 0 < M0 < 1")
    sub.add_argument("--mu", help="pin the perturbation size mu > 0 instead of the closed form")

    sub = command("lorenz", "Lorenz curve points (CSV)", _cmd_lorenz, ("spectra",))
    sub.add_argument("spectra", nargs="*", type=_csv_list, help="spectra, e.g. 0.4,0.4,0.1,0.1")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command call: the command named first is parsed by its own
    parser alone, in one argparse pass; any other argv (none, -h, an unknown
    command) goes to the top-level parser, which prints help or raises."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        if not argv or argv[0] not in parser.commands:
            parser.parse_args(argv)
        sub, handler, required = parser.commands[argv[0]]
        result = handler(_request(sub.parse_args(argv[1:]), required))
        # With file descriptor 1 closed (`>&-`) Python sets sys.stdout to None.
        if sys.stdout is None:
            raise InputError("standard output is closed; nothing can be written")
        is_report = isinstance(result, dict)
        # A reader that went away must surface here, not at interpreter exit.
        print(_json_text(result) if is_report else "\n".join(result), flush=True)
    except (InputError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # Python's documented recipe for a reader that went away: point
        # stdout at devnull so that the flush at exit does not fail a second
        # time.  Any other error writing stdout (a full disk) is named.  The
        # descriptor opened is closed, so that main can be called again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if is_report and result.get("agree") is False:
        print(
            "internal consistency failure: interval theorem and oracle disagree",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
