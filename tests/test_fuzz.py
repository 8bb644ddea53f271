"""Fuzzed requests to every CLI command, as flags and as stdin documents.

Every request must end in exit 0 or 1 with no traceback, and within a time
bound, including numbers, exponents and JSON integers at the 4,300-digit
input limit, long digit runs inside malformed text, long catalysts, and
arrays and objects in a value's place, nested up to 900 deep.  Each runs at
the interpreter's int_max_str_digits setting and at its lowest, 640.
"""
import contextlib
import io
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import qcatalyst.cli as cli

# Generous against the milliseconds a request takes: a hang or a quadratic
# parse shows as seconds.
BOUND_S = 2


class Bare(str):
    """A number or constant written bare in a request document, not quoted."""


def literal(value) -> str:
    """JSON text of a fuzzed value: lists, dicts, quoted strings and Bare
    literals."""
    if isinstance(value, Bare):
        return value
    if isinstance(value, list):
        return "[" + ", ".join(map(literal, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{literal(k)}: {literal(v)}" for k, v in value.items()) + "}"
    return '"' + value + '"'


_limits = st.sampled_from([4299, 4300, 4301])
_rationals = st.one_of(
    st.sampled_from(["0.4", "0.1", "1/2", "0", "1", "0.25", "-1/2", "1/0", "1.", "abc", ""]),
    st.builds(
        lambda n, form: form.format("1" * n), _limits,
        st.sampled_from(["{}", "0.{}", "1/{}", "{}/1", "1_{}"]),
    ),
    st.builds(
        "1e{}{}".format, st.sampled_from(["", "-", "+"]),
        st.sampled_from(["4300", "4301", "0" * 4297 + "1234", "0" * 4296 + "4300"]),
    ),
    # Long digit runs inside malformed text.
    st.builds(lambda k, sep: ("1" * 4300 + sep) * k, st.integers(1, 3), st.sampled_from("x_/.")),
)
_scalars = st.one_of(
    _rationals,
    st.builds(lambda sign, n: Bare(sign + "1" * n), st.sampled_from(["", "-"]), _limits),
    st.sampled_from([Bare("0"), Bare("1"), Bare("0.5"), Bare("1e-4300"), Bare("null")]),
)
# Arrays and objects in a value's place: nested, holding long ints, and one
# array 900 deep (the JSON reader refuses about 995).
_containers = st.recursive(
    st.one_of(
        st.lists(_scalars, max_size=3),
        st.dictionaries(st.sampled_from(["a", "1"]), _scalars, max_size=2),
        st.sampled_from([Bare("[" * 900 + "]" * 900), Bare("[" + "7" * 700 + "]")]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.just("k"), inner, max_size=1),
    ),
    max_leaves=4,
)
_values = st.one_of(_scalars, _containers)
_spectra = st.one_of(
    st.sampled_from([
        ["0.4", "0.4", "0.1", "0.1"],
        ["0.5", "0.25", "0.25", "0"],
        ["0.45", "0.45", "0.05", "0.05"],
        # At the digit limit, summing to 1.
        ["0.4" + "0" * 4298 + "1", "0.3" + "9" * 4299, "0.1", "0.1"],
    ]),
    st.lists(_values, min_size=3, max_size=5),
)
_catalysts = st.one_of(
    st.integers(1, 1100).map(lambda n: [f"1/{n}"] * n),
    # Two components at the digit limit.
    st.just([f"{5 * 10**4298 + 1}/{10**4299}", f"{5 * 10**4298 - 1}/{10**4299}"]),
    # Many distinct denominators: over the catalyst cap.
    st.integers(100, 3000).map(lambda n: [f"1/{q}" for q in range(10_000, 10_000 + n)]),
    st.lists(_values, max_size=4),
)
_denominators = st.one_of(
    st.sampled_from([Bare("40"), Bare("0"), Bare("100001"), Bare("true"), "40"]),
    st.builds(lambda sign, n: Bare(sign + "9" * n), st.sampled_from(["", "-"]), _limits),
    _containers,
)
_pair = {"source": _spectra, "target": _spectra}
_documents = st.one_of(
    st.tuples(st.sampled_from(["check-locc", "analyze"]), st.fixed_dictionaries(_pair)),
    st.tuples(st.just("validate"), st.fixed_dictionaries(
        _pair, optional={"catalyst": _catalysts, "p": _values},
    )),
    st.tuples(st.just("sweep"), st.fixed_dictionaries(
        _pair, optional={"grid_denominator": _denominators},
    )),
    st.tuples(st.just("construct"), st.fixed_dictionaries(
        {"m0": _values, "M0": _values}, optional={"mu": _values},
    )),
    st.tuples(st.just("lorenz"), st.fixed_dictionaries(
        {"spectra": st.lists(_spectra, max_size=3)},
    )),
)
_FLAGS = {"grid_denominator": "--denominator"}


def argv_of(command: str, document: dict) -> list[str]:
    """The request as flags: arrays joined by commas, lorenz's spectra as
    its positional arguments."""
    def text(value):
        if isinstance(value, list):
            return ",".join(v if isinstance(v, str) else literal(v) for v in value)
        return value if isinstance(value, str) else literal(value)

    if command == "lorenz":
        return [command, *map(text, document["spectra"])]
    argv = [command]
    for key, value in document.items():
        argv += [_FLAGS.get(key, "--" + key), text(value)]
    return argv


def main_at(limit, argv, stdin):
    """cli.main(argv) with stdin, at int_max_str_digits ``limit`` (None: the
    interpreter's setting): (exit code, stderr text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved, saved_limit = sys.stdin, sys.get_int_max_str_digits()
    sys.stdin = io.StringIO(stdin)
    try:
        if limit:
            sys.set_int_max_str_digits(limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            return code, err.getvalue(), time.perf_counter() - start
    finally:
        sys.stdin = saved
        sys.set_int_max_str_digits(saved_limit)


@settings(max_examples=150, deadline=None)
@given(_documents, st.booleans())
def test_every_request_ends_in_exit_0_or_1(request, as_flags):
    command, document = request
    if as_flags:
        argv, stdin = argv_of(command, document), ""
    else:
        argv = [command]
        stdin = "{" + ", ".join(f'"{k}": {literal(v)}' for k, v in document.items()) + "}"
    for limit in (None, 640):
        code, err, elapsed = main_at(limit, argv, stdin)
        assert code in (0, 1), err
        assert "Traceback" not in err
        # CPython's own int_max_str_digits message never stands for the reason.
        assert "Exceeds the limit" not in err
        assert elapsed < BOUND_S
