"""The three benchmark workloads.

Each workload is one closed loop with a single client in one thread: the
next call starts only after the previous one returned.  Only the call into
the program is timed.  Building inputs, capturing output and checking it
happen outside the timed region, after each call, and every failed check is
counted.

Calls go through module attributes (``catalysis.analyze``, ``cli.main``) so
that a traced run, which rebinds those attributes, sees every call; the
tracer records spans only while its ``active`` flag is set, which the loops
set around the timed region alone.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

import inputs
from spans import Tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Samples:
    """Timed calls of one measurement phase, plus the outcome counts.

    ``rss_mb`` is the process's peak resident set size when the phase has
    completed ``rss_after`` calls, or at its end if it completes fewer, so
    the figure reflects a fixed amount of work, not the machine's speed.
    ``speed`` is the machine speed over the phase (see reference.py).
    """

    def __init__(self, rss_after: int = 0) -> None:
        self.rss_after = rss_after
        self.rss_mb = 0.0
        self.speed = 1.0
        self.durations = array("d")
        self.units = array("d")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.exit_codes: Counter = Counter()
        self.halvings: list[float] = []

    def add(self, duration: float, units: float) -> None:
        self.durations.append(duration)
        self.units.append(units)
        if len(self.durations) == self.rss_after:
            self.rss_mb = peak_rss_mb()

    def check(self, problem) -> None:
        """Count one attempted operation; ``problem`` is None when it passed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)


class _Captured:
    """Run ``cli.main(argv)`` with stdin, stdout and stderr redirected."""

    __slots__ = ("code", "stdout", "stderr", "duration")

    def __init__(self, cli, argv, stdin_text, tracer: Tracer, root: int) -> None:
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                tracer.root = root
                tracer.active = True
                start = perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is a failed request
                    code = f"raised {type(exc).__name__}: {exc}"
                self.duration = perf_counter() - start
                tracer.active = False
        finally:
            sys.stdin = saved
        self.code = code
        self.stdout = out.getvalue()
        self.stderr = err.getvalue()


class Agreement:
    """Interval rule against the oracle at the criterion-5 check points.

    One timed call is one pair: its uncached ``analyze`` plus every check.
    The latency of a single check is too short to time apart from the
    machine's state; a pair's is not (see reference.py).
    """

    name = "agreement"
    unit = "check"
    call = "pair (its analyze and all its checks)"
    rss_after = 1_000

    def __init__(self, seed: int, tracer: Tracer) -> None:
        from qcatalyst import catalysis, oracle, spectra

        self.catalysis, self.oracle, self.spectra = catalysis, oracle, spectra
        self.tracer = tracer
        self.pairs = inputs.agreement_pairs(seed)
        self.ops = 0

    def run(self, seconds: float, samples: Samples) -> None:
        catalysis, oracle, spectra = self.catalysis, self.oracle, self.spectra
        tracer = self.tracer
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            source_values, target_values = next(self.pairs)
            where = f"source={source_values} target={target_values}"
            source = spectra.make_spectrum(source_values)
            target = spectra.make_spectrum(target_values)
            tracer.root = self.ops
            tracer.active = True
            start = perf_counter()
            try:
                report = catalysis.analyze(source, target)
            except Exception as exc:  # counted as one failed check
                report = exc
            busy = perf_counter() - start
            tracer.active = False
            if isinstance(report, Exception):
                samples.add(busy, 1)
                self.ops += 1
                samples.check(f"analyze raised {type(report).__name__}: {report} {where}")
                continue
            grid = inputs.p_grid(report.p_interval)
            for p in grid:
                tracer.root = self.ops
                tracer.active = True
                start = perf_counter()
                try:
                    predicted = catalysis.is_valid_catalyst(source, target, p)
                    actual = oracle.oracle_valid_catalyst(
                        source, target, spectra.two_qubit_catalyst(p))
                except Exception as exc:  # a raising check is a failed check
                    predicted, actual = f"raised {type(exc).__name__}: {exc}", None
                busy += perf_counter() - start
                tracer.active = False
                self.ops += 1
                samples.check(None if predicted == actual else (
                    f"disagreement at p={p}: rule={predicted} oracle={actual} {where}"))
            samples.add(busy, len(grid))


# What a check raises on output that does not parse or lacks a field;
# json.JSONDecodeError is a ValueError.
_UNREADABLE = (KeyError, IndexError, TypeError, ValueError)


class Requests:
    """A stream of in-process CLI requests, flags and stdin documents."""

    name = "requests"
    unit = "request"
    call = "request"
    rss_after = 3_000

    def __init__(self, seed: int, tracer: Tracer) -> None:
        from qcatalyst import cli, constructor, oracle, spectra

        self.cli, self.constructor, self.oracle, self.spectra = cli, constructor, oracle, spectra
        self.tracer = tracer
        self.stream = inputs.request_stream(seed)
        self.ops = 0

    def run(self, seconds: float, samples: Samples) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            request = next(self.stream)
            call = _Captured(self.cli, request.argv, request.stdin, self.tracer, self.ops)
            self.ops += 1
            samples.add(call.duration, 1)
            samples.exit_codes[call.code] += 1
            try:
                problem = self._problem(request, call, samples)
            except _UNREADABLE as exc:
                problem = f"{request.kind} {request.argv}: unreadable output: {exc!r}"
            samples.check(problem)

    def _problem(self, request, call: _Captured, samples: Samples):
        where = f"{request.kind} {request.argv} stdin={request.stdin!r}"
        if request.kind == "malformed":
            return None if call.code == 1 else f"{where}: exit {call.code}, expected 1"
        if call.code != 0:
            return f"{where}: exit {call.code}: {call.stderr.strip()}"
        if request.kind == "lorenz":
            return self._lorenz_problem(call.stdout, where)
        document = json.loads(call.stdout)
        if request.kind == "analyze":
            return self._analyze_problem(request, document, where)
        if request.kind == "validate":
            return None if document["agree"] is True else f"{where}: rule and oracle disagree"
        if request.kind == "check-locc":
            if document["possible"] != (document["first_violated_index"] is None):
                return f"{where}: 'possible' contradicts 'first_violated_index'"
            return None
        return self._construct_problem(request, document, samples, where)

    def _analyze_problem(self, request, document: dict, where: str):
        if document["verdict"] != "catalyzable":
            return None
        source, target = (self.spectra.make_spectrum(v) for v in request.pair)
        for endpoint in document["p_interval"]:
            p = Fraction(endpoint["exact"])
            catalyst = self.spectra.two_qubit_catalyst(p)
            if not self.oracle.oracle_valid_catalyst(source, target, catalyst):
                return f"{where}: oracle rejects interval endpoint p={p}"
        return None

    def _construct_problem(self, request, document: dict, samples: Samples, where: str):
        branch = "m0_le_1" if request.m0 <= 1 else "m0_gt_1"
        if document["branch"] != branch:
            return f"{where}: branch {document['branch']}, expected {branch}"
        if Fraction(document["recomputed_m"]["exact"]) != request.m0:
            return f"{where}: recomputed m differs from m0"
        if Fraction(document["recomputed_M"]["exact"]) != request.M0:
            return f"{where}: recomputed M differs from M0"
        mu = Fraction(document["mu"]["exact"])
        bound = self.constructor.mu_admissible_bound(request.m0, request.M0)
        samples.halvings.append(math.log2(bound / 2 / mu))
        return None

    @staticmethod
    def _lorenz_problem(text: str, where: str):
        blocks = text.rstrip("\n").split("\n\n")
        if len(blocks) != 2:
            return f"{where}: {len(blocks)} Lorenz blocks, expected 2"
        for block in blocks:
            lines = block.split("\n")
            if lines[0] != "k_over_n,lambda,lambda_decimal" or len(lines) != 6:
                return f"{where}: malformed Lorenz block {lines[:2]}"
            if lines[-1].split(",")[:2] != ["1/1", "1/1"]:
                return f"{where}: Lorenz curve does not end at (1, 1)"
        return None


class Sweep:
    """In-process ``sweep`` calls at denominators in the thousands."""

    name = "sweep"
    unit = "grid point"
    call = "sweep call"
    rss_after = 15

    def __init__(self, seed: int, tracer: Tracer) -> None:
        from qcatalyst import catalysis, cli, oracle, spectra

        self.cli, self.oracle = cli, oracle
        self.tracer = tracer
        self.calls = inputs.sweep_calls(seed)
        # The reported p-interval the rows are checked against; analyzing
        # here also leaves the four pairs in the analyze cache.
        self.reports = {}
        for label, pair in inputs.sweep_pairs(seed):
            source, target = (spectra.make_spectrum(v) for v in pair)
            self.reports[label] = catalysis.analyze(source, target)
        self.ops = 0

    def run(self, seconds: float, samples: Samples) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            label, (source, target), d = next(self.calls)
            argv = ["sweep", "--source", ",".join(inputs.as_text(source)),
                    "--target", ",".join(inputs.as_text(target)), "--denominator", str(d)]
            call = _Captured(self.cli, argv, None, self.tracer, self.ops)
            self.ops += 1
            samples.exit_codes[call.code] += 1
            lines = call.stdout.splitlines()
            samples.add(call.duration, max(len(lines) - 1, 0))
            try:
                problem = self._problem(label, d, call, lines)
            except _UNREADABLE as exc:
                problem = f"unreadable output: {exc!r}"
            samples.check(None if problem is None else f"sweep {label} d={d}: {problem}")

    def _problem(self, label: str, d: int, call: _Captured, lines: list[str]):
        if call.code != 0:
            return f"exit {call.code}: {call.stderr.strip()}"
        if lines[0] != "p,p_decimal,valid":
            return "missing CSV header"
        rows = lines[1:]
        report = self.reports[label]
        grid = self.oracle.sweep_grid(d, report.p_interval)
        if len(rows) != len(grid):
            return f"{len(rows)} rows, expected {len(grid)}"
        for row, p in zip(rows, grid):
            exact, _, valid = row.split(",")
            if Fraction(exact) != p:
                return f"row p={exact}, expected {p}"
            if report.p_interval is None:
                inside = report.verdict.value == "locc_already_possible"
            else:
                inside = report.p_interval[0] <= p <= report.p_interval[1]
            if valid != ("1" if inside else "0"):
                return f"valid={valid} at p={p}, interval {report.p_interval}"
        return None


WORKLOADS = {cls.name: cls for cls in (Agreement, Requests, Sweep)}
