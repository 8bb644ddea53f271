"""Tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from spans import SPAN_NAMES, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("stream", [
    lambda seed: list(itertools.islice(inputs.agreement_pairs(seed), 200)),
    lambda seed: list(itertools.islice(inputs.request_stream(seed), 300)),
    lambda seed: list(itertools.islice(inputs.sweep_calls(seed), 40)),
])
def test_generator_is_deterministic_per_seed(stream):
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_generated_spectra_are_canonical_and_star_pairs_have_slack():
    pairs = list(itertools.islice(inputs.agreement_pairs(3), 200))
    rng = inputs.random.Random(3)
    pairs += [inputs.decimal_star_pair(rng) for _ in range(20)]
    for source, target in pairs:
        for values in (source, target):
            assert sum(values) == 1
            assert list(values) == sorted(values, reverse=True)
            assert min(values) >= 0
        assert target[0] >= source[0]
        assert source[0] + source[1] > target[0] + target[1]
        assert source[3] >= target[3]
    assert any(max(v.denominator for v in target) > 10**11 for _, target in pairs)


def test_decimal_text_is_exact():
    rng = inputs.random.Random(5)
    source, target = inputs.decimal_star_pair(rng)
    for values in (source, target):
        text = inputs.as_text(values, decimal=True)
        assert all(len(t.split(".")[1]) == inputs.DECIMAL_DIGITS for t in text)
        assert tuple(Fraction(t) for t in text) == values


def test_self_time_arithmetic_on_recorded_spans():
    tracer = Tracer()
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    tracer.names += ["root", "a", "b", "c"]
    tracer.starts.extend([0.0, 1.0, 2.0, 5.0])
    tracer.ends.extend([10.0, 4.0, 3.0, 9.0])
    tracer.parents.extend([-1, 0, 1, 0])
    tracer.roots.extend([0, 0, 0, 0])
    assert list(tracer.self_times()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_nested_wrapped_calls():
    from qcatalyst import oracle, spectra

    source = spectra.make_spectrum(["0.4", "0.4", "0.1", "0.1"])
    target = spectra.make_spectrum(["0.5", "0.25", "0.25", "0"])
    catalyst = spectra.two_qubit_catalyst(Fraction(3, 5))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root = 41
        tracer.active = True
        assert oracle.oracle_valid_catalyst(source, target, catalyst) is True
        tracer.active = False
        oracle.oracle_valid_catalyst(source, target, catalyst)  # inactive: no spans
    finally:
        tracer.uninstall()
    assert tracer.names == [
        "oracle.oracle_valid_catalyst",
        "oracle.augment",
        "oracle.augment",
        "majorization.is_majorized_by",
        "majorization.first_violated_index",
    ]
    assert list(tracer.parents) == [-1, 0, 0, 0, 3]
    assert set(tracer.roots) == {41}
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    own = tracer.self_times()
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2] - duration[3])
    assert own[3] == pytest.approx(duration[3] - duration[4])
    assert own[4] == pytest.approx(duration[4])
    assert all(value > 0 for value in own)
    assert sum(own) == pytest.approx(duration[0])
    totals = tracer.totals()
    assert set(totals) == set(SPAN_NAMES)
    assert totals["oracle.augment"][0] == 2
    assert totals["cli.main"] == (0, 0.0)


def test_install_rebinds_every_binding_keeps_cache_api_and_restores():
    import qcatalyst
    from qcatalyst import catalysis, cli

    original = catalysis.analyze
    tracer = Tracer()
    tracer.install()
    try:
        assert catalysis.analyze is not original
        assert cli.analyze is catalysis.analyze is qcatalyst.analyze
        assert catalysis.analyze.cache_info() == original.cache_info()
    finally:
        tracer.uninstall()
    assert catalysis.analyze is original and cli.analyze is original


def _run(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_tiny_with_no_failed_ops(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "agreement", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
