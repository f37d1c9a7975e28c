"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/check_smoke.py -q

Runs every workload shrunk to a tiny scenario and checks that each declared
metric is emitted with its unit (and each layer metric a workload exercises
is non-zero), that every output check passes, and that a deliberately
corrupted output counts as a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LayerTracer, unattributed_fraction  # noqa: E402
from run import declared_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seconds", "0.3",
         "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_and_checks_pass(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = declared_metrics()["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0, name
    if trace == "1":
        for name in WORKLOADS[workload].layers:
            assert result["metrics"][name]["value"] > 0, name
        assert 0 < result["metrics"]["bench.unattributed_frac"]["value"] < 1
        if workload == "serve_curfe":
            # One replica; the output check's own instantiate is not counted.
            assert result["metrics"]["serve.instantiate_calls"]["value"] == 1


def test_every_exercised_layer_is_declared():
    declared = declared_metrics()["per_layer"]
    for spec in WORKLOADS.values():
        assert set(spec.layers) <= set(declared)


@pytest.mark.parametrize("workload", ["warm_run_chgfe", "serve_curfe", "sweep_cache"])
def test_corrupted_output_counts_as_failed_operation(workload):
    result = result_of(bench("--workload", workload, "--tiny", "--corrupt"))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep_cache", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unattributed_fraction_merges_overlapping_spans():
    spans = [(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)]
    assert unattributed_fraction(spans, (0.0, 10.0)) == pytest.approx(0.3)


def test_layer_tracer_restores_every_patch():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.quant import calibration
    from repro.engine.macro_engine import MacroEngine

    before = (calibration.lloyd_max_levels, MacroEngine.__dict__["matmat"])
    tracer = LayerTracer().install()
    assert calibration.lloyd_max_levels is not before[0]
    tracer.uninstall()
    assert (calibration.lloyd_max_levels, MacroEngine.__dict__["matmat"]) == before
