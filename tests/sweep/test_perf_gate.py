"""The perf-gate checker: tolerance bands, band selection, failure modes."""

import importlib.util
import json
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "check_perf_floor.py"
)
_spec = importlib.util.spec_from_file_location("check_perf_floor", _MODULE_PATH)
check_perf_floor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf_floor)


BASELINES = [
    {
        "file": "BENCH_chipsim.json",
        "metric": "scenarios.deep_cnn.speedup_fused_vs_fast",
        "baseline": 5.0,
        "tolerance": 0.5,
    },
    {
        "file": "BENCH_sweep.json",
        "metric": "throughput.jobs_per_s",
        "baseline": 10.0,
        "tolerance": 0.2,
    },
]


def records(speedup=5.0, jobs_per_s=10.0):
    return {
        "BENCH_chipsim.json": {
            "tiny": False,
            "scenarios": {"deep_cnn": {"speedup_fused_vs_fast": speedup}},
        },
        "BENCH_sweep.json": {
            "tiny": False,
            "throughput": {"jobs_per_s": jobs_per_s},
        },
    }


class TestCheckFloors:
    def test_healthy_records_pass(self):
        assert check_perf_floor.check_floors(records(), BASELINES) == []

    def test_value_inside_tolerance_band_passes(self):
        assert check_perf_floor.check_floors(records(speedup=2.6), BASELINES) == []

    def test_regression_below_band_fails(self):
        errors = check_perf_floor.check_floors(records(speedup=2.4), BASELINES)
        assert len(errors) == 1
        assert "speedup_fused_vs_fast" in errors[0]
        assert "2.4" in errors[0]

    def test_multiple_regressions_all_reported(self):
        errors = check_perf_floor.check_floors(
            records(speedup=1.0, jobs_per_s=1.0), BASELINES
        )
        assert len(errors) == 2

    def test_missing_record_file_fails(self):
        partial = {"BENCH_chipsim.json": records()["BENCH_chipsim.json"]}
        errors = check_perf_floor.check_floors(partial, BASELINES)
        assert any("record file missing" in e for e in errors)

    def test_missing_metric_fails(self):
        broken = records()
        del broken["BENCH_sweep.json"]["throughput"]["jobs_per_s"]
        errors = check_perf_floor.check_floors(broken, BASELINES)
        assert any("missing or non-numeric" in e for e in errors)

    def test_non_numeric_metric_fails(self):
        broken = records()
        broken["BENCH_sweep.json"]["throughput"]["jobs_per_s"] = "fast"
        errors = check_perf_floor.check_floors(broken, BASELINES)
        assert any("non-numeric" in e for e in errors)


class TestBandSelection:
    def test_full_band(self):
        assert check_perf_floor.select_band(records()) == "full"

    def test_tiny_band(self):
        tiny = records()
        for record in tiny.values():
            record["tiny"] = True
        assert check_perf_floor.select_band(tiny) == "tiny"

    def test_mixed_bands_refuse(self):
        mixed = records()
        mixed["BENCH_sweep.json"]["tiny"] = True
        with pytest.raises(SystemExit, match="mixed"):
            check_perf_floor.select_band(mixed)


class TestMainEndToEnd:
    @staticmethod
    def _write_records(root, value_for_entry):
        """Synthesize every gated record file from the committed baselines."""
        baselines = json.loads(check_perf_floor.BASELINE_PATH.read_text())
        synthesized = {}
        for entry in baselines["full"]:
            record = synthesized.setdefault(entry["file"], {"tiny": False})
            node = record
            parts = entry["metric"].split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value_for_entry(entry)
        for filename, record in synthesized.items():
            (root / filename).write_text(json.dumps(record))

    def test_main_passes_on_baseline_records(self, tmp_path):
        # records exactly at their baselines sit inside every band
        self._write_records(tmp_path, lambda entry: entry["baseline"])
        assert check_perf_floor.main(tmp_path) == 0

    def test_main_fails_on_regressed_records(self, tmp_path, capsys):
        # records far below every floor must all be reported
        self._write_records(tmp_path, lambda entry: entry["baseline"] * 1e-4)
        assert check_perf_floor.main(tmp_path) == 1
        assert "performance regression" in capsys.readouterr().out

    def test_main_fails_when_no_records_exist(self, tmp_path, capsys):
        assert check_perf_floor.main(tmp_path) == 1
        assert "none of" in capsys.readouterr().out
