"""The ``python -m repro`` CLI: bit-identity with Python-constructed runs.

The acceptance bar for the config layer is that going through YAML + the
CLI changes *nothing*: predictions are ``array_equal`` and sweep records
hash identically to the equivalent Python-constructed objects.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chipsim.scenarios import get_scenario
from repro.chipsim.simulator import ChipSimulator
from repro.cli.main import cmd_run, cmd_serve, cmd_sweep, cmd_validate, main
from repro.config import loads_config
from repro.config.documents import parse_document
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.system.inference import InferenceConfig

REPO = Path(__file__).resolve().parents[2]

RUN_YAML = """\
kind: run
scenario: tiny_mlp
inference:
  backend: device
  design: curfe
  device_exec: fused
  adc_bits: 5
  seed: 11
workload:
  images: 12
  data_seed: 7
  batch_size: 8
"""

SWEEP_YAML = """\
kind: sweep
spec:
  scenarios: [tiny_mlp]
  backends: [functional]
  designs: [curfe, chgfe]
  adc_bits: [5]
  images: 8
  seed: 0
workers: 1
"""


def load_document(text, overrides=()):
    return parse_document(loads_config(text, overrides=overrides))


class TestRunBitIdentity:
    def test_cli_run_matches_python_constructed_simulator(self):
        payload = cmd_run(load_document(RUN_YAML))

        config = InferenceConfig(
            backend="device", design="curfe", device_exec="fused",
            adc_bits=5, seed=11,
        )
        scenario = get_scenario("tiny_mlp")
        model = scenario.build(seed=config.seed)
        workload = scenario.workload(images=12, seed=7)
        report = ChipSimulator(model, config=config, name=scenario.name).run(
            workload.images, workload.labels, batch_size=8
        )

        assert np.array_equal(payload["predictions"], report.predictions)
        # tiny_mlp carries no labels, so accuracy is None on both paths.
        assert payload["accuracy"] == report.accuracy
        assert payload["tiles_executed"] == report.tiles_executed

    def test_run_digest_is_reproducible(self):
        first = cmd_run(load_document(RUN_YAML))
        second = cmd_run(load_document(RUN_YAML))
        assert first["predictions_sha256"] == second["predictions_sha256"]

    def test_set_override_changes_the_run(self):
        base = cmd_run(load_document(RUN_YAML))
        varied = cmd_run(
            load_document(RUN_YAML, overrides=["workload.images=6"])
        )
        assert varied["images"] == 6
        assert base["images"] == 12


class TestSweepBitIdentity:
    def test_cli_sweep_record_matches_python_constructed_runner(self):
        payload = cmd_sweep(load_document(SWEEP_YAML))

        spec = SweepSpec(
            scenarios=("tiny_mlp",), backends=("functional",),
            designs=("curfe", "chgfe"), adc_bits=(5,), images=8, seed=0,
        )
        expected = SweepRunner(spec, workers=1).run().to_record()

        record = payload["record"]
        assert record["spec_digest"] == expected["spec_digest"]
        # Per-job wall times differ between runs; everything else must not.
        def strip_timing(records):
            return {
                job_id: {
                    k: v for k, v in entry.items()
                    if k not in ("wall_s", "timing")
                }
                for job_id, entry in records.items()
            }

        cli_records = strip_timing(record["records"])
        py_records = strip_timing(expected["records"])
        assert cli_records == py_records
        # Same record hashes: the canonical JSON digests are identical.
        assert json.dumps(cli_records, sort_keys=True) == json.dumps(
            py_records, sort_keys=True
        )
        assert record["pareto"] == expected["pareto"]


class TestServeCommand:
    def test_cli_serve_reports_metrics_and_events(self, tmp_path):
        event_log = tmp_path / "events.jsonl"
        text = (
            "kind: serve\n"
            "serve:\n"
            "  scenario: tiny_mlp\n"
            "  backend: functional\n"
            "  calibration_images: 8\n"
            "  replicas: 1\n"
            "  max_batch: 4\n"
            "  metrics_port: 0\n"
            f"  event_log: {event_log}\n"
            "workload: {requests: 8, concurrency: 2, seed: 3}\n"
        )
        payload = cmd_serve(load_document(text))
        assert payload["completed"] == 8
        from repro.serve import parse_exposition

        families = parse_exposition(payload["metrics_exposition"])
        samples = families["repro_serve_requests_completed_total"]["samples"]
        assert samples["repro_serve_requests_completed_total"] == 8.0
        assert payload["events_tail"]
        assert payload["events_tail"][-1]["event"] == "runtime_stop"


class TestTraceCommand:
    def test_prints_rollup_and_path_not_payload(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "trace", str(REPO / "examples" / "configs" / "run.yaml"),
            "--set", "workload.images=2", "--trace-path", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "span", "count", "total", "exclusive", "mean"
        ]
        assert "characterise" in out
        assert f"trace written to {trace_path}" in out
        assert '"predictions"' not in out
        assert trace_path.exists()


class TestValidate:
    def test_shipped_examples_validate(self):
        configs = sorted((REPO / "examples" / "configs").glob("*.yaml"))
        assert configs
        report = cmd_validate([str(path) for path in configs])
        assert report["ok"], report

    def test_bad_file_fails_with_error_detail(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: run\nscenario: tiny_mlp\nscneario: x\n")
        report = cmd_validate([str(bad)])
        assert report["ok"] is False
        assert "scenario" in report["files"][0]["error"]

    def test_main_exit_codes(self, tmp_path):
        good = tmp_path / "good.yaml"
        good.write_text("kind: run\nscenario: tiny_mlp\n")
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: run\nscenario: nope\n")
        assert main(["validate", str(good)]) == 0
        assert main(["validate", str(good), str(bad)]) == 1

    def test_wrong_kind_for_command_is_a_config_error(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.yaml"
        sweep.write_text(SWEEP_YAML)
        assert main(["run", str(sweep)]) == 2
        assert "kind: run" in capsys.readouterr().err


class TestSubprocessSmoke:
    """One real ``python -m repro`` invocation end to end."""

    def run_cli(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
        )

    def test_module_run_emits_json(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(RUN_YAML)
        out = tmp_path / "result.json"
        proc = self.run_cli(
            "run", str(config), "--set", "workload.images=4",
            "--output", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["kind"] == "run"
        assert payload["images"] == 4
        assert len(payload["predictions"]) == 4

    def test_module_validate_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: run\nscenario: nope\n")
        proc = self.run_cli("validate", str(bad))
        assert proc.returncode == 1
