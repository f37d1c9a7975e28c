"""Schema guard for the emitted benchmark records.

CI runs the reduced-configuration benchmarks and then this checker; a key
that disappears, changes type, or goes non-finite fails the job, so the
performance trajectory files stay machine-readable across PRs.

Usage:  python benchmarks/check_bench_schema.py [repo_root]
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Required keys and types of BENCH_engine.json.
ENGINE_SCHEMA = {
    "benchmark": str,
    "design": str,
    "rows": int,
    "banks": int,
    "weight_bits": int,
    "input_bits": int,
    "batch": int,
    "tiny": bool,
    "legacy_matvec_ms": float,
    "engine_matvec_ms": float,
    "engine_matmat_ms_per_column": float,
    "engine_matmat_fast_ms_per_column": float,
    "speedup_matvec": float,
    "speedup_matmat": float,
    "speedup_matmat_fast": float,
    "characterise_cells": int,
    "characterise_cells_per_s": float,
    "chgfe_characterise_cells_per_s": float,
    "calibrate_samples": int,
    "calibrate_samples_per_s": float,
}

#: Required top-level keys and types of BENCH_chipsim.json.
CHIPSIM_SCHEMA = {
    "benchmark": str,
    "design": str,
    "input_bits": int,
    "weight_bits": int,
    "adc_bits": int,
    "calibration": str,
    "images": int,
    "tiny": bool,
    "scenarios": dict,
}

#: Required top-level keys and types of BENCH_sweep.json.
SWEEP_SCHEMA = {
    "benchmark": str,
    "tiny": bool,
    "spec": dict,
    "spec_digest": str,
    "workers": int,
    "jobs": int,
    "records": dict,
    "pareto": dict,
    "cache_totals": dict,
    "throughput": dict,
    "serial_equals_parallel": bool,
    "parallel": dict,
    "cache_probe": dict,
}

#: Required keys and types of every job record in BENCH_sweep.json.
SWEEP_JOB_SCHEMA = {
    "job_id": str,
    "scenario": str,
    "backend": str,
    "design": str,
    "input_bits": int,
    "weight_bits": int,
    "adc_bits": int,
    "calibration": str,
    "device_exec": str,
    "seed": int,
    "data_seed": int,
    "images": int,
    "tiles_executed": int,
    "calibrated_layers": int,
    "float_agreement": float,
    "predictions_sha256": str,
    "modeled": dict,
    "timing": dict,
    "cache": dict,
}

#: Modeled chip metrics of every sweep job.
SWEEP_MODELED_SCHEMA = {
    "tops_per_watt": float,
    "fps": float,
    "energy_per_image_j": float,
    "latency_per_image_s": float,
    "area_mm2": float,
    "total_macros": int,
    "layers": list,
}

#: Host timing of every sweep job.
SWEEP_TIMING_SCHEMA = {
    "setup_s": float,
    "run_s": float,
    "wall_s": float,
    "images_per_s": float,
    "tiles_per_s": float,
}

#: Aggregate throughput / cache-probe sections of BENCH_sweep.json.
SWEEP_THROUGHPUT_SCHEMA = {"total_s": float, "jobs_per_s": float}
SWEEP_CACHE_PROBE_SCHEMA = {
    "job_id": str,
    "cold_s": float,
    "warm_s": float,
    "speedup": float,
}

#: Required top-level keys and types of BENCH_serve.json.
SERVE_SCHEMA = {
    "benchmark": str,
    "tiny": bool,
    "scenario": str,
    "backend": str,
    "design": str,
    "device_exec": str,
    "input_bits": int,
    "weight_bits": int,
    "adc_bits": int,
    "replicas": int,
    "pool": str,
    "max_batch": int,
    "max_wait_s": float,
    "requests_per_point": int,
    "program_build_s": float,
    "chip_latency_s": float,
    "chip_energy_j": float,
    "points": list,
    "batching_probe": dict,
    "cold_start": dict,
    "first_request": dict,
    "observability": dict,
    "deterministic": bool,
    "predictions_sha256": str,
    "gate_failures": list,
}

#: Required keys and types of every offered-load point in BENCH_serve.json.
SERVE_POINT_SCHEMA = {
    "concurrency": int,
    "offered": int,
    "completed": int,
    "rejected": int,
    "throughput_rps": float,
    "latency_p50_s": float,
    "latency_p95_s": float,
    "latency_p99_s": float,
    "latency_mean_s": float,
    "queue_wait_mean_s": float,
    "batch_size_mean": float,
    "batch_occupancy_mean": float,
    "queue_depth_max": int,
    "batches": int,
}

#: Batching on-vs-off probe of BENCH_serve.json.
SERVE_PROBE_SCHEMA = {
    "concurrency": int,
    "requests": int,
    "batched_rps": float,
    "unbatched_rps": float,
    "speedup": float,
}

#: Cold-start (pickle-vs-shared-memory worker bring-up) probe of
#: BENCH_serve.json.
SERVE_COLD_SCHEMA = {
    "scenario": str,
    "device_exec": str,
    "fanout_workers": int,
    "program_build_s": float,
    "single_copy_bytes": int,
    "arena_bytes": int,
    "points": list,
    "worker_startup_speedup": float,
    "rss_ratio": float,
    "rss_efficiency": float,
}

#: One (transport, worker-count) bring-up measurement of the cold-start probe.
SERVE_COLD_POINT_SCHEMA = {
    "transport": str,
    "workers": int,
    "pool_start_s": float,
    "init_s_mean": float,
    "init_s_max": float,
    "private_bytes": int,
    "pss_bytes": int,
}

#: First-request-vs-steady-state latency probe of BENCH_serve.json.
SERVE_FIRST_SCHEMA = {
    "first_s": float,
    "steady_p50_s": float,
    "steady_p99_s": float,
    "ratio": float,
}

#: Observability (/metrics scrape + JSONL event log) probe of
#: BENCH_serve.json.
SERVE_OBSERVABILITY_SCHEMA = {
    "requests": int,
    "scrape_valid": bool,
    "metrics_families": int,
    "metrics_scrape_bytes": int,
    "events_logged": int,
    "event_kinds": int,
    "served_events": int,
    "trace_spans": int,
    "trace_span_kinds": int,
    "trace_connected": bool,
    "trace_path": str,
}


#: Required keys and types of every scenario record in BENCH_chipsim.json.
SCENARIO_SCHEMA = {
    "description": str,
    "images": int,
    "bit_identical_fused": bool,
    "tiled_fast_s": float,
    "tiled_fast_images_per_s": float,
    "tiled_fused_s": float,
    "tiled_fused_images_per_s": float,
    "tiles_per_s": float,
    "total_macros": int,
    "modeled_tops_per_watt": float,
    "modeled_fps": float,
    "calibrated_layers": int,
    "speedup_fused_vs_fast": float,
}


def check_record(record: dict, schema: dict, context: str) -> list:
    errors = []
    for key, expected_type in schema.items():
        if key not in record:
            errors.append(f"{context}: missing key {key!r}")
            continue
        value = record[key]
        if expected_type is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{context}: {key!r} is {type(value).__name__}, wanted number")
            elif not math.isfinite(float(value)):
                errors.append(f"{context}: {key!r} is not finite ({value})")
        elif not isinstance(value, expected_type) or (
            expected_type is int and isinstance(value, bool)
        ):
            errors.append(
                f"{context}: {key!r} is {type(value).__name__}, wanted {expected_type.__name__}"
            )
    return errors


def check_sweep_record(record: dict, filename: str) -> list:
    """Validate the nested sections of one BENCH_sweep.json payload."""
    errors = check_record(record, SWEEP_SCHEMA, filename)
    if isinstance(record.get("throughput"), dict):
        errors.extend(
            check_record(
                record["throughput"], SWEEP_THROUGHPUT_SCHEMA, f"{filename}:throughput"
            )
        )
    if isinstance(record.get("cache_probe"), dict):
        errors.extend(
            check_record(
                record["cache_probe"], SWEEP_CACHE_PROBE_SCHEMA, f"{filename}:cache_probe"
            )
        )
    jobs = record.get("records")
    if not isinstance(jobs, dict):
        return errors
    if not jobs:
        errors.append(f"{filename}: records is empty")
    for job_id, job in jobs.items():
        context = f"{filename}:{job_id}"
        if not isinstance(job, dict):
            errors.append(f"{context}: job record is not an object")
            continue
        schema = dict(SWEEP_JOB_SCHEMA)
        if job.get("backend") == "analytic":
            # Analytic jobs run no inference: quality fields are null.
            schema.pop("float_agreement")
            schema.pop("predictions_sha256")
        errors.extend(check_record(job, schema, context))
        # accuracy / float_baseline are honestly nullable (unlabelled
        # scenarios); when present they must be numbers.
        for key in ("accuracy", "float_baseline"):
            value = job.get(key, "absent")
            if value == "absent":
                errors.append(f"{context}: missing key {key!r}")
            elif value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                errors.append(f"{context}: {key!r} must be a number or null")
        if isinstance(job.get("modeled"), dict):
            errors.extend(
                check_record(job["modeled"], SWEEP_MODELED_SCHEMA, f"{context}:modeled")
            )
        if isinstance(job.get("timing"), dict):
            errors.extend(
                check_record(job["timing"], SWEEP_TIMING_SCHEMA, f"{context}:timing")
            )
    return errors


def check_serve_record(record: dict, filename: str) -> list:
    """Validate the nested sections of one BENCH_serve.json payload."""
    errors = check_record(record, SERVE_SCHEMA, filename)
    if isinstance(record.get("batching_probe"), dict):
        errors.extend(
            check_record(
                record["batching_probe"],
                SERVE_PROBE_SCHEMA,
                f"{filename}:batching_probe",
            )
        )
    if isinstance(record.get("cold_start"), dict):
        cold = record["cold_start"]
        errors.extend(check_record(cold, SERVE_COLD_SCHEMA, f"{filename}:cold_start"))
        cold_points = cold.get("points")
        if isinstance(cold_points, list):
            if not cold_points:
                errors.append(f"{filename}: cold_start points is empty")
            for index, point in enumerate(cold_points):
                context = f"{filename}:cold_start.points[{index}]"
                if not isinstance(point, dict):
                    errors.append(f"{context}: bring-up point is not an object")
                    continue
                errors.extend(check_record(point, SERVE_COLD_POINT_SCHEMA, context))
    if isinstance(record.get("first_request"), dict):
        errors.extend(
            check_record(
                record["first_request"],
                SERVE_FIRST_SCHEMA,
                f"{filename}:first_request",
            )
        )
    if isinstance(record.get("observability"), dict):
        errors.extend(
            check_record(
                record["observability"],
                SERVE_OBSERVABILITY_SCHEMA,
                f"{filename}:observability",
            )
        )
    points = record.get("points")
    if not isinstance(points, list):
        return errors
    if not points:
        errors.append(f"{filename}: points is empty")
    for index, point in enumerate(points):
        context = f"{filename}:points[{index}]"
        if not isinstance(point, dict):
            errors.append(f"{context}: load point is not an object")
            continue
        errors.extend(check_record(point, SERVE_POINT_SCHEMA, context))
    return errors


def main(root: Path) -> int:
    errors = []
    for filename, schema in (
        ("BENCH_engine.json", ENGINE_SCHEMA),
        ("BENCH_chipsim.json", CHIPSIM_SCHEMA),
        ("BENCH_sweep.json", SWEEP_SCHEMA),
        ("BENCH_serve.json", SERVE_SCHEMA),
    ):
        path = root / filename
        if not path.exists():
            errors.append(f"{filename}: file missing")
            continue
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            errors.append(f"{filename}: invalid JSON ({error})")
            continue
        if filename == "BENCH_sweep.json":
            errors.extend(check_sweep_record(record, filename))
            continue
        if filename == "BENCH_serve.json":
            errors.extend(check_serve_record(record, filename))
            continue
        errors.extend(check_record(record, schema, filename))
        if filename == "BENCH_chipsim.json" and isinstance(
            record.get("scenarios"), dict
        ):
            if not record["scenarios"]:
                errors.append(f"{filename}: scenarios is empty")
            for name, scenario in record["scenarios"].items():
                if not isinstance(scenario, dict):
                    errors.append(f"{filename}: scenario {name!r} is not an object")
                    continue
                errors.extend(
                    check_record(scenario, SCENARIO_SCHEMA, f"{filename}:{name}")
                )
    if errors:
        print("benchmark schema drift detected:")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("benchmark JSON schemas OK")
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main(root))
