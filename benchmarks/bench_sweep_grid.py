"""Design-space sweep grid: parallel sharded jobs with cached calibration.

Drives :class:`repro.sweep.SweepRunner` over a 16-job scenario × design ×
ADC × calibration grid on the device-detailed tiled path, three ways:

1. **serial, cold cache** — every job pays its own programming /
   calibration setup (the misses populate the content-addressed cache);
2. **parallel (2 workers), warm cache** — the same grid again; the records
   must be *bit-identical* to the serial run (the runner's core contract);
3. **single-job cache probe** — the first job twice more, each timed by
   the same pair of clock reads around ``run_job`` in this process: once
   into a fresh empty cache (cold) and once into the populated cache
   (warm); their ratio is the job-level speedup the cache delivers.

The merged record — per-job accuracy/fidelity, modeled TOPS/W and
energy/latency, host throughput, Pareto fronts, cache counters, and the
measured cache speedup — is written to ``BENCH_sweep.json`` at the
repository root, which ``check_bench_schema.py`` validates and
``check_perf_floor.py`` gates in CI.

Set ``REPRO_BENCH_TINY=1`` for a seconds-scale smoke run: smaller
scenarios, fewer images, variation disabled (so the programming cache is
bypassed and only calibration caching is exercised), no speedup assertions.
"""

import json
import tempfile
import time
from pathlib import Path

from conftest import BENCH_TINY as TINY, emit, tiny
from repro.devices.variation import DEFAULT_VARIATION, NO_VARIATION
from repro.sweep import SweepRunner, SweepSpec, run_job

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

PARALLEL_WORKERS = 2

SPEC = SweepSpec(
    scenarios=tiny(("small_cnn", "wide_mlp"), ("tiny_mlp", "small_cnn")),
    backends=("device",),
    designs=("curfe", "chgfe"),
    precisions=((4, 8),),
    adc_bits=(4, 5),
    calibrations=("workload", "nominal"),
    device_execs=("fused",),
    images=tiny(8, 2),
    batch_size=tiny(8, 2),
    variation=tiny(DEFAULT_VARIATION, NO_VARIATION),
    seed=0,
)


def timed_job(job, cache_dir):
    """Wall time of one ``run_job`` call, read around the call."""
    start = time.perf_counter()
    run_job(job.to_dict(), cache_dir)
    return time.perf_counter() - start


def run_measurements():
    with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
        serial = SweepRunner(SPEC, workers=1, cache_dir=cache_dir).run()
        parallel = SweepRunner(
            SPEC, workers=PARALLEL_WORKERS, cache_dir=cache_dir
        ).run()

        # Single-job probe, both sides timed alike: the first job into a
        # fresh empty cache, then into the populated one.
        probe_job = SPEC.expand()[0]
        with tempfile.TemporaryDirectory(prefix="sweep-cold-") as cold_dir:
            cold_s = timed_job(probe_job, cold_dir)
        warm_s = timed_job(probe_job, cache_dir)

    record = serial.to_record()
    record.update(
        {
            "benchmark": "sweep_grid",
            "tiny": TINY,
            "serial_equals_parallel": bool(
                serial.deterministic_records() == parallel.deterministic_records()
            ),
            "parallel": {
                "workers": PARALLEL_WORKERS,
                "total_s": float(parallel.wall_seconds),
                "jobs_per_s": float(len(parallel.records) / parallel.wall_seconds)
                if parallel.wall_seconds > 0
                else 0.0,
                "cache_totals": parallel.cache_totals(),
            },
            "cache_probe": {
                "job_id": probe_job.job_id,
                "cold_s": float(cold_s),
                "warm_s": float(warm_s),
                "speedup": float(cold_s / warm_s) if warm_s > 0 else 0.0,
            },
        }
    )
    return record


def test_sweep_grid(benchmark):
    record = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")

    lines = [
        f"{record['jobs']} jobs | serial {record['throughput']['total_s']:.1f} s "
        f"({record['throughput']['jobs_per_s']:.2f} jobs/s) | "
        f"parallel x{record['parallel']['workers']} "
        f"{record['parallel']['total_s']:.1f} s | "
        f"bit-identical: {record['serial_equals_parallel']}",
        f"cache: serial {record['cache_totals']} -> "
        f"parallel {record['parallel']['cache_totals']}",
        f"cache probe ({record['cache_probe']['job_id']}): "
        f"{record['cache_probe']['cold_s']:.3f} s cold -> "
        f"{record['cache_probe']['warm_s']:.3f} s warm "
        f"({record['cache_probe']['speedup']:.2f}x)",
    ]
    for job_id, rec in record["records"].items():
        quality = rec["accuracy"] if rec["accuracy"] is not None else rec["float_agreement"]
        lines.append(
            f"  {job_id:<55s} quality {quality:.3f}  "
            f"{rec['modeled']['tops_per_watt']:6.2f} TOPS/W  "
            f"{rec['timing']['images_per_s']:7.2f} img/s  "
            f"cal layers {rec['calibrated_layers']}"
        )
    lines.append(f"pareto (quality vs TOPS/W): {record['pareto']['accuracy_efficiency']}")
    lines.append(f"record: {RECORD_PATH}")
    emit("Design-space sweep grid — parallel runner with cached calibration", "\n".join(lines))

    # Acceptance: a >=16-job grid whose parallel execution is bit-identical
    # to serial, with the calibration cache visible at the job level.
    assert record["jobs"] >= 16, record["jobs"]
    assert record["serial_equals_parallel"]
    assert record["parallel"]["cache_totals"]["hits"] > 0
    for rec in record["records"].values():
        if rec["calibration"] == "workload":
            assert rec["calibrated_layers"] > 0, rec["job_id"]
        else:
            assert rec["calibrated_layers"] == 0, rec["job_id"]
    if not TINY:
        # The warm cache must deliver a measured job-level speedup.
        assert record["cache_probe"]["speedup"] > 1.1, record["cache_probe"]
