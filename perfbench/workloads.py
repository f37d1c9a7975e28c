"""One benchmark workload, run in a fresh interpreter.

``run.py`` starts this file once per sample so that no in-process memo
(characterisation tables, reference models) carries over between samples
and set-up stays cold.  The last line of standard output is one JSON object
with the sample's timings, operation counts and check results.

A sample is either a ``probe`` (set-up plus the first operation, used for
the median of ``setup_s`` and ``first_run_s``) or a ``main`` sample, which
continues with the workload's steady phase and its output checks.  The
sweep's first operation is its whole cold pass, so its probes stop after
set-up and only the main sample times that pass.

    python3 perfbench/workloads.py --workload serve_curfe --seed 1 --seconds 10 --mode main
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before numpy and the package are imported

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from concurrent.futures import wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Spans of traced samples and the sweep's temporary cache directories.
OUT_DIR = ROOT / ".perfbench_out"

#: Thread-count variables read by the BLAS libraries numpy may load; they
#: only take effect when set before numpy is imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The paper's design point, shared by every workload.
DESIGN_POINT = dict(input_bits=4, weight_bits=8, adc_bits=5, calibration="workload", seed=0)

#: Data seed of the batch that calibrates the ADC references.  Like the
#: programming seed it is part of the chip, not of the workload: the same
#: chip then meets every ``--seed``'s inputs, so quality metrics compare
#: across seeds.
CALIBRATION_SEED = 0

#: Seed of the open-loop arrival schedule.  One fixed schedule keeps the
#: tail latency comparable across ``--seed`` values, which pick the images.
SCHEDULE_SEED = 0

#: Largest micro-batch the serving runtime forms.
MAX_BATCH = 16

#: Per-layer metrics of the chip stack, which every workload drives.
CHIP_LAYERS = (
    "cells.characterise_s",
    "cells.characterise_calls",
    "engine.array_state_build_s",
    "engine.calibrate_s",
    "quant.lloyd_max_s",
    "engine.matmat_s",
    "engine.matmat_calls",
    "chipsim.layer_matmat_s",
    "chipsim.tile_matmats",
    "chipsim.evaluate_s",
    "system.predict_s",
    "system.digital_s",
)

SERVE_LAYERS = (
    "engine.precompile_s",
    "serve.program_build_s",
    "serve.instantiate_s",
    "serve.instantiate_calls",
    "serve.open_loop_p50_ms",
    "serve.open_loop_p90_ms",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p99",
    "serve.service_ms_p50",
    "serve.batch_size_mean",
    "serve.replica_busy_frac",
    "loadgen.lag_p99_ms",
)

SWEEP_LAYERS = (
    "sweep.job_setup_s",
    "sweep.job_run_s",
    "sweep.cache_hits",
    "sweep.cache_misses",
    "sweep.cache_get_s",
    "sweep.cache_put_s",
    "sweep.cache_bytes",
)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload (``tiny`` shrinks them for the smoke test)."""

    kind: str  # "offline" | "serve" | "sweep"
    scenario: str
    #: Per-layer metrics the traced run must report (non-zero) for this
    #: workload; the other declared ones read 0.
    layers: Tuple[str, ...]
    design: str = "curfe"
    device_exec: str = "fused"
    images: int = 64  # per offline batch / per sweep job
    min_ops: int = 1  # warm runs, or warm sweep passes
    # serve only.  50 req/s keeps the replica under half busy even when the
    # host runs slow, so open-loop latency tracks service time rather than
    # a backlog that grows superlinearly with host speed.
    rate_rps: float = 50.0
    open_requests: int = 300
    burst: int = 256  # requests submitted at once, one per distinct image
    calibration_images: int = 32


WORKLOADS: Dict[str, Workload] = {
    "cold_run_curfe": Workload(
        "offline", "deep_cnn", CHIP_LAYERS, "curfe", "fused", min_ops=5
    ),
    "warm_run_chgfe": Workload(
        "offline", "wide_mlp", CHIP_LAYERS, "chgfe", "fast", min_ops=8
    ),
    "serve_curfe": Workload(
        "serve", "small_cnn", CHIP_LAYERS + SERVE_LAYERS, "curfe", "fused", min_ops=5
    ),
    "sweep_cache": Workload(
        "sweep", "small_cnn", CHIP_LAYERS + SWEEP_LAYERS, images=32, min_ops=6
    ),
}

TINY = dict(
    scenario="tiny_mlp", images=8, min_ops=2, open_requests=40, rate_rps=200.0,
    burst=16, calibration_images=8,
)


class Ops:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def batch_seed(seed: int, index: int) -> int:
    """Data seed of input batch ``index >= 1`` under benchmark seed ``seed``."""
    return seed * 1000 + index


def percentile_ms(values_s, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values_s, dtype=float), q) * 1e3)


def valid_predictions(predictions, count: int, classes: int) -> bool:
    import numpy as np

    predictions = np.asarray(predictions)
    return (
        predictions.shape == (count,)
        and np.issubdtype(predictions.dtype, np.integer)
        and bool(np.all((predictions >= 0) & (predictions < classes)))
    )


# ------------------------------------------------------------------ offline


def run_offline(spec: Workload, args, ops: Ops, out: Dict[str, Any]) -> float:
    """Build the chip, make the first run, then warm runs on fresh batches."""
    import numpy as np

    from repro.chipsim.scenarios import get_scenario
    from repro.chipsim.simulator import ChipSimulator

    scenario = get_scenario(spec.scenario)
    model = scenario.build(seed=DESIGN_POINT["seed"])
    simulator = ChipSimulator(
        model, design=spec.design, device_exec=spec.device_exec, **DESIGN_POINT
    )
    out["setup_s"] = time.perf_counter() - T0
    classes = model.num_classes

    def batch(seed: int) -> np.ndarray:
        return scenario.workload(images=spec.images, seed=seed).images

    first_images = batch(CALIBRATION_SEED)
    start = time.perf_counter()
    first = simulator.run(first_images, batch_size=spec.images)
    out["first_run_s"] = time.perf_counter() - start
    first_predictions = first.predictions.copy()
    if args.corrupt:
        first_predictions[0] = (first_predictions[0] + 1) % classes
    ops.record(
        valid_predictions(first_predictions, spec.images, classes)
        and first.tiles_executed > 0,
        "first run returned invalid predictions",
    )
    if args.mode == "probe":
        return time.perf_counter()

    warm_s: List[float] = []
    evaluated = [(first_images, first_predictions)]
    steady_start = time.perf_counter()
    index = 1
    while _more(args, spec, len(warm_s), steady_start):
        images = batch(batch_seed(args.seed, index))
        start = time.perf_counter()
        report = simulator.run(images, batch_size=spec.images)
        warm_s.append(time.perf_counter() - start)
        ops.record(
            valid_predictions(report.predictions, spec.images, classes),
            f"warm run {index} returned invalid predictions",
        )
        # A fixed set of batches, however many runs fit in the window.
        if len(evaluated) <= spec.min_ops:
            evaluated.append((images, report.predictions))
        index += 1
    end = time.perf_counter()

    # Checks, outside the measured window.
    rerun = simulator.run(first_images, batch_size=spec.images).predictions
    ops.record(
        np.array_equal(rerun, first_predictions),
        "re-running the first batch on the warm chip changed its predictions",
    )
    agree = [
        np.mean(predictions == np.argmax(model.forward(images), axis=-1))
        for images, predictions in evaluated
    ]
    out.update(
        warm_ops=len(warm_s),
        images_per_s=spec.images / float(np.median(warm_s)),
        latency_p50_ms=percentile_ms(warm_s, 50),
        latency_p90_ms=percentile_ms(warm_s, 90),
        float_agreement=float(np.mean(agree)),
        modeled_tops_per_w=float(first.performance.tops_per_watt),
    )
    return end


def _more(args, spec: Workload, done: int, start: float) -> bool:
    """Whether the steady phase runs another operation."""
    if args.ops is not None:
        return done < args.ops
    return done < spec.min_ops or time.perf_counter() - start < args.seconds


# -------------------------------------------------------------------- serve


def run_serve(spec: Workload, args, ops: Ops, out: Dict[str, Any]) -> float:
    """Program and start a runtime, then an open loop and repeated bursts.

    The bursts (every request due at once, so the micro-batcher forms full
    batches) give the throughput and latency figures; the Poisson open loop
    gives the queueing figures, which on a shared host with few CPUs swing
    with the neighbours' load and are therefore reported but not gated.
    """
    import numpy as np

    from repro.chipsim.scenarios import get_scenario
    from repro.serve.config import ServeConfig
    from repro.serve.program import ChipProgram
    from repro.serve.runtime import ServeRuntime

    config = ServeConfig(
        scenario=spec.scenario,
        design=spec.design,
        device_exec=spec.device_exec,
        data_seed=CALIBRATION_SEED,
        calibration_images=spec.calibration_images,
        replicas=1,
        pool="thread",
        max_batch=MAX_BATCH,
        max_wait_s=0.0,
        queue_depth=256,
        backpressure="block",
        **DESIGN_POINT,
    )
    program = ChipProgram.build(config)
    runtime = ServeRuntime(config, program=program).start()
    out["setup_s"] = time.perf_counter() - T0
    burst = np.zeros(spec.burst)
    try:
        pool = get_scenario(spec.scenario).workload(
            images=spec.burst, seed=batch_seed(args.seed, 1)
        ).images
        (start, stop), _, _, served = send(runtime, pool, burst)
        out["first_run_s"] = stop - start
        if args.mode == "probe":
            return _check_served(program, pool, served, args, ops, out, time.perf_counter())

        before = runtime.snapshot()
        gaps = np.random.default_rng(SCHEDULE_SEED).exponential(
            1.0 / spec.rate_rps, size=spec.open_requests
        )
        window, lateness, open_latency, opened = send(runtime, pool, np.cumsum(gaps))
        after = runtime.snapshot()
        served.extend(opened)

        burst_s: List[float] = []
        latency: List[float] = []
        steady_start = time.perf_counter()
        while _more(args, spec, len(burst_s), steady_start):
            (start, stop), _, burst_latency, futures = send(runtime, pool, burst)
            burst_s.append(stop - start)
            latency.extend(burst_latency)
            served.extend(futures)
        end = time.perf_counter()
    finally:
        runtime.stop()

    responses = [future.result() for _, future in opened]
    out["named"] = {
        "open_loop_p50_ms": [percentile_ms(open_latency, 50), "ms"],
        "open_loop_p90_ms": [percentile_ms(open_latency, 90), "ms"],
    }
    out.update(
        warm_ops=len(burst_s),
        images_per_s=spec.burst / float(np.median(burst_s)),
        latency_p50_ms=percentile_ms(latency, 50),
        latency_p90_ms=percentile_ms(latency, 90),
        open_window=window,
    )
    waits = [r.queue_wait_s for r in responses]
    out["layers"].update({
        "loadgen.lag_p99_ms": percentile_ms(lateness, 99),
        "serve.open_loop_p50_ms": out["named"]["open_loop_p50_ms"][0],
        "serve.open_loop_p90_ms": out["named"]["open_loop_p90_ms"][0],
        "serve.queue_wait_ms_p50": percentile_ms(waits, 50),
        "serve.queue_wait_ms_p99": percentile_ms(waits, 99),
        "serve.service_ms_p50": percentile_ms([r.service_s for r in responses], 50),
        "serve.batch_size_mean": (after.completed - before.completed)
        / max(after.batches - before.batches, 1),
    })
    return _check_served(program, pool, served, args, ops, out, end)


def send(runtime, pool, due_offsets):
    """Submit request ``i`` at its absolute due time ``t0 + due_offsets[i]``.

    Each request's latency runs from its due time to its response (stamped
    by a future callback), so a stall that delays later sends counts
    against them.  Returns the window from ``t0`` to the last response,
    each send's lateness, the latencies, and the ``(image index, future)``
    pairs.
    """
    requests = len(due_offsets)
    t0 = time.perf_counter()
    due = t0 + due_offsets
    done = [0.0] * requests
    lateness = []
    futures = []
    for i in range(requests):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append(time.perf_counter() - due[i])
        future = runtime.submit(pool[i % len(pool)])
        future.add_done_callback(
            lambda _f, i=i: done.__setitem__(i, time.perf_counter())
        )
        futures.append((i % len(pool), future))
    wait([future for _, future in futures], timeout=60)
    end = time.perf_counter()
    # A request still unanswered is failed by the output check.
    latency = [done[i] - due[i] if done[i] else float("inf") for i in range(requests)]
    return (t0, end), lateness, latency, futures


def _check_served(program, pool, served, args, ops: Ops, out, end: float) -> float:
    """Served predictions must equal an offline run over the same images.

    ``float_agreement`` counts each pool image once, so it does not depend on
    how many requests fit in the window.
    """
    import numpy as np

    chip = program.instantiate()
    report = chip.run(pool)
    offline = report.predictions
    for n, (index, future) in enumerate(served):
        try:
            prediction = future.result(timeout=60).prediction
        except Exception as exc:  # a failed request is a failed operation
            ops.record(False, f"request {n} raised {exc!r}")
            continue
        if args.corrupt and n == 0:
            prediction += 1
        ops.record(
            prediction == offline[index],
            f"request {n} served {prediction}, offline run gives {offline[index]}",
        )
    float_predictions = np.argmax(chip.simulator.model.forward(pool), axis=-1)
    out["float_agreement"] = float(np.mean(offline == float_predictions))
    out["modeled_tops_per_w"] = float(report.performance.tops_per_watt)
    return end


# -------------------------------------------------------------------- sweep


def run_sweep(spec: Workload, args, ops: Ops, out: Dict[str, Any]) -> float:
    """A cold sweep into an empty cache, then warm passes that only read it."""
    import numpy as np

    from repro.sweep.runner import SweepRunner, deterministic_view
    from repro.sweep.spec import SweepSpec

    class SeededSweepSpec(SweepSpec):
        """The grid with every job's data seed set by the benchmark seed."""

        def data_seed(self, scenario: str) -> int:
            return batch_seed(args.seed, 1)

    grid = SeededSweepSpec(
        scenarios=(spec.scenario,),
        designs=("curfe", "chgfe"),
        adc_bits=(4, 5),
        calibrations=("workload", "nominal"),
        device_execs=(spec.device_exec,),
        images=spec.images,
        batch_size=spec.images,
        seed=DESIGN_POINT["seed"],
    )
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
    try:
        runner = SweepRunner(grid, workers=1, cache_dir=cache_dir)
        out["setup_s"] = time.perf_counter() - T0
        if args.mode == "probe":
            return time.perf_counter()

        start = time.perf_counter()
        cold = runner.run()
        out["first_run_s"] = time.perf_counter() - start
        jobs = len(cold.records)
        totals = cold.cache_totals()
        for record in cold.records:
            ops.record(
                record.get("float_agreement") is not None
                and bool(record.get("predictions_sha256")),
                f"cold job {record['job_id']} has no quality fields",
            )
        layers = out["layers"]
        layers["sweep.cache_hits"] = totals["hits"]
        layers["sweep.cache_misses"] = totals["misses"]
        layers["sweep.cache_bytes"] = sum(
            path.stat().st_size for path in Path(cache_dir).rglob("*") if path.is_file()
        )

        expected = cold.deterministic_records()
        if args.corrupt:
            expected[0] = dict(expected[0], predictions_sha256="corrupted")
        pass_s: List[float] = []
        records = list(cold.records)
        steady_start = time.perf_counter()
        while _more(args, spec, len(pass_s), steady_start):
            start = time.perf_counter()
            warm = runner.run()
            pass_s.append(time.perf_counter() - start)
            for want, got in zip(expected, warm.records):
                ops.record(
                    want == deterministic_view(got)
                    and all(status == "hit" for status in got["cache"].values()
                            if status != "skipped"),
                    f"warm job {got['job_id']} differs from its cold record",
                )
            totals = warm.cache_totals()
            layers["sweep.cache_hits"] += totals["hits"]
            layers["sweep.cache_misses"] += totals["misses"]
            records.extend(warm.records)
        end = time.perf_counter()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    out["named"] = {
        "sweep_cold_jobs_per_s": [jobs / out["first_run_s"], "jobs/s"],
        "sweep_warm_jobs_per_s": [jobs / float(np.median(pass_s)), "jobs/s"],
    }
    out.update(
        warm_ops=len(pass_s),
        images_per_s=jobs * spec.images / float(np.median(pass_s)),
        latency_p50_ms=percentile_ms(pass_s, 50),
        latency_p90_ms=percentile_ms(pass_s, 90),
        float_agreement=float(np.mean([r["float_agreement"] for r in cold.records])),
        modeled_tops_per_w=float(
            np.mean([r["modeled"]["tops_per_watt"] for r in cold.records])
        ),
    )
    layers["sweep.job_setup_s"] = sum(r["timing"]["setup_s"] for r in records)
    layers["sweep.job_run_s"] = sum(r["timing"]["run_s"] for r in records)
    return end


RUNNERS = {"offline": run_offline, "serve": run_serve, "sweep": run_sweep}


# ---------------------------------------------------------------- environment


def blas_environment() -> Dict[str, Any]:
    """nproc, numpy and BLAS versions, and the BLAS thread count in use."""
    import ctypes

    import numpy as np

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                break
    return info


# ----------------------------------------------------------------------- main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "main"), default="main")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ops", type=int, default=None,
                        help="fixed steady-phase operation count (overrides --seconds)")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output before it is checked (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, **TINY)

    tracer = None
    if args.trace:
        from layers import LayerTracer  # perfbench/ is sys.path[0] here

        tracer = LayerTracer().install()
    ops = Ops()
    out: Dict[str, Any] = {"workload": args.workload, "mode": args.mode, "layers": {}}
    try:
        end = RUNNERS[spec.kind](spec, args, ops, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = end - T0
    out["attempted"], out["failed"], out["failures"] = ops.attempted, ops.failed, ops.failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = blas_environment()
    if tracer is not None:
        layers = out["layers"]
        layers.update(tracer.rollup((T0, end)))
        if "open_window" in out:
            lo, hi = out["open_window"]
            layers["serve.replica_busy_frac"] = tracer.busy_seconds(
                "serve.replica", (lo, hi)
            ) / (hi - lo)
        spans_path = str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        out["spans_path"] = spans_path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
