"""Parallel execution of design-space sweeps with cached per-job state.

:class:`SweepRunner` shards the jobs of a :class:`~repro.sweep.spec.SweepSpec`
across a ``ProcessPoolExecutor`` (or runs them serially with ``workers=1``
— bit-identical results either way, which the test suite enforces).  Jobs
cross the process boundary as plain ``to_dict()`` payloads, and every
worker rebuilds its :class:`~repro.system.inference.InferenceConfig` from
the serialised form — the round trip that also feeds the content-addressed
:class:`~repro.sweep.cache.SweepCache` keys.

Each job produces one structured record: the quality metrics (labelled
accuracy where the scenario has labels, fidelity against the float forward
pass otherwise, plus a prediction digest for bit-identity checks), the
modeled chip metrics (TOPS/W, FPS, energy / latency per layer), host-side
throughput, and the cache events that shaped its setup time.  Timing and
cache fields are inherently run-dependent, so :func:`deterministic_view`
strips them before any cross-run equality comparison.

``SweepResult.to_record()`` merges everything — spec snapshot, per-job
records, Pareto fronts, aggregate throughput and cache counters — into the
``BENCH_sweep.json`` shape that ``benchmarks/bench_sweep_grid.py`` writes
and ``benchmarks/check_perf_floor.py`` gates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..chipsim.scenarios import Scenario, get_scenario, model_arrays
from ..chipsim.simulator import ChipSimulator, network_spec_from_model
from ..obs.tracer import Tracer, get_tracer, set_tracer, timed
from ..system.inference import InferenceConfig, QuantizedInferenceEngine
from ..system.performance import SystemPerformanceModel, SystemPerformanceResult
from .cache import (
    SweepCache,
    arrays_from_state,
    calibration_key,
    model_key,
    programming_key,
    restore_state,
    weights_digest,
)
from .hashing import digest_arrays
from .spec import SweepJob, SweepSpec

__all__ = ["SweepRunner", "SweepResult", "run_job", "deterministic_view", "pareto_front"]

#: Record keys that legitimately differ between runs of the same job
#: (wall-clock timing and cache temperature); everything else must be
#: bit-identical for a fixed spec.
NONDETERMINISTIC_KEYS = ("timing", "cache")


# ----------------------------------------------------------------- job body


def _acquire_model(
    scenario: Scenario, seed: int, cache: Optional[SweepCache]
) -> Tuple[Any, str]:
    """Build (or cache-restore) the scenario's runtime model.

    Returns the model and the cache status — trained scenarios store their
    weights content-addressed so only one worker ever pays for training.
    """
    if not scenario.trained or cache is None:
        return scenario.build(seed=seed), "skipped"
    key = model_key(scenario.name, scenario.params, seed)
    cached = cache.get_layered("model", key)
    if cached is not None:
        return scenario.load_model(cached, seed=seed), "hit"
    model = scenario.build(seed=seed)
    cache.put_layered("model", key, model_arrays(model))
    return model, "miss"


def _model_weights_digest(model) -> str:
    """Content digest of the model's float weights (and biases)."""
    return weights_digest(
        {
            name: np.concatenate([layer.weight.ravel(), layer.bias.ravel()])
            for name, layer in model.weight_layers().items()
        }
    )


def _restore_layer_states(
    layered: Mapping[str, Mapping[str, np.ndarray]],
    model,
    config: InferenceConfig,
) -> Optional[Dict[str, Any]]:
    """Rebuild per-layer ArrayStates from a programming-cache entry.

    Returns None when the entry does not cover every weight layer (a stale
    or foreign entry) — the caller then falls back to a cold build.
    """
    if set(layered) != set(model.weight_layers()):
        return None
    return {
        name: restore_state(config.design, arrays)
        for name, arrays in layered.items()
    }


def _performance_payload(perf: SystemPerformanceResult) -> Dict[str, Any]:
    """The modeled chip metrics of one job, JSON-ready."""
    return {
        "tops_per_watt": float(perf.tops_per_watt),
        "fps": float(perf.frames_per_second),
        "energy_per_image_j": float(perf.total_energy),
        "latency_per_image_s": float(perf.total_latency),
        "area_mm2": float(perf.area_mm2),
        "total_macros": int(perf.total_macros),
        "layers": [
            {
                "name": layer.layer_name,
                "energy_j": float(layer.dynamic_energy),
                "latency_s": float(layer.latency),
            }
            for layer in perf.layers
        ],
    }


#: Per-process memo of float-forward predictions.  Every job of a scenario
#: shares (model seed, data seed, image count) within a sweep, so a worker
#: that executes several jobs of the same scenario runs the float reference
#: pass once instead of per job.
_FLOAT_PREDICTIONS: Dict[Tuple[str, int, int, int], np.ndarray] = {}


def _float_predictions(job: SweepJob, model, images: np.ndarray) -> np.ndarray:
    key = (job.scenario, int(job.config["seed"]), job.data_seed, len(images))
    cached = _FLOAT_PREDICTIONS.get(key)
    if cached is None:
        cached = np.argmax(model.forward(images), axis=-1)
        _FLOAT_PREDICTIONS.clear()  # one scenario at a time is the hot case
        _FLOAT_PREDICTIONS[key] = cached
    return cached


def _quality_payload(
    predictions: np.ndarray,
    labels: Optional[np.ndarray],
    float_predictions: np.ndarray,
) -> Dict[str, Any]:
    """Accuracy (when labelled), float-fidelity, and the prediction digest."""
    accuracy = (
        None
        if labels is None
        else float(np.mean(predictions == np.asarray(labels)))
    )
    float_baseline = (
        None
        if labels is None
        else float(np.mean(float_predictions == np.asarray(labels)))
    )
    return {
        "accuracy": accuracy,
        "float_baseline": float_baseline,
        "float_agreement": float(np.mean(predictions == float_predictions)),
        "predictions_sha256": digest_arrays(predictions),
    }


def run_job(payload: Mapping[str, Any], cache_dir: Optional[str] = None) -> Dict[str, Any]:
    """Execute one sweep job from its serialised payload.

    This is the function worker processes run; it is importable top-level
    so ``ProcessPoolExecutor`` can dispatch it, and it takes the job in
    ``SweepJob.to_dict()`` form — the config round-trips through
    :meth:`InferenceConfig.from_dict` exactly as the cache keys assume.

    A coordinating :class:`SweepRunner` with tracing enabled ships its
    sweep-span context in the reserved ``__trace__`` payload key; the
    worker then collects its own spans under a fresh process-local tracer
    and returns them in the reserved ``__spans__`` record key (both popped
    before the job / record proper are interpreted, so job hashing and the
    record schema are untouched).
    """
    payload = dict(payload)
    trace_ctx = payload.pop("__trace__", None)
    if trace_ctx is None:
        return _run_job_body(payload, cache_dir, get_tracer().current_context())
    # Worker process: a fork-inherited tracer would replay the parent's
    # rings, so always collect under a fresh one and ship the spans back.
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        record = _run_job_body(payload, cache_dir, tuple(trace_ctx))
    finally:
        set_tracer(previous)
    record["__spans__"] = tracer.drain()
    return record


def _run_job_body(
    payload: Mapping[str, Any],
    cache_dir: Optional[str],
    parent: Optional[Tuple[str, str]],
) -> Dict[str, Any]:
    job = SweepJob.from_dict(payload)
    scenario = get_scenario(job.scenario)
    cache = SweepCache(cache_dir) if cache_dir else None
    cache_events = {"model": "skipped", "programming": "skipped", "calibration": "skipped"}

    record: Dict[str, Any] = {
        "job_id": job.job_id,
        "scenario": job.scenario,
        "backend": job.backend,
        "design": job.config["design"],
        "input_bits": job.config["input_bits"],
        "weight_bits": job.config["weight_bits"],
        "adc_bits": job.config["adc_bits"],
        "calibration": job.config["calibration"],
        "device_exec": job.config["device_exec"],
        "seed": job.config["seed"],
        "data_seed": job.data_seed,
        "images": job.images,
    }

    # One perf_counter pair per stage, shared by all three backends: the
    # record's timing fields derive from the ``timed`` objects (wall = the
    # job block, run = the run stage, setup = the gap between their starts),
    # and the same objects become the job/run spans when tracing is on.
    with timed(
        "job",
        parent=parent,
        job_id=job.job_id,
        scenario=job.scenario,
        backend=job.backend,
    ) as wall_t:
        if job.backend == "analytic":
            run_t, tiles = _run_analytic(job, scenario, cache, cache_events, record)
        else:
            config = job.inference_config()
            with timed("train", scenario=job.scenario):
                model, cache_events["model"] = _acquire_model(
                    scenario, config.seed, cache
                )
            workload = scenario.workload(images=job.images, seed=job.data_seed)
            if job.backend == "functional":
                run_t, tiles = _run_functional(
                    job, scenario, config, model, workload, record
                )
            else:
                run_t, tiles = _run_device(
                    job, scenario, config, model, workload,
                    cache, cache_events, record,
                )

    record["cache"] = cache_events
    record["timing"] = _timing_payload(wall_t, run_t, job.images, tiles=tiles)
    return record


def _run_analytic(
    job: SweepJob,
    scenario: Scenario,
    cache: Optional[SweepCache],
    cache_events: Dict[str, str],
    record: Dict[str, Any],
) -> Tuple[timed, int]:
    with timed("train", scenario=job.scenario):
        if scenario.runtime:
            model, cache_events["model"] = _acquire_model(
                scenario, int(job.config["seed"]), cache
            )
            network = network_spec_from_model(model, name=scenario.name)
        else:
            network = scenario.network_spec()
        perf_model = SystemPerformanceModel(
            job.config["design"],
            input_bits=int(job.config["input_bits"]),
            weight_bits=int(job.config["weight_bits"]),
            adc_bits=int(job.config["adc_bits"]),
        )
    with timed("run", images=job.images) as run_t:
        perf = perf_model.evaluate(network)
    record.update(
        {
            "accuracy": None,
            "float_baseline": None,
            "float_agreement": None,
            "predictions_sha256": None,
            "tiles_executed": 0,
            "calibrated_layers": 0,
            "modeled": _performance_payload(perf),
        }
    )
    return run_t, 0


def _run_functional(
    job: SweepJob,
    scenario: Scenario,
    config: InferenceConfig,
    model,
    workload,
    record: Dict[str, Any],
) -> Tuple[timed, int]:
    with timed("program", backend="functional"):
        engine = QuantizedInferenceEngine(model, config)
        perf = SystemPerformanceModel(
            config.design,
            input_bits=config.input_bits,
            weight_bits=config.weight_bits,
            adc_bits=config.adc_bits or 5,
            geometry=config.geometry,
        ).evaluate(network_spec_from_model(model, name=scenario.name))
    with timed("run", images=job.images) as run_t:
        predictions = engine.predict(workload.images, batch_size=job.batch_size)
    record.update(
        _quality_payload(
            predictions,
            workload.labels,
            _float_predictions(job, model, workload.images),
        )
    )
    record.update(
        {
            "tiles_executed": 0,
            "calibrated_layers": 0,
            "modeled": _performance_payload(perf),
        }
    )
    return run_t, 0


def _run_device(
    job: SweepJob,
    scenario: Scenario,
    config: InferenceConfig,
    model,
    workload,
    cache: Optional[SweepCache],
    cache_events: Dict[str, str],
    record: Dict[str, Any],
) -> Tuple[timed, int]:
    wdigest = _model_weights_digest(model)
    layer_states = None
    if cache is not None and config.variation.enabled:
        with timed("cache_lookup", kind="programming"):
            prog_key = programming_key(config, wdigest)
            layered = cache.get_layered_shared("programming", prog_key)
            if layered is not None:
                layer_states = _restore_layer_states(layered, model, config)
        cache_events["programming"] = "hit" if layer_states is not None else "miss"

    with timed("program", cached=layer_states is not None):
        simulator = ChipSimulator(
            model, config=config, layer_states=layer_states, name=scenario.name
        )
    if cache is not None and config.variation.enabled and layer_states is None:
        cache.put_layered(
            "programming",
            programming_key(config, wdigest),
            {
                name: arrays_from_state(state)
                for name, state in simulator.inference.layer_array_states().items()
            },
        )

    cal_key = None
    if cache is not None and config.calibration == "workload":
        with timed("cache_lookup", kind="calibration"):
            cal_key = calibration_key(
                config, wdigest, digest_arrays(workload.images), job.batch_size
            )
            cached_levels = cache.get_layered_shared("calibration", cal_key)
            if cached_levels is not None:
                simulator.inference.apply_calibration(cached_levels)
                cache_events["calibration"] = "hit"
            else:
                cache_events["calibration"] = "miss"

    with timed("run", images=job.images) as run_t:
        report = simulator.run(
            workload.images, workload.labels, batch_size=job.batch_size
        )

    if cal_key is not None and cache_events["calibration"] == "miss":
        levels = simulator.inference.calibration_levels()
        if levels:
            cache.put_layered("calibration", cal_key, levels)

    record.update(
        _quality_payload(
            report.predictions,
            workload.labels,
            _float_predictions(job, model, workload.images),
        )
    )
    record.update(
        {
            "tiles_executed": int(report.tiles_executed),
            "calibrated_layers": int(simulator.calibrated_layers()),
            "modeled": _performance_payload(report.performance),
        }
    )
    return run_t, int(report.tiles_executed)


def _timing_payload(
    wall_t: timed, run_t: timed, images: int, *, tiles: int
) -> Dict[str, float]:
    """Record timing fields derived from the job's span measurements."""
    run_seconds = run_t.duration_s
    return {
        "setup_s": float(max(run_t.start_s - wall_t.start_s, 0.0)),
        "run_s": float(run_seconds),
        "wall_s": float(wall_t.duration_s),
        "images_per_s": float(images / run_seconds) if run_seconds > 0 else 0.0,
        "tiles_per_s": float(tiles / run_seconds) if run_seconds > 0 else 0.0,
    }


def deterministic_view(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A record with the run-dependent fields (timing, cache events) removed.

    Two runs of the same spec — serial or parallel, cold or warm cache —
    must agree exactly on this view; it is what the bit-identity tests and
    ``bench_sweep_grid.py`` compare.
    """
    return {
        key: value
        for key, value in record.items()
        if key not in NONDETERMINISTIC_KEYS
    }


def _quality_metric(record: Mapping[str, Any]) -> Optional[float]:
    """The record's quality axis: labelled accuracy, else float fidelity."""
    if record.get("accuracy") is not None:
        return float(record["accuracy"])
    if record.get("float_agreement") is not None:
        return float(record["float_agreement"])
    return None


def pareto_front(
    points: Sequence[Tuple[str, float, float]]
) -> List[str]:
    """Non-dominated ``(key, metric_a, metric_b)`` points, both maximised.

    Returns the keys of points no other point beats on one axis without
    losing on the other, sorted by descending ``metric_a``.
    """
    front = []
    for key, a, b in points:
        dominated = any(
            (oa >= a and ob >= b) and (oa > a or ob > b)
            for okey, oa, ob in points
            if okey != key
        )
        if not dominated:
            front.append((key, a, b))
    front.sort(key=lambda item: (-item[1], -item[2], item[0]))
    return [key for key, _a, _b in front]


@dataclass
class SweepResult:
    """The outcome of one sweep run.

    Attributes:
        spec: The expanded specification.
        records: Per-job records in job order.
        workers: Worker processes used (1 = in-process serial).
        wall_seconds: Wall time of the whole run.
        cache_dir: Cache directory, or None (uncached).
    """

    spec: SweepSpec
    records: List[Dict[str, Any]]
    workers: int
    wall_seconds: float
    cache_dir: Optional[str] = None

    @property
    def records_by_id(self) -> Dict[str, Dict[str, Any]]:
        """Records keyed by job id."""
        return {record["job_id"]: record for record in self.records}

    def record(self, job_id: str) -> Dict[str, Any]:
        """One job's record (raises on unknown id)."""
        try:
            return self.records_by_id[job_id]
        except KeyError:
            raise KeyError(
                f"no record for {job_id!r}; jobs: "
                f"{sorted(self.records_by_id)}"
            ) from None

    def deterministic_records(self) -> List[Dict[str, Any]]:
        """Every record's deterministic view, in job order."""
        return [deterministic_view(record) for record in self.records]

    def cache_totals(self) -> Dict[str, int]:
        """Aggregate cache hit/miss counts across all job records."""
        totals = {"hits": 0, "misses": 0, "skipped": 0}
        for record in self.records:
            for status in record.get("cache", {}).values():
                if status == "hit":
                    totals["hits"] += 1
                elif status == "miss":
                    totals["misses"] += 1
                else:
                    totals["skipped"] += 1
        return totals

    def pareto(self) -> Dict[str, List[str]]:
        """Pareto fronts of the grid (both axes maximised).

        ``accuracy_efficiency``: quality (labelled accuracy, else float
        fidelity) vs modeled TOPS/W, over jobs that report quality.
        ``throughput_efficiency``: modeled FPS vs modeled TOPS/W, over all
        jobs.
        """
        quality_points = []
        throughput_points = []
        for record in self.records:
            tops = float(record["modeled"]["tops_per_watt"])
            quality = _quality_metric(record)
            if quality is not None:
                quality_points.append((record["job_id"], quality, tops))
            throughput_points.append(
                (record["job_id"], float(record["modeled"]["fps"]), tops)
            )
        return {
            "accuracy_efficiency": pareto_front(quality_points),
            "throughput_efficiency": pareto_front(throughput_points),
        }

    def to_record(self) -> Dict[str, Any]:
        """The mergeable ``BENCH_sweep.json`` payload of this run."""
        total = self.wall_seconds
        return {
            "spec": self.spec.to_dict(),
            "spec_digest": self.spec.digest(),
            "workers": self.workers,
            "jobs": len(self.records),
            "records": self.records_by_id,
            "pareto": self.pareto(),
            "cache_totals": self.cache_totals(),
            "throughput": {
                "total_s": float(total),
                "jobs_per_s": float(len(self.records) / total) if total > 0 else 0.0,
            },
        }


class SweepRunner:
    """Executes a sweep spec, optionally across worker processes.

    Args:
        spec: The design-space grid to run.
        workers: Worker processes; ``1`` (default) runs in-process serially
            — results are bit-identical either way.
        cache_dir: Content-addressed cache directory shared by all workers;
            None disables caching.
        event_log: Optional JSONL event-log path
            (:mod:`repro.serve.events`); the coordinating process emits
            ``sweep_start`` / ``job_finished`` / ``cache_hit`` /
            ``cache_miss`` / ``sweep_finish`` — a single writer, so worker
            processes never contend on the log file.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        event_log: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.spec = spec
        self.workers = workers
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.event_log = None if event_log is None else str(event_log)

    def run(self) -> SweepResult:
        """Expand the grid and execute every job, preserving job order."""
        from ..serve.events import open_event_log

        jobs = self.spec.expand()
        payloads = [job.to_dict() for job in jobs]
        tracer = get_tracer()
        with open_event_log(self.event_log) as events:
            events.emit(
                "sweep_start",
                jobs=len(jobs),
                workers=self.workers,
                spec_digest=self.spec.digest(),
                cache_dir=self.cache_dir,
            )
            with timed(
                "sweep",
                jobs=len(jobs),
                workers=self.workers,
                spec=self.spec.digest(),
            ) as sweep_t:
                if self.workers == 1:
                    records = [run_job(payload, self.cache_dir) for payload in payloads]
                else:
                    ctx = tracer.current_context() if tracer.enabled else None
                    if ctx is not None:
                        payloads = [
                            dict(payload, __trace__=ctx) for payload in payloads
                        ]
                    with ProcessPoolExecutor(max_workers=self.workers) as pool:
                        records = list(
                            pool.map(
                                run_job,
                                payloads,
                                [self.cache_dir] * len(payloads),
                            )
                        )
                    for record in records:
                        spans = record.pop("__spans__", None)
                        if spans and tracer.enabled:
                            tracer.ingest(spans)
            wall_seconds = sweep_t.duration_s
            for record in records:
                for kind, status in record.get("cache", {}).items():
                    if status in ("hit", "miss"):
                        events.emit(
                            f"cache_{status}",
                            kind=kind,
                            job_id=record["job_id"],
                        )
                events.emit(
                    "job_finished",
                    job_id=record["job_id"],
                    backend=record["backend"],
                    accuracy=record.get("accuracy"),
                    wall_s=record["timing"]["wall_s"],
                )
            events.emit(
                "sweep_finish",
                jobs=len(records),
                wall_s=round(wall_seconds, 6),
            )
        return SweepResult(
            spec=self.spec,
            records=records,
            workers=self.workers,
            wall_seconds=wall_seconds,
            cache_dir=self.cache_dir,
        )
