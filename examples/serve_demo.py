"""Online inference serving over a pool of pre-programmed simulated chips.

The deployment is declared, not hard-coded: this demo loads
``examples/configs/serve.yaml`` through the ``repro.config`` layer — the
same schema-validated document ``python -m repro serve`` runs — then
programs the chip **once** (cell characterisation, workload-calibrated ADC
references, pinned activation scales, ahead-of-time compiled kernel plans —
a :class:`repro.serve.ChipProgram`), stamps out warm replicas, and serves
closed-loop traffic through the dynamic micro-batching scheduler at three
client counts.  The closing sections demonstrate the serving guarantees:

* **batching wins** — coalesced micro-batches beat batch-size-1 serving
  throughput on the same warm pool;
* **observability** — the runtime's Prometheus ``/metrics`` endpoint is
  scraped live over HTTP and the rotating JSONL event log is tailed;
* **zero-copy process pools** — shipping the program to worker processes
  as a shared-memory arena (``program_transport="shm"``) starts workers
  faster and maps one physical copy of the arrays, versus every worker
  unpickling its own private copy (measured side by side below);
* **determinism** — the per-request predictions equal one offline
  :meth:`ChipSimulator.run` of the same warm program over the same inputs,
  for thread pools and shared-memory process pools alike.

Run with:  python examples/serve_demo.py
"""

import dataclasses
import pickle
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.config import load_config
from repro.config.documents import parse_document
from repro.engine.shm import shm_available
from repro.serve import (
    ChipProgram,
    LoadGenerator,
    ServeRuntime,
    WorkerPool,
    parse_exposition,
    tail_events,
)

CONFIG_PATH = Path(__file__).resolve().parent / "configs" / "serve.yaml"


def compare_transports(program: ChipProgram, config) -> None:
    """Start the same process pool over pickle and shm, side by side."""
    single_copy = len(pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
    print(
        f"process pools, {config.replicas} workers, one program copy = "
        f"{single_copy / 1e6:.1f} MB pickled:"
    )
    transports = ("pickle", "shm") if shm_available() else ("pickle",)
    for transport in transports:
        pool = WorkerPool(
            program,
            dataclasses.replace(config, pool="process", program_transport=transport),
        )
        start = time.perf_counter()
        pool.start()
        start_s = time.perf_counter() - start
        try:
            workers = pool.warmup()
            init_ms = [1e3 * float(rec["init_s"]) for rec in workers]
            private = sum(int(rec["private_bytes"]) for rec in workers)
        finally:
            pool.shutdown()
        print(
            f"  {transport:6s}: pool up in {start_s * 1e3:7.1f} ms | worker init "
            f"{max(init_ms):7.1f} ms max | combined private RSS "
            f"{private / 1e6:6.1f} MB ({private / single_copy:.2f}x one copy)"
        )
    if len(transports) == 1:
        print("  (shared memory unavailable on this host — pickle only)")
    print()


def show_observability(config, program, generator, workload) -> None:
    """Scrape the live /metrics endpoint and tail the JSONL event log."""
    print("observability: Prometheus /metrics + JSONL event log ...")
    with ServeRuntime(config, program=program) as runtime:
        generator.closed_loop(
            runtime,
            requests=workload.requests,
            concurrency=workload.concurrency,
        )
        url = runtime.metrics_url
        with urllib.request.urlopen(url, timeout=10) as response:
            scrape = response.read().decode("utf-8")
    families = parse_exposition(scrape)  # proves the scrape is consumable
    print(f"  scraped {url}: {len(families)} metric families")
    shown = {
        "repro_serve_requests_completed_total": (
            "repro_serve_requests_completed_total",
        ),
        "repro_serve_latency_seconds": (
            "repro_serve_latency_seconds_count",
            "repro_serve_latency_seconds_sum",
        ),
        "repro_serve_batch_size": (),  # every bucket, _sum and _count
    }
    for family, names in shown.items():
        if family not in families:
            raise RuntimeError(f"/metrics scrape has no {family} family")
        for name, value in families[family]["samples"].items():
            if not names or name in names:
                print(f"    {name} {value:g}")
    print(f"  event log tail ({config.event_log}):")
    for event in tail_events(config.event_log, 5):
        extras = {
            key: value
            for key, value in event.items()
            if key not in ("seq", "ts", "event")
        }
        print(f"    #{event['seq']:<4d} {event['event']:<18s} {extras}")
    print()


def main() -> None:
    print(f"loading deployment from {CONFIG_PATH} ...")
    document = parse_document(load_config(CONFIG_PATH))
    workload = document.workload
    # Keep the demo self-contained: metrics on an ephemeral port, events in
    # a temp dir (the YAML's relative path would land in the working dir).
    tmp = tempfile.mkdtemp(prefix="repro-serve-demo-")
    config = dataclasses.replace(
        document.serve,
        metrics_port=0,
        event_log=str(Path(tmp) / "serve-events.jsonl"),
    )
    print(
        f"  kind: serve | scenario {config.scenario} | design {config.design} "
        f"| {config.replicas} replicas | max_batch {config.max_batch}"
    )

    print("programming the chip once (characterise + calibrate + compile plans)...")
    start = time.perf_counter()
    program = ChipProgram.build(config)
    print(
        f"  built in {time.perf_counter() - start:.2f} s | layers: "
        f"{sorted(program.model_arrays)} | modeled "
        f"{program.chip_latency_s * 1e6:.2f} us, "
        f"{program.chip_energy_j * 1e6:.3f} uJ per image"
    )
    # One warm replica in the parent: forked workers inherit the warmed
    # nominal-table memos, so the transport comparison isolates transport cost.
    start = time.perf_counter()
    offline_chip = program.instantiate()
    print(f"  warm replica stamped in {(time.perf_counter() - start) * 1e3:.1f} ms\n")

    images = program.calibration_images
    generator = LoadGenerator(images, seed=workload.seed)

    print(f"closed-loop load, {config.replicas} replicas, max_batch {config.max_batch}:")
    for concurrency in (1, 4, 16):
        with ServeRuntime(config, program=program) as runtime:
            result = generator.closed_loop(
                runtime, requests=workload.requests, concurrency=concurrency
            )
        metrics = result.metrics
        print(
            f"  {concurrency:3d} clients: {result.throughput_rps:8.1f} req/s | "
            f"p50 {metrics.latency_p50_s * 1e3:6.2f} ms  "
            f"p99 {metrics.latency_p99_s * 1e3:6.2f} ms | "
            f"batch occupancy {metrics.batch_occupancy_mean:.2f}"
        )

    # batching off: same pool, every request served alone
    with ServeRuntime(
        dataclasses.replace(config, max_batch=1), program=program
    ) as runtime:
        unbatched = generator.closed_loop(
            runtime, requests=workload.requests, concurrency=16
        )
    print(
        f"  16 clients, batching off: {unbatched.throughput_rps:8.1f} req/s "
        "(micro-batching is the difference)\n"
    )

    show_observability(config, program, generator, workload)

    compare_transports(program, config)

    print("determinism: serving == one offline ChipSimulator.run ...")
    offline = offline_chip.run(images).predictions
    with ServeRuntime(config, program=program) as runtime:
        served = runtime.serve(images)
    assert np.array_equal(served, offline)
    print(f"  thread pool, array_equal over {len(images)} requests: True")
    if shm_available():
        shm_config = dataclasses.replace(
            config, pool="process", program_transport="shm"
        )
        with ServeRuntime(shm_config, program=program) as runtime:
            served = runtime.serve(images)
        assert np.array_equal(served, offline)
        print(
            f"  shm process pool, array_equal over {len(images)} requests: True"
        )


if __name__ == "__main__":
    main()
