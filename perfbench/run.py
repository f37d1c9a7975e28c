"""The repository benchmark: cold and warm offline runs, open-loop serving,
and a cached design-space sweep, each timed from a fresh interpreter.

One workload, as the benchmark contract runs it (the last line of standard
output is the JSON result)::

    python3 perfbench/run.py --workload cold_run_curfe --seed 1 --seconds 10 --trace 0

Every workload in turn, with a table of every metric and its unit::

    python3 perfbench/run.py --all --seed 1 --seconds 10

With ``--trace 0`` the result holds the end-to-end metrics declared in
``BENCHMARK.json``.  Set-up is sampled in several fresh interpreters
(``workloads.py`` probes) and reported as the median; the last sample also
runs the steady phase and the output checks.  With ``--trace 1`` an
untraced sample and a traced sample of the same operation count run, and
the result holds the per-layer metrics: layer times from spans recorded
around each layer's public functions (``layers.py``), the workload's own
counters, and the tracing overhead between the two samples.  A layer metric
the workload declares (``Workload.layers``) must be reported; the others
read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BLAS_THREAD_VARS, WORKLOADS  # noqa: E402

#: Fresh-interpreter samples of set-up and the first operation per run.
SETUP_SAMPLES = 3

#: A run gives up (and prints no result) after this long.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_metrics() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}`` from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {
        kind: {metric["name"]: metric for metric in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def child_env() -> Dict[str, str]:
    """The sample's environment: BLAS pinned to one thread, ``src`` importable."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sample(args, mode: str, deadline: float, *extra: str) -> Dict[str, Any]:
    """Run one fresh-interpreter sample of the workload and parse its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next sample")
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        *extra,
    ]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} sample timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{args.workload} sample exited with {proc.returncode}: "
            + "\n".join(lines[-5:])
        )
    return json.loads(lines[-1])


def measure(args, deadline: float) -> Dict[str, Any]:
    """Sample the workload and fold the samples into one contract result."""
    declared = declared_metrics()
    if args.trace:
        plain = sample(args, "main", deadline)
        traced = sample(args, "main", deadline, "--trace", "--ops", str(plain["warm_ops"]))
        samples = [plain, traced]
        values = dict(traced["layers"])
        values["bench.tracing_overhead_frac"] = (
            traced["wall_s"] - plain["wall_s"]
        ) / plain["wall_s"]
        missing = [name for name in WORKLOADS[args.workload].layers if name not in values]
        if missing:
            raise BenchError(f"{args.workload} traced run reported no {', '.join(missing)}")
        # Layers this workload does not exercise read 0.
        metrics = {name: values.get(name, 0) for name in declared["per_layer"]}
        units = declared["per_layer"]
    else:
        samples = [sample(args, "probe", deadline) for _ in range(SETUP_SAMPLES - 1)]
        samples.append(sample(args, "main", deadline))
        values = dict(samples[-1])
        for name in ("setup_s", "first_run_s"):
            values[name] = statistics.median(s[name] for s in samples if name in s)
        metrics = {name: values[name] for name in declared["end_to_end"]}
        units = declared["end_to_end"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"]}
            for name, value in metrics.items()
        },
        "_samples": samples,
    }


def report(args, result: Dict[str, Any]) -> None:
    """Human-readable lines: environment, samples, every metric with its unit."""
    samples = result.pop("_samples")
    main = samples[-1]
    env = main["env"]
    print(
        f"== {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={int(args.trace)}"
    )
    print(
        f"env: nproc={env['nproc']} affinity={env['affinity']} "
        f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"blas_threads={env['blas_threads']}"
    )
    setups = " ".join(f"{s['setup_s']:.3f}" for s in samples)
    print(f"samples: {len(samples)} fresh interpreters, setup_s each: {setups}")
    print(f"steady-phase operations in the main sample: {main['warm_ops']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for name, (value, unit) in main.get("named", {}).items():
        print(f"  {name:<30} {value:>14.6g} {unit}  (main sample)")
    print(f"operations: attempted={result['attempted']} failed={result['failed']}")
    for sample_result in samples:
        for failure in sample_result["failures"]:
            print(f"  failed: {failure}")
    if "spans_path" in main:
        print(f"spans: {main['spans_path']}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output before it is checked (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the sample.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names: List[str] = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        try:
            result = measure(args, time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(args, result)
        results[name] = result
    print(json.dumps(results if args.all else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
