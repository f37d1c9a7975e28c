"""Implementation of the ``python -m repro`` subcommands.

Each subcommand body is a plain function from a typed config document to a
JSON-safe payload dict — the tests call them directly (no subprocess
required) and the shell entry point serialises whatever they return:

========  =============================================================
command   behaviour
========  =============================================================
run       One offline evaluation (``kind: run``): build the scenario,
          run the configured inference backend over the workload, report
          accuracy + prediction digest.  Bit-identical to the equivalent
          Python-constructed :class:`~repro.chipsim.ChipSimulator` run.
sweep     Execute a ``kind: sweep`` grid through
          :class:`~repro.sweep.SweepRunner`; the payload is the
          ``BENCH_sweep.json`` record shape.
serve     Stand up a ``kind: serve`` deployment, drive the closed-loop
          workload, report the metrics snapshot, a Prometheus scrape,
          and the tail of the JSONL event log.
trace     Run any runnable kind with tracing forced on; write a
          Perfetto-loadable trace file and print the exclusive-time
          rollup table (``repro.obs``) and the trace path.  The payload
          is written only with ``--output``.
validate  Schema-check config files without running anything.
========  =============================================================

Every runnable document also carries an ``obs:`` section; when it is
enabled the command body runs inside :func:`repro.obs.obs_session`, the
payload gains an ``obs`` key (span count, trace path, rollup, metrics
snapshot), and the trace file is written next to the other outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "main",
    "cmd_run",
    "cmd_sweep",
    "cmd_serve",
    "cmd_trace",
    "cmd_validate",
]

#: Runnable document kinds and their command bodies (filled in below).
RUNNABLE_COMMANDS: Dict[str, Any] = {}


def _load_document(path: str, overrides: Sequence[str], expected_kind: str):
    """Load + resolve + parse one document, enforcing the command's kind."""
    from ..config import ConfigError, load_config
    from ..config.documents import parse_document

    resolved = load_config(path, overrides=overrides)
    kind = resolved.get("kind")
    if kind != expected_kind:
        raise ConfigError(
            f"{path} is 'kind: {kind}', but this command needs "
            f"'kind: {expected_kind}'"
        )
    return parse_document(resolved)


# ------------------------------------------------------------------ commands


def cmd_run(document) -> Dict[str, Any]:
    """Execute one offline evaluation from a :class:`RunDocument`."""
    import numpy as np

    from ..chipsim.scenarios import get_scenario
    from ..chipsim.simulator import ChipSimulator
    from ..sweep.hashing import digest_arrays
    from ..system.inference import QuantizedInferenceEngine

    config = document.inference
    scenario = get_scenario(document.scenario)
    model = scenario.build(seed=config.seed)
    workload = scenario.workload(
        images=document.workload.images, seed=document.workload.data_seed
    )
    payload: Dict[str, Any] = {
        "kind": "run",
        "scenario": document.scenario,
        "backend": config.backend,
        "design": config.design,
        "images": int(len(workload.images)),
        "config": config.to_dict(),
    }
    if config.backend == "device":
        simulator = ChipSimulator(model, config=config, name=scenario.name)
        report = simulator.run(
            workload.images,
            workload.labels,
            batch_size=document.workload.batch_size,
        )
        predictions = report.predictions
        payload["accuracy"] = (
            None if report.accuracy is None else float(report.accuracy)
        )
        payload["tiles_executed"] = int(report.tiles_executed)
        payload["modeled"] = {
            "tops_per_watt": float(report.performance.tops_per_watt),
            "fps": float(report.performance.frames_per_second),
        }
    else:
        engine = QuantizedInferenceEngine(model, config)
        predictions = engine.predict(
            workload.images, batch_size=document.workload.batch_size
        )
        payload["accuracy"] = (
            None
            if workload.labels is None
            else float(np.mean(predictions == np.asarray(workload.labels)))
        )
    payload["predictions"] = [int(p) for p in predictions]
    payload["predictions_sha256"] = digest_arrays(predictions)
    return payload


def cmd_sweep(document) -> Dict[str, Any]:
    """Execute a :class:`SweepDocument` grid and return its record."""
    from ..sweep.runner import SweepRunner

    runner = SweepRunner(
        document.spec,
        workers=document.workers,
        cache_dir=document.cache_dir,
        event_log=document.event_log,
    )
    result = runner.run()
    return {"kind": "sweep", "record": result.to_record()}


def _metrics_scrape(runtime) -> Optional[str]:
    """The live ``/metrics`` body over HTTP, or None when disabled."""
    if runtime.metrics_url is None:
        return None
    import urllib.request

    with urllib.request.urlopen(runtime.metrics_url, timeout=10) as response:
        return response.read().decode("utf-8")


def cmd_serve(document) -> Dict[str, Any]:
    """Run a :class:`ServeDocument` deployment under closed-loop load."""
    from ..serve.events import tail_events
    from ..serve.loadgen import LoadGenerator
    from ..serve.runtime import ServeRuntime
    from ..sweep.hashing import digest_arrays

    config = document.serve
    workload = document.workload
    with ServeRuntime(config) as runtime:
        generator = LoadGenerator(
            runtime.program.calibration_images, seed=workload.seed
        )
        result = generator.closed_loop(
            runtime,
            requests=workload.requests,
            concurrency=workload.concurrency,
        )
        scrape = _metrics_scrape(runtime)
    payload: Dict[str, Any] = {
        "kind": "serve",
        "scenario": config.scenario,
        "config": config.to_dict(),
        "requests": result.offered,
        "completed": result.completed,
        "rejected": result.rejected,
        "throughput_rps": float(result.throughput_rps),
        "predictions_sha256": digest_arrays(result.predictions),
        "metrics": result.metrics.to_dict(),
        "metrics_exposition": scrape,
    }
    if config.event_log is not None:
        payload["events_tail"] = tail_events(config.event_log, 10)
    return payload


RUNNABLE_COMMANDS.update({"run": cmd_run, "sweep": cmd_sweep, "serve": cmd_serve})


def run_with_obs(command, document, *, kind: str) -> Dict[str, Any]:
    """Run a command body inside the document's ``obs:`` session.

    With observability disabled this is a plain call; enabled, the body
    runs under a collecting tracer and the payload gains an ``obs`` key.
    """
    from ..obs.config import obs_session

    obs = getattr(document, "obs", None)
    with obs_session(obs, default_trace_path=f"{kind}-trace.json") as session:
        payload = command(document)
    if obs is not None and obs.enabled:
        payload["obs"] = session.payload()
    return payload


def cmd_trace(
    path: str,
    overrides: Sequence[str] = (),
    *,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run any runnable config with tracing forced on.

    Loads the document, overrides its ``obs:`` section to ``enabled: true``
    (honouring ``--trace-path`` when given), executes the matching command
    body, and returns its payload with the ``obs`` section plus a rendered
    ``summary`` table attached.
    """
    from ..config import ConfigError, load_config
    from ..config.documents import parse_document
    from ..obs.config import obs_session
    from ..obs.exporters import format_summary

    resolved = load_config(path, overrides=overrides)
    kind = resolved.get("kind")
    if kind not in RUNNABLE_COMMANDS:
        raise ConfigError(
            f"{path} is 'kind: {kind}', but trace needs a runnable kind "
            f"({sorted(RUNNABLE_COMMANDS)})"
        )
    document = parse_document(resolved)
    updates: Dict[str, Any] = {"enabled": True}
    if trace_path is not None:
        updates["trace_path"] = trace_path
    obs = dataclasses.replace(document.obs, **updates)
    with obs_session(obs, default_trace_path=f"{kind}-trace.json") as session:
        payload = RUNNABLE_COMMANDS[kind](document)
    payload["obs"] = session.payload()
    payload["obs"]["summary"] = format_summary(session.rollup)
    return payload


def cmd_validate(
    paths: Sequence[str], overrides: Sequence[str] = ()
) -> Dict[str, Any]:
    """Schema-check config files; ``ok`` is False when any fails."""
    from ..config import ConfigError, load_config
    from ..config.documents import parse_document

    reports: List[Dict[str, Any]] = []
    for path in paths:
        report: Dict[str, Any] = {"path": str(path)}
        try:
            resolved = load_config(path, overrides=overrides)
            if "kind" not in resolved:
                # A base layer meant to be `extends`-ed: YAML-parses and
                # interpolates, but is not a runnable document itself.
                report["ok"] = True
                report["kind"] = None
                report["document"] = "base overlay"
            else:
                document = parse_document(resolved)
                report["ok"] = True
                report["kind"] = resolved.get("kind")
                report["document"] = type(document).__name__
        except (ConfigError, ValueError) as error:
            report["ok"] = False
            report["error"] = str(error)
        reports.append(report)
    return {
        "kind": "validate",
        "ok": all(report["ok"] for report in reports),
        "files": reports,
    }


# --------------------------------------------------------------------- shell


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Declarative entry points of the FeFET IMC reproduction: "
            "run / sweep / serve from schema-validated YAML."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("config", help="YAML config file (see examples/configs/)")
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a (dotted) config key, e.g. --set serve.max_batch=16",
        )
        sub.add_argument(
            "--output",
            metavar="PATH",
            default=None,
            help="write the full JSON payload to PATH (default: stdout; "
            "trace prints only its rollup and trace path)",
        )

    for name, help_text in (
        ("run", "one offline evaluation (kind: run)"),
        ("sweep", "a design-space grid (kind: sweep)"),
        ("serve", "a serving deployment under closed-loop load (kind: serve)"),
    ):
        add_common(subparsers.add_parser(name, help=help_text))

    trace = subparsers.add_parser(
        "trace",
        help="run any runnable config with tracing on; write a Perfetto "
        "trace and print the exclusive-time rollup",
    )
    add_common(trace)
    trace.add_argument(
        "--trace-path",
        metavar="PATH",
        default=None,
        help="trace output file (default: <kind>-trace.json)",
    )

    validate = subparsers.add_parser(
        "validate", help="schema-check config files without running"
    )
    validate.add_argument("configs", nargs="+", help="YAML config files")
    validate.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="apply an override before validating (same syntax as run)",
    )
    return parser


def _emit(payload: Dict[str, Any], output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {output}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from ..config import ConfigError

    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            payload = cmd_validate(args.configs, args.overrides)
            _emit(payload, None)
            return 0 if payload["ok"] else 1
        if args.command == "trace":
            payload = cmd_trace(
                args.config, args.overrides, trace_path=args.trace_path
            )
            print(payload["obs"]["summary"])
            print(f"trace written to {payload['obs']['trace_path']}")
            if args.output is not None:
                _emit(payload, args.output)
            return 0
        document = _load_document(
            args.config, args.overrides, expected_kind=args.command
        )
        payload = run_with_obs(
            RUNNABLE_COMMANDS[args.command], document, kind=args.command
        )
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2
    _emit(payload, args.output)
    return 0
