"""Declarative design-space sweeps over the simulated chip.

The paper's headline results are trade-off curves — accuracy vs ADC bits,
energy / latency vs mapping — and this subsystem makes every such curve one
declarative object: a :class:`SweepSpec` names the grid axes (scenario ×
design × backend × precision × ADC resolution × calibration × kernel),
:class:`SweepRunner` shards the expanded jobs across worker processes
with deterministic per-job seeds, and a content-addressed
:class:`SweepCache` shares trained weights, programmed cell state, and
calibrated ADC references between jobs that agree on the relevant content
(so the 5-bit and nominal variants of one scenario never recompute
programming).  Results merge into one ``BENCH_sweep.json`` record with
Pareto summaries — the artifact CI's ``perf-gate`` job guards.
"""

from .cache import (
    SweepCache,
    arrays_from_state,
    calibration_key,
    model_key,
    programming_key,
    restore_state,
    weights_digest,
)
from .hashing import canonical_json, digest_arrays, digest_payload, stable_seed
from .runner import (
    SweepResult,
    SweepRunner,
    deterministic_view,
    pareto_front,
    run_job,
)
from .spec import BACKENDS, SweepJob, SweepSpec

__all__ = [
    "BACKENDS",
    "SweepCache",
    "SweepJob",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "arrays_from_state",
    "calibration_key",
    "canonical_json",
    "deterministic_view",
    "digest_arrays",
    "digest_payload",
    "model_key",
    "pareto_front",
    "programming_key",
    "restore_state",
    "run_job",
    "stable_seed",
    "weights_digest",
]
