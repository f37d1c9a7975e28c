"""Top-level YAML document schemas of the ``python -m repro`` CLI.

A config file is one *document*: a mapping with a required ``kind`` key
selecting the entry point, plus that kind's sections.  The three kinds are

``kind: run``
    One offline inference run — ``scenario``, an ``inference:`` section
    (:data:`~repro.system.inference.INFERENCE_SCHEMA`), and a
    ``workload:`` section (image count / data seed / batch size).

``kind: sweep``
    A design-space grid — a ``spec:`` section
    (:data:`~repro.sweep.spec.SWEEP_SCHEMA`) plus runner knobs (worker
    count, cache directory, event-log path).

``kind: serve``
    A serving deployment — a ``serve:`` section
    (:data:`~repro.serve.config.SERVE_SCHEMA`) plus a closed-loop
    ``workload:`` section (request count / client concurrency).

Documents arrive here *resolved* — :func:`repro.config.load_config` has
already applied ``extends`` overlays, ``--set`` overrides, and ``${var}``
interpolation — so :func:`parse_document` only validates and builds typed
objects.  Unknown kinds and unknown keys raise with did-you-mean
suggestions; every nested section round-trips
(``document_to_dict(parse_document(d)) == d`` for canonical payloads).

This module imports the domain packages and therefore must NOT be imported
from :mod:`repro.config`'s ``__init__`` (the domain packages import that
package for their schemas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..chipsim.scenarios import SCENARIOS
from ..obs.config import OBS_SCHEMA, ObsConfig
from ..serve.config import SERVE_SCHEMA, ServeConfig
from ..sweep.spec import SWEEP_SCHEMA, SweepSpec
from ..system.inference import INFERENCE_SCHEMA, InferenceConfig
from .schema import ConfigSchema, FieldSpec, REQUIRED, UnknownKeyError, suggest

__all__ = [
    "DOCUMENT_KINDS",
    "WorkloadSpec",
    "ServeWorkload",
    "RunDocument",
    "SweepDocument",
    "ServeDocument",
    "parse_document",
    "document_to_dict",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """The offline evaluation workload of a ``run`` document."""

    images: int = 32
    data_seed: int = 7
    batch_size: int = 128

    def __post_init__(self) -> None:
        if self.images < 1:
            raise ValueError("workload images must be positive")
        if self.batch_size < 1:
            raise ValueError("workload batch_size must be positive")


WORKLOAD_SCHEMA = ConfigSchema(
    "WorkloadSpec",
    WorkloadSpec,
    [
        FieldSpec("images", 32, doc="evaluation images drawn from the scenario"),
        FieldSpec("data_seed", 7, doc="seed of the workload draw"),
        FieldSpec("batch_size", 128, doc="inference batch size"),
    ],
)


@dataclass(frozen=True)
class ServeWorkload:
    """The closed-loop client workload of a ``serve`` document."""

    requests: int = 64
    concurrency: int = 8
    seed: int = 123

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("workload requests must be positive")
        if self.concurrency < 1:
            raise ValueError("workload concurrency must be positive")


SERVE_WORKLOAD_SCHEMA = ConfigSchema(
    "ServeWorkload",
    ServeWorkload,
    [
        FieldSpec("requests", 64, doc="closed-loop requests to issue"),
        FieldSpec("concurrency", 8, doc="concurrent client threads"),
        FieldSpec("seed", 123, doc="seed of the request image draw"),
    ],
)


def _nested(schema: ConfigSchema):
    """(to_payload, from_payload) pair for a sub-schema section."""

    def from_payload(value: Any) -> Any:
        if isinstance(value, Mapping):
            return schema.from_dict(value)
        return value

    def to_payload(value: Any) -> Any:
        return schema.to_dict(value)

    return to_payload, from_payload


_INF_TO, _INF_FROM = _nested(INFERENCE_SCHEMA)
_SWEEP_TO, _SWEEP_FROM = _nested(SWEEP_SCHEMA)
_SERVE_TO, _SERVE_FROM = _nested(SERVE_SCHEMA)
_WORK_TO, _WORK_FROM = _nested(WORKLOAD_SCHEMA)
_SWORK_TO, _SWORK_FROM = _nested(SERVE_WORKLOAD_SCHEMA)
_OBS_TO, _OBS_FROM = _nested(OBS_SCHEMA)

#: The shared ``obs:`` section every document kind carries (off by default).
_OBS_FIELD = FieldSpec(
    "obs", ObsConfig(),
    to_payload=_OBS_TO, from_payload=_OBS_FROM,
    doc="observability section (tracing / metrics; disabled by default)",
)


@dataclass(frozen=True)
class RunDocument:
    """``kind: run`` — one offline :class:`~repro.chipsim.ChipSimulator` /
    functional-engine evaluation."""

    scenario: str
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    obs: ObsConfig = field(default_factory=ObsConfig)


RUN_SCHEMA = ConfigSchema(
    "RunDocument",
    RunDocument,
    [
        FieldSpec("scenario", choices=lambda: tuple(SCENARIOS),
                  doc="registered scenario to evaluate (required)"),
        FieldSpec("inference", InferenceConfig(),
                  to_payload=_INF_TO, from_payload=_INF_FROM,
                  doc="InferenceConfig section"),
        FieldSpec("workload", WorkloadSpec(),
                  to_payload=_WORK_TO, from_payload=_WORK_FROM,
                  doc="evaluation workload section"),
        _OBS_FIELD,
    ],
)


@dataclass(frozen=True)
class SweepDocument:
    """``kind: sweep`` — a :class:`~repro.sweep.SweepRunner` grid."""

    spec: SweepSpec
    workers: int = 1
    cache_dir: Optional[str] = None
    event_log: Optional[str] = None
    obs: ObsConfig = field(default_factory=ObsConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("sweep workers must be positive")


SWEEP_DOC_SCHEMA = ConfigSchema(
    "SweepDocument",
    SweepDocument,
    [
        FieldSpec("spec",
                  to_payload=_SWEEP_TO, from_payload=_SWEEP_FROM,
                  doc="SweepSpec section (required)"),
        FieldSpec("workers", 1, doc="sweep worker processes"),
        FieldSpec("cache_dir", None, doc="content-addressed cache directory"),
        FieldSpec("event_log", None, doc="JSONL event-log path (null = off)"),
        _OBS_FIELD,
    ],
)


@dataclass(frozen=True)
class ServeDocument:
    """``kind: serve`` — a deployment plus its closed-loop load."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    workload: ServeWorkload = field(default_factory=ServeWorkload)
    obs: ObsConfig = field(default_factory=ObsConfig)


SERVE_DOC_SCHEMA = ConfigSchema(
    "ServeDocument",
    ServeDocument,
    [
        FieldSpec("serve", ServeConfig(),
                  to_payload=_SERVE_TO, from_payload=_SERVE_FROM,
                  doc="ServeConfig section"),
        FieldSpec("workload", ServeWorkload(),
                  to_payload=_SWORK_TO, from_payload=_SWORK_FROM,
                  doc="closed-loop client workload section"),
        _OBS_FIELD,
    ],
)


#: ``kind`` value -> (document schema, document class).
DOCUMENT_KINDS: Dict[str, ConfigSchema] = {
    "run": RUN_SCHEMA,
    "sweep": SWEEP_DOC_SCHEMA,
    "serve": SERVE_DOC_SCHEMA,
}


def parse_document(payload: Mapping[str, Any]):
    """Build the typed document of a resolved config mapping.

    The mapping must carry ``kind`` (one of :data:`DOCUMENT_KINDS`); the
    rest is validated by that kind's schema.  Returns a
    :class:`RunDocument` / :class:`SweepDocument` / :class:`ServeDocument`.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind is None:
        raise UnknownKeyError(
            "config document is missing the 'kind' key "
            f"(one of {sorted(DOCUMENT_KINDS)})"
        )
    if kind not in DOCUMENT_KINDS:
        raise UnknownKeyError(
            f"unknown config kind {kind!r}"
            + suggest(str(kind), list(DOCUMENT_KINDS))
            + f"; known kinds: {sorted(DOCUMENT_KINDS)}"
        )
    return DOCUMENT_KINDS[kind].from_dict(data)


def document_to_dict(document: Any) -> Dict[str, Any]:
    """The canonical payload of a typed document, ``kind`` included."""
    for kind, schema in DOCUMENT_KINDS.items():
        if isinstance(document, schema.target):
            return {"kind": kind, **schema.to_dict(document)}
    raise TypeError(f"not a config document: {type(document).__name__}")
