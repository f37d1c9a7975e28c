"""Declarative, layered configuration for every repro entry point.

Two layers compose:

* :mod:`repro.config.schema` — the :class:`ConfigSchema` protocol every
  config dataclass (``InferenceConfig``, ``SweepSpec``, ``ServeConfig``)
  declares: typed field specs, unknown-key rejection with did-you-mean
  suggestions, and enum validation routed through the owning registries.
* :mod:`repro.config.loader` — schema-agnostic YAML loading with
  ``extends`` overlay merging, ``${var}`` interpolation, and dotted
  ``--set key=value`` overrides.

:mod:`repro.config.documents` binds the two: the top-level ``kind: run |
sweep | serve`` document schemas the ``python -m repro`` CLI
consumes.  It is intentionally *not* imported here — documents imports the
domain packages (which themselves import this package for their schemas),
so the eager import would be circular.  Use
``from repro.config.documents import parse_document``.

## Naming convention (all config surfaces)

* Durations carry a ``_s`` suffix (``max_wait_s``, ``service_delay_s``).
* Energies carry ``_j``; byte sizes carry ``_bytes``.
* Counts are plural nouns (``replicas``, ``calibration_images``) or
  explicit budgets (``queue_depth``, ``max_batch``).
"""

from .loader import (
    apply_overrides,
    deep_merge,
    dump_yaml,
    interpolate,
    load_config,
    loads_config,
    parse_override,
)
from .schema import (
    REQUIRED,
    ConfigError,
    ConfigSchema,
    FieldSpec,
    UnknownKeyError,
    suggest,
)

__all__ = [
    "REQUIRED",
    "ConfigError",
    "ConfigSchema",
    "FieldSpec",
    "UnknownKeyError",
    "suggest",
    "apply_overrides",
    "deep_merge",
    "dump_yaml",
    "interpolate",
    "load_config",
    "loads_config",
    "parse_override",
]
