"""Declarative, layered configuration for every repro entry point.

Two layers compose:

* :mod:`repro.config.schema` — the :class:`ConfigSchema` protocol every
  config dataclass (``InferenceConfig``, ``SweepSpec``, ``ServeConfig``)
  declares: typed field specs, unknown-key rejection with did-you-mean
  suggestions, and enum validation routed through the owning registries.
* :mod:`repro.config.loader` — schema-agnostic YAML loading with
  ``extends`` overlay merging, ``${var}`` interpolation, and dotted
  ``--set key=value`` overrides.

Nothing is imported eagerly: the domain packages import
:mod:`repro.config.schema` for their config dataclasses, and every such
import runs this ``__init__`` first, so it must cost nothing.  The names
below load from their submodule on first access.

:mod:`repro.config.documents` binds the two: the top-level ``kind: run |
sweep | serve`` document schemas the ``python -m repro`` CLI consumes.  It
is not exported here, because it imports the domain packages; use
``from repro.config.documents import parse_document``.

## Naming convention (all config surfaces)

* Durations carry a ``_s`` suffix (``max_wait_s``, ``service_delay_s``).
* Energies carry ``_j``; byte sizes carry ``_bytes``.
* Counts are plural nouns (``replicas``, ``calibration_images``) or
  explicit budgets (``queue_depth``, ``max_batch``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".schema": (
        "REQUIRED",
        "ConfigError",
        "ConfigSchema",
        "FieldSpec",
        "UnknownKeyError",
        "suggest",
    ),
    ".loader": (
        "apply_overrides",
        "deep_merge",
        "dump_yaml",
        "interpolate",
        "load_config",
        "loads_config",
        "parse_override",
    ),
})
