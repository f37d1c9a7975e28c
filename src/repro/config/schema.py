"""The shared configuration-schema protocol of every config surface.

A :class:`ConfigSchema` is a declarative description of one configuration
dataclass — an ordered list of typed :class:`FieldSpec` entries — from which
the three serialisation concerns every config needs are derived once:

* ``to_dict`` — a JSON-compatible snapshot whose key set and nesting are
  exactly the schema's field list (stable payloads, stable cache digests);
* ``from_dict`` — reconstruction with unknown-key rejection (including a
  did-you-mean suggestion), enum validation routed through the owning
  registry, and nested payload conversion;
* ``describe`` — a machine-readable field table the CLI and docs render.

The protocol replaces the three divergent hand-rolled ``to_dict`` /
``from_dict`` implementations that ``InferenceConfig``, ``SweepSpec`` and
``ServeConfig`` had grown: each now declares a schema next to its class and
delegates both methods to it, so YAML documents, worker-dispatch payloads
and cache keys all speak one format per config.

Enum fields take ``choices`` either as a sequence or as a zero-argument
callable returning one — the callable form reads a *registry* at validation
time (e.g. :data:`repro.chipsim.scenarios.SCENARIOS`), so scenarios
registered after import validate without the schema knowing about them.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

__all__ = [
    "REQUIRED",
    "ConfigError",
    "UnknownKeyError",
    "FieldSpec",
    "ConfigSchema",
    "suggest",
]


class ConfigError(ValueError):
    """A configuration document failed validation."""


class UnknownKeyError(ConfigError):
    """A mapping carried a key no field of the schema accepts."""


class _Required:
    """Sentinel: the field has no default and must appear in the payload."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "REQUIRED"


#: Marks a :class:`FieldSpec` without a default.
REQUIRED = _Required()


def suggest(name: str, candidates: Sequence[str]) -> str:
    """A did-you-mean suffix for *name* against *candidates* ('' if none)."""
    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=0.6)
    if not matches:
        return ""
    return f" (did you mean {matches[0]!r}?)"


@dataclass(frozen=True)
class FieldSpec:
    """One typed field of a :class:`ConfigSchema`.

    Attributes:
        name: Canonical key in payloads and attribute name on the target.
        default: Value when the key is absent; :data:`REQUIRED` makes the
            key mandatory.  (Used for documentation and requiredness only —
            the target dataclass's own default fills absent optional keys,
            so the two never drift apart.)
        choices: Allowed values — a sequence, or a zero-argument callable
            returning one (evaluated per validation, so registry-backed
            enums see late registrations).
        validate: Value validator; raise ``ValueError`` to reject.  Runs
            after ``from_payload`` (e.g.
            :func:`repro.engine.kernels.validate_device_exec`).
        to_payload: Converts the attribute value to its JSON form on dump.
        from_payload: Converts the JSON form back on load.
        doc: One-line description (CLI / README field tables).
    """

    name: str
    default: Any = REQUIRED
    choices: Optional[Any] = None
    validate: Optional[Callable[[Any], Any]] = None
    to_payload: Optional[Callable[[Any], Any]] = None
    from_payload: Optional[Callable[[Any], Any]] = None
    doc: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def choice_values(self) -> Optional[Tuple[Any, ...]]:
        """The allowed values right now (None when unconstrained)."""
        if self.choices is None:
            return None
        values = self.choices() if callable(self.choices) else self.choices
        return tuple(values)


class ConfigSchema:
    """The declarative schema of one configuration dataclass.

    Args:
        name: Human-readable schema name used in error messages
            (conventionally the target class name).
        target: The dataclass the schema loads into / dumps from.
        fields: Ordered field specifications; payload key order follows it.
    """

    def __init__(
        self, name: str, target: Type, fields: Sequence[FieldSpec]
    ) -> None:
        self.name = name
        self.target = target
        self.fields: Tuple[FieldSpec, ...] = tuple(fields)
        self._by_name: Dict[str, FieldSpec] = {}
        for spec in self.fields:
            if spec.name in self._by_name:
                raise ValueError(f"duplicate field {spec.name!r} in {name}")
            self._by_name[spec.name] = spec

    # ------------------------------------------------------------------ dump

    def to_dict(self, obj: Any) -> Dict[str, Any]:
        """The JSON-compatible snapshot of *obj* (every schema field)."""
        payload: Dict[str, Any] = {}
        for spec in self.fields:
            value = getattr(obj, spec.name)
            if spec.to_payload is not None:
                value = spec.to_payload(value)
            payload[spec.name] = value
        return payload

    # ------------------------------------------------------------------ load

    def from_dict(self, payload: Mapping[str, Any]) -> Any:
        """Build a validated *target* instance from a payload mapping.

        A key that names no field raises :class:`UnknownKeyError`, with a
        did-you-mean suggestion drawn from the field names.
        """
        for key in payload:
            if key not in self._by_name:
                raise UnknownKeyError(
                    f"unknown {self.name} key {key!r}"
                    + suggest(key, list(self._by_name))
                )
        kwargs: Dict[str, Any] = {}
        for spec in self.fields:
            if spec.name not in payload:
                if spec.required:
                    raise ConfigError(
                        f"{self.name} is missing required key {spec.name!r}"
                    )
                continue  # let the dataclass default apply
            value = payload[spec.name]
            if spec.from_payload is not None:
                value = spec.from_payload(value)
            choices = spec.choice_values()
            if choices is not None and value not in choices:
                raise ConfigError(
                    f"{self.name}.{spec.name} must be one of "
                    f"{tuple(choices)}, got {value!r}"
                    + (
                        suggest(value, [str(c) for c in choices])
                        if isinstance(value, str)
                        else ""
                    )
                )
            if spec.validate is not None:
                try:
                    spec.validate(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"{self.name}.{spec.name}: {exc}"
                    ) from exc
            kwargs[spec.name] = value
        return self.target(**kwargs)

    # ----------------------------------------------------------- description

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """A machine-readable field table (CLI ``validate`` / docs)."""
        table: Dict[str, Dict[str, Any]] = {}
        for spec in self.fields:
            row: Dict[str, Any] = {"doc": spec.doc}
            if spec.required:
                row["required"] = True
            else:
                row["default"] = spec.default
            choices = spec.choice_values()
            if choices is not None:
                row["choices"] = list(choices)
            table[spec.name] = row
        return table
