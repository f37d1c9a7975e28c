"""The ConfigSchema protocol: typing, did-you-mean, registries."""

from dataclasses import dataclass
from typing import Optional

import pytest

from repro.config import (
    REQUIRED,
    ConfigError,
    ConfigSchema,
    FieldSpec,
    UnknownKeyError,
    suggest,
)


@dataclass(frozen=True)
class Sample:
    name: str
    mode: str = "fast"
    retries: int = 3
    limit: Optional[int] = None


_REGISTRY = ["fast", "slow", "turbo"]


def make_schema() -> ConfigSchema:
    return ConfigSchema(
        "Sample",
        Sample,
        [
            FieldSpec("name", doc="required identity"),
            FieldSpec("mode", "fast", choices=lambda: tuple(_REGISTRY)),
            FieldSpec("retries", 3),
            FieldSpec("limit", None),
        ],
    )


class TestToDict:
    def test_emits_every_field_in_schema_order(self):
        schema = make_schema()
        payload = schema.to_dict(Sample(name="a"))
        assert list(payload) == ["name", "mode", "retries", "limit"]

    def test_round_trips(self):
        schema = make_schema()
        obj = Sample(name="x", mode="slow", retries=1, limit=9)
        assert schema.from_dict(schema.to_dict(obj)) == obj


class TestFromDict:
    def test_missing_required_key_raises(self):
        with pytest.raises(ConfigError, match="name"):
            make_schema().from_dict({"mode": "fast"})

    def test_absent_optional_keys_use_dataclass_defaults(self):
        obj = make_schema().from_dict({"name": "a"})
        assert obj.retries == 3 and obj.limit is None

    def test_unknown_key_raises_with_suggestion(self):
        with pytest.raises(UnknownKeyError, match="did you mean 'retries'"):
            make_schema().from_dict({"name": "a", "retrys": 2})

    def test_unknown_key_without_close_match(self):
        with pytest.raises(UnknownKeyError, match="zzz"):
            make_schema().from_dict({"name": "a", "zzz": 2})

    def test_registry_choices_reflect_late_registration(self):
        schema = make_schema()
        with pytest.raises(ConfigError, match="mode"):
            schema.from_dict({"name": "a", "mode": "warp"})
        _REGISTRY.append("warp")
        try:
            assert schema.from_dict({"name": "a", "mode": "warp"}).mode == "warp"
        finally:
            _REGISTRY.remove("warp")

    def test_bad_choice_gets_did_you_mean(self):
        with pytest.raises(ConfigError, match="did you mean 'turbo'"):
            make_schema().from_dict({"name": "a", "mode": "turbos"})

    def test_validate_errors_are_wrapped_with_field_path(self):
        def reject(value):
            raise ValueError("nope")

        schema = ConfigSchema(
            "S", Sample, [FieldSpec("name", validate=reject)]
        )
        with pytest.raises(ConfigError, match="S.name: nope"):
            schema.from_dict({"name": "a"})

    def test_from_payload_converts_before_validation(self):
        schema = ConfigSchema(
            "S",
            Sample,
            [FieldSpec("name", from_payload=str.upper)],
        )
        assert schema.from_dict({"name": "abc"}).name == "ABC"


class TestSchemaConstruction:
    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSchema("S", Sample, [FieldSpec("name"), FieldSpec("name")])

    def test_describe_lists_defaults_and_choices(self):
        table = make_schema().describe()
        assert table["name"]["required"] is True
        assert table["mode"]["default"] == "fast"
        assert "turbo" in table["mode"]["choices"]


class TestSuggest:
    def test_close_match(self):
        assert "scenario" in suggest("scenari", ["scenario", "backend"])

    def test_no_match_is_empty(self):
        assert suggest("qqq", ["scenario", "backend"]) == ""
