"""Document-level round trips: YAML -> dataclass -> YAML idempotence."""

from pathlib import Path

import pytest

from repro.config import UnknownKeyError, load_config, loads_config
from repro.config.documents import (
    RunDocument,
    ServeDocument,
    SweepDocument,
    document_to_dict,
    parse_document,
)
from repro.serve.config import ServeConfig
from repro.sweep.spec import SweepSpec
from repro.system.inference import InferenceConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "configs"


class TestRoundTrips:
    @pytest.mark.parametrize(
        "document",
        [
            RunDocument(scenario="tiny_mlp"),
            RunDocument(
                scenario="small_cnn",
                inference=InferenceConfig(backend="device", adc_bits=4),
            ),
            SweepDocument(spec=SweepSpec(scenarios=("tiny_mlp",)), workers=2),
            ServeDocument(serve=ServeConfig(replicas=3, metrics_port=0)),
        ],
    )
    def test_document_payload_round_trips(self, document):
        payload = document_to_dict(document)
        assert parse_document(payload) == document
        # Idempotence: dumping the reparsed document changes nothing.
        assert document_to_dict(parse_document(payload)) == payload

    def test_yaml_text_round_trip_is_idempotent(self):
        from repro.config import dump_yaml

        document = parse_document(
            loads_config(
                "kind: run\nscenario: tiny_mlp\n"
                "inference: {backend: device, design: chgfe}\n"
            )
        )
        payload = document_to_dict(document)
        text = dump_yaml(payload)
        assert loads_config(text) == payload

    def test_serve_config_to_dict_parity(self):
        config = ServeConfig(replicas=2, event_log="x.jsonl")
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_non_document_raises(self):
        with pytest.raises(TypeError, match="not a config document"):
            document_to_dict(InferenceConfig())


class TestKindDispatch:
    def test_missing_kind_raises(self):
        with pytest.raises(UnknownKeyError, match="kind"):
            parse_document({"scenario": "tiny_mlp"})

    def test_unknown_kind_suggests(self):
        with pytest.raises(UnknownKeyError, match="did you mean 'serve'"):
            parse_document({"kind": "server"})

    def test_removed_bench_kind_is_unknown(self):
        with pytest.raises(
            UnknownKeyError,
            match=r"unknown config kind 'bench'; known kinds: \['run', 'serve', 'sweep'\]",
        ):
            parse_document({"kind": "bench", "requests": 16, "concurrencies": [1, 2]})

    def test_unknown_scenario_suggests(self):
        with pytest.raises(ValueError, match="tiny_mlp"):
            parse_document({"kind": "run", "scenario": "tiny_mpl"})

    def test_unknown_nested_key_names_the_section(self):
        with pytest.raises(UnknownKeyError, match="ServeConfig"):
            parse_document({"kind": "serve", "serve": {"replcias": 2}})


#: Document section -> (kind, the rest of a minimal document, the section's
#: required keys, its direct ``from_dict`` loader or None).
_SECTIONS = {
    "inference": ("run", {"scenario": "tiny_mlp"}, {}, InferenceConfig.from_dict),
    "workload": ("run", {"scenario": "tiny_mlp"}, {}, None),
    "spec": ("sweep", {}, {"scenarios": ["tiny_mlp"]}, SweepSpec.from_dict),
    "serve": ("serve", {}, {}, ServeConfig.from_dict),
}


class TestRemovedKeys:
    @pytest.mark.parametrize(
        "section, key, value, hint",
        [
            ("inference", "kernel", "turbo", None),
            ("inference", "tiling", "monolithic", None),
            ("inference", "tile_workers", 2, None),
            ("spec", "kernels", ["turbo"], None),
            ("spec", "tilings", ["tiled"], None),
            ("spec", "tile_workers", 2, None),
            ("serve", "kernel", "turbo", None),
            ("serve", "pool_mode", "thread", "pool"),
            ("serve", "max_wait", 0.5, "max_wait_s"),
            ("serve", "service_delay", 0.1, "service_delay_s"),
            ("serve", "transport", "pickle", "program_transport"),
            ("workload", "seed", 11, "data_seed"),
        ],
    )
    def test_removed_key_raises_unknown_key(self, section, key, value, hint):
        """Expired aliases and the layout knobs are unknown keys everywhere."""
        from repro.config import dump_yaml

        kind, rest, required, from_dict = _SECTIONS[section]
        body = {**required, key: value}
        text = dump_yaml({"kind": kind, **rest, section: body})
        loads = [lambda: parse_document(loads_config(text))]
        if from_dict is not None:
            loads.append(lambda: from_dict(body))
        for load in loads:
            with pytest.raises(UnknownKeyError, match=repr(key)) as info:
                load()
            if hint is None:
                assert "did you mean" not in str(info.value)
            else:
                assert f"did you mean {hint!r}" in str(info.value)


class TestExampleConfigs:
    """The shipped examples/configs/*.yaml must always validate."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("run.yaml", RunDocument),
            ("sweep.yaml", SweepDocument),
            ("serve.yaml", ServeDocument),
        ],
    )
    def test_example_parses(self, name, expected):
        document = parse_document(load_config(EXAMPLES / name))
        assert isinstance(document, expected)

    def test_example_vars_interpolate_from_base(self):
        document = parse_document(load_config(EXAMPLES / "run.yaml"))
        assert document.inference.design == "curfe"
        assert document.inference.adc_bits == 5

    def test_example_override_retargets_base_var(self):
        document = parse_document(
            load_config(
                EXAMPLES / "run.yaml", overrides=["vars.design=chgfe"]
            )
        )
        assert document.inference.design == "chgfe"
