"""The content-addressed cache and the ArrayState restore round trip."""

import gc
import warnings

import numpy as np
import pytest

from repro.chipsim.tiling import TiledLayerEngine
from repro.devices.variation import DEFAULT_VARIATION
from repro.sweep import SweepCache, arrays_from_state, restore_state
from repro.obs.metrics import REGISTRY
from repro.sweep import cache
from repro.sweep.cache import calibration_key, programming_key
from repro.system.inference import InferenceConfig


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


#: Ways an entry can be damaged on disk after an atomic write.
DAMAGE = {
    "truncated": _truncate,
    "empty": lambda path: path.write_bytes(b""),
    "garbage": lambda path: path.write_bytes(b"not an npz archive\n" * 8),
}


class _Events:
    """An in-memory event sink."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))


class TestSweepCacheStore:
    def test_get_missing_counts_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        assert cache.get("programming", "deadbeef") is None
        assert cache.misses["programming"] == 1
        assert cache.hits["programming"] == 0

    def test_put_get_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2, 3])}
        cache.put("model", "k1", arrays)
        loaded = cache.get("model", "k1")
        assert cache.hits["model"] == 1
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_layered_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path)
        layers = {
            "conv1": {"high": np.ones(3), "low": np.zeros(3)},
            "fc1": {"high": np.full(2, 5.0)},
        }
        cache.put_layered("calibration", "k2", layers)
        loaded = cache.get_layered("calibration", "k2")
        assert set(loaded) == {"conv1", "fc1"}
        np.testing.assert_array_equal(loaded["conv1"]["low"], np.zeros(3))
        np.testing.assert_array_equal(loaded["fc1"]["high"], np.full(2, 5.0))

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            SweepCache(tmp_path).get("nope", "k")

    def test_no_partial_entries_on_disk(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put("model", "k", {"a": np.zeros(2)})
        leftovers = [p.name for p in (tmp_path / "model").iterdir()]
        assert leftovers == ["k.npz"]


class TestTornEntries:
    """A damaged entry is a counted miss, moved aside, never an exception."""

    @pytest.mark.parametrize("shm", ["shm", "no_shm"])
    @pytest.mark.parametrize("getter", ["get", "get_layered", "get_layered_shared"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_counted_miss(
        self, tmp_path, monkeypatch, damage, getter, shm
    ):
        if shm == "no_shm":
            monkeypatch.setattr("repro.sweep.cache.shm_available", lambda: False)
        events = _Events()
        cache = SweepCache(tmp_path, events=events)
        layers = {"fc1": {"high": np.arange(40.0), "low": np.ones(3)}}
        cache.put_layered("calibration", "k", layers)
        entry = tmp_path / "calibration" / "k.npz"
        DAMAGE[damage](entry)
        events_total = REGISTRY.get("repro_sweep_cache_events_total")
        corrupt_before = events_total.value(kind="calibration", outcome="corrupt")

        assert getattr(cache, getter)("calibration", "k") is None
        assert cache.stats()["misses"]["calibration"] == 1
        assert cache.stats()["hits"]["calibration"] == 0
        assert (
            events_total.value(kind="calibration", outcome="corrupt")
            == corrupt_before + 1
        )
        assert [name for name, _ in events.events] == ["cache_corrupt", "cache_miss"]
        assert events.events[0][1]["key"] == "k"
        assert not entry.exists()
        assert (tmp_path / "calibration" / "k.npz.corrupt").exists()

        # The caller recomputes and rewrites; the next lookup hits.
        cache.put_layered("calibration", "k", layers)
        loaded = cache.get_layered("calibration", "k")
        np.testing.assert_array_equal(loaded["fc1"]["high"], np.arange(40.0))

    def test_entry_moved_aside_by_a_racing_reader(self, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        cache.put("model", "k", {"a": np.zeros(2)})
        _truncate(tmp_path / "model" / "k.npz")

        def moved_already(src, dst):
            raise FileNotFoundError(src)

        monkeypatch.setattr("repro.sweep.cache.os.replace", moved_already)
        assert cache.get("model", "k") is None
        assert cache.misses["model"] == 1

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_leaves_no_open_file(self, tmp_path, damage):
        """Reading a damaged entry closes its file, even when the archive
        parser fails after taking the handle."""
        cache = SweepCache(tmp_path)
        cache.put("model", "k", {"a": np.zeros(2)})
        DAMAGE[damage](tmp_path / "model" / "k.npz")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cache.get("model", "k") is None
            gc.collect()
        assert [str(w.message) for w in caught] == []


class TestCacheKeys:
    def test_programming_key_ignores_adc_and_calibration(self):
        base = InferenceConfig(backend="device", adc_bits=5, calibration="workload")
        variant = InferenceConfig(backend="device", adc_bits=4, calibration="nominal")
        assert programming_key(base, "w") == programming_key(variant, "w")

    def test_programming_key_ignores_exec(self):
        fused = InferenceConfig(backend="device", device_exec="fused")
        exact = InferenceConfig(backend="device", device_exec="exact")
        assert programming_key(fused, "w") == programming_key(exact, "w")

    def test_programming_key_tracks_the_cell_solver(self, monkeypatch):
        config = InferenceConfig(backend="device")
        before = programming_key(config, "w")
        monkeypatch.setattr(cache, "SOLVER_REVISION", "another-solver")
        assert programming_key(config, "w") != before

    def test_programming_key_tracks_design_seed_weights(self):
        base = InferenceConfig(backend="device")
        assert programming_key(base, "w1") != programming_key(base, "w2")
        assert programming_key(base, "w") != programming_key(
            InferenceConfig(backend="device", design="chgfe"), "w"
        )
        assert programming_key(base, "w") != programming_key(
            InferenceConfig(backend="device", seed=1), "w"
        )

    def test_calibration_key_tracks_adc_and_workload(self):
        config = InferenceConfig(backend="device")
        assert calibration_key(config, "w", "d", 8) != calibration_key(
            InferenceConfig(backend="device", adc_bits=4), "w", "d", 8
        )
        assert calibration_key(config, "w", "d1", 8) != calibration_key(
            config, "w", "d2", 8
        )
        assert calibration_key(config, "w", "d", 8) != calibration_key(
            config, "w", "d", 4
        )

    def test_key_digests_are_pinned(self):
        """Existing cache directories stay valid: the digests never drift.

        A programming key also names the cell solver (``SOLVER_REVISION``),
        so it moves only with a solver whose tables differ: it moved from
        ``b23746c1…`` when a Newton solve replaced the bisection.
        """
        config = InferenceConfig(backend="device", device_exec="fast")
        assert programming_key(config, "w") == (
            "1ec6ea925179b27e38ba8a0509445198649b8630b3232b16c232bc287efadb2c"
        )
        assert calibration_key(config, "w", "d", 8) == (
            "5d9311efeef2e7ccbcf39a400828852d6c9e875be1d6ac3e10a5586d3055087a"
        )
        # The default kernel (fused) keys its own calibration entries.
        assert calibration_key(InferenceConfig(backend="device"), "w", "d", 8) == (
            "0509cbbde1b53a17090b81d00fc59618e97f1b8267c991df574e018819ec24cb"
        )


class TestArrayStateRestore:
    def test_restored_engine_is_bit_identical(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(-127, 128, size=(40, 5))
        built = TiledLayerEngine(
            weights, design="curfe", variation=DEFAULT_VARIATION, seed=9
        )
        arrays = arrays_from_state(built.array_state)
        restored_state = restore_state("curfe", arrays)
        restored = TiledLayerEngine(
            weights, design="curfe", variation=DEFAULT_VARIATION, seed=9,
            state=restored_state,
        )
        inputs = rng.integers(0, 16, size=(40, 3))
        np.testing.assert_array_equal(
            built.matmat(inputs, bits=4), restored.matmat(inputs, bits=4)
        )

    def test_restored_chgfe_state_keeps_capacitances(self):
        rng = np.random.default_rng(4)
        weights = rng.integers(-127, 128, size=(32, 4))
        built = TiledLayerEngine(
            weights, design="chgfe", variation=DEFAULT_VARIATION, seed=2
        )
        arrays = arrays_from_state(built.array_state)
        restored = restore_state("chgfe", arrays)
        np.testing.assert_array_equal(
            restored.high.capacitance, built.array_state.high.capacitance
        )
        np.testing.assert_array_equal(
            restored.high.capacitance_total,
            built.array_state.high.capacitance_total,
        )

    def test_mismatched_state_raises(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(-127, 128, size=(40, 5))
        built = TiledLayerEngine(weights, design="curfe", seed=0)
        with pytest.raises(ValueError, match="does not match"):
            TiledLayerEngine(
                rng.integers(-127, 128, size=(80, 5)),
                design="curfe",
                state=built.array_state,
            )
