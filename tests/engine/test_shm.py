"""Lifecycle and zero-copy semantics of the shared-memory arena.

Exercises the ownership contract (one creating owner unlinks, attachers
only close), the self-describing segment format (manifest re-read on
attach, publish-magic torn-read protection), read-only views, graceful
degradation when shared memory is unavailable, and the arena-backed
kernel-plan round trip that the serving shm transport rests on.
"""

import gc
import pickle

import numpy as np
import pytest

from repro.engine import shm as shm_module
from repro.engine.shm import (
    ArenaManifest,
    SharedArena,
    host_shared_arrays,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform has no POSIX shared memory"
)


@pytest.fixture
def sample_arrays():
    rng = np.random.default_rng(5)
    return {
        "alpha": rng.normal(size=(7, 3)),
        "beta": rng.integers(-100, 100, size=(2, 4, 5)).astype(np.int8),
        "gamma": np.array(3.5),
        "delta": rng.integers(0, 2, size=11).astype(bool),
    }


class TestRoundTrip:
    def test_create_then_view_preserves_values_dtypes_shapes(self, sample_arrays):
        with SharedArena.create(sample_arrays, meta={"tag": "x"}) as arena:
            for key, expected in sample_arrays.items():
                view = arena.view(key)
                assert view.dtype == expected.dtype
                assert view.shape == expected.shape
                np.testing.assert_array_equal(view, expected)
            assert arena.meta == {"tag": "x"}
            assert arena.owner
            del view

    def test_attach_by_manifest_and_by_name(self, sample_arrays):
        with SharedArena.create(sample_arrays) as arena:
            for source in (arena.manifest, arena.name):
                peer = SharedArena.attach(source)
                assert not peer.owner
                for key, expected in sample_arrays.items():
                    np.testing.assert_array_equal(peer.view(key), expected)
                peer.close()

    def test_manifest_pickles_and_reports_array_bytes(self, sample_arrays):
        with SharedArena.create(sample_arrays) as arena:
            manifest = pickle.loads(pickle.dumps(arena.manifest))
            assert isinstance(manifest, ArenaManifest)
            assert manifest.name == arena.name
            assert manifest.array_bytes == sum(
                np.ascontiguousarray(a).nbytes for a in sample_arrays.values()
            )

    def test_views_are_read_only_and_zero_copy(self, sample_arrays):
        with SharedArena.create(sample_arrays) as arena:
            view = arena.view("alpha")
            with pytest.raises(ValueError):
                view[0, 0] = 99.0
            peer = SharedArena.attach(arena.name)
            # Same physical pages: both processes' views agree bytewise.
            np.testing.assert_array_equal(peer.view("alpha"), view)
            del view
            peer.close()


class TestLifecycle:
    def test_close_is_idempotent(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        arena.unlink()
        arena.close()
        arena.close()
        assert arena.closed

    def test_view_after_close_raises(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        arena.unlink()
        arena.close()
        with pytest.raises(ValueError, match="closed"):
            arena.view("alpha")

    def test_close_refuses_while_views_alive(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        view = arena.view("alpha")
        with pytest.raises(BufferError):
            arena.close()
        del view
        gc.collect()
        arena.close()
        arena.unlink()

    def test_unlink_while_mapped_keeps_peers_working(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        peer = SharedArena.attach(arena.name)
        name = arena.name
        arena.unlink()  # owner removes the name while the peer is mapped
        np.testing.assert_array_equal(
            peer.view("alpha"), sample_arrays["alpha"]
        )
        with pytest.raises(FileNotFoundError):
            SharedArena.attach(name, timeout_s=0.0)
        peer.close()
        arena.close()

    def test_unlink_is_idempotent_even_cross_party(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        other = SharedArena.attach(arena.name)
        other._unlinked = False
        arena.unlink()
        other.unlink()  # name already gone: swallowed
        arena.unlink()
        other.close()
        arena.close()

    def test_create_on_taken_name_raises(self, sample_arrays):
        arena = SharedArena.create(sample_arrays)
        try:
            with pytest.raises(FileExistsError):
                SharedArena.create(sample_arrays, name=arena.name)
        finally:
            arena.close()
            arena.unlink()

    def test_unpublished_segment_times_out(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(TimeoutError, match="never published"):
                SharedArena.attach(raw.name, timeout_s=0.05)
        finally:
            raw.close()
            raw.unlink()


class TestHostSharedArrays:
    def test_create_then_attach_shares_one_copy(self, sample_arrays, tmp_path):
        tag = f"test-host-{tmp_path.name}"
        calls = []

        def loader():
            calls.append(1)
            return sample_arrays

        first, owner = host_shared_arrays(tag, loader)
        try:
            assert owner is not None and owner.owner
            second, peer = host_shared_arrays(tag, loader)
            assert peer is not None and not peer.owner
            assert calls == [1]  # the attacher never touched the loader
            for key in sample_arrays:
                np.testing.assert_array_equal(first[key], second[key])
            del first, second
            gc.collect()
            peer.close()
        finally:
            owner.close()
            owner.unlink()

    def test_loader_miss_publishes_nothing(self, tmp_path):
        arrays, arena = host_shared_arrays(
            f"test-miss-{tmp_path.name}", lambda: None
        )
        assert arrays is None and arena is None

    def test_no_shm_platform_falls_back_to_loader(self, sample_arrays, monkeypatch):
        monkeypatch.setattr(shm_module, "SHM_AVAILABLE", False)
        arrays, arena = host_shared_arrays("unused", lambda: sample_arrays)
        assert arena is None
        assert arrays is sample_arrays

    def test_unpublished_segment_falls_back_to_private_loader(
        self, sample_arrays, tmp_path
    ):
        from multiprocessing import shared_memory

        tag = f"test-torn-{tmp_path.name}"
        name = shm_module._segment_name(tag)
        raw = shared_memory.SharedMemory(create=True, size=4096, name=name)
        try:
            arrays, arena = host_shared_arrays(
                tag, lambda: sample_arrays, timeout_s=0.05
            )
            assert arena is None
            assert arrays is sample_arrays
        finally:
            raw.close()
            raw.unlink()


class TestKernelPlanThroughArena:
    def test_plan_applied_from_arena_is_bit_identical(self):
        from repro.core.macro import IMCMacroConfig
        from repro.devices.variation import DEFAULT_VARIATION
        from repro.engine.array_state import ArrayState
        from repro.engine.macro_engine import MacroEngine

        def fresh_engine():
            config = IMCMacroConfig(
                rows=64, banks=8, block_rows=32, adc_bits=5, weight_bits=8,
                variation=DEFAULT_VARIATION, seed=0,
            )
            engine = MacroEngine(
                ArrayState.build("curfe", config), adc_bits=5, weight_bits=8
            )
            engine.program_weights(weights)
            return engine

        rng = np.random.default_rng(11)
        weights = rng.integers(-128, 128, size=(64, 8))
        source = fresh_engine()
        plan = source.export_kernel_plan("fused")
        inputs = rng.integers(0, 16, size=(64, 6))
        with SharedArena.create(plan) as arena:
            target = fresh_engine()
            target.apply_kernel_plan("fused", arena.arrays())
            result = target.matmat(inputs, bits=4, method="fused")
            np.testing.assert_array_equal(
                result, source.matmat(inputs, bits=4, method="fused")
            )
            del target, result
            gc.collect()
