"""Zero-copy shared-memory arenas for immutable chip-program tensors.

A :class:`SharedArena` packs a set of named numpy arrays into **one**
``multiprocessing.shared_memory`` segment.  The segment is self-describing:

``RPRA1\\n`` magic ─ uint64 little-endian JSON length ─ JSON manifest ─
64-byte-aligned contiguous array payloads.

The JSON manifest maps each array name to its payload-relative offset,
dtype (``np.dtype.str``) and shape, plus an arbitrary JSON ``meta`` dict.
Because the manifest lives *inside* the segment, a peer process can attach
with nothing but the segment name; the picklable :class:`ArenaManifest` is
a convenience so a pool initializer receives everything in one object.

Arrays mapped from an arena are exposed as **read-only** zero-copy views —
N attached processes share one physical copy of the tensors.  Ownership is
explicit: exactly one :class:`SharedArena` is the *owner* (created it) and
is responsible for :meth:`SharedArena.unlink`; everyone calls
:meth:`SharedArena.close`.  Both are idempotent.

Python 3.11 note: ``SharedMemory`` has no ``track=`` parameter, and every
attach registers the segment with the ``resource_tracker`` — which would
*unlink the segment when the attaching process exits*.  Attaches therefore
suppress the registration (see :func:`_attach_untracked`); only the owner
stays tracked, so abnormal owner exits still reclaim the segment.

When the platform has no POSIX shared memory, ``shm_available()`` is False
and every entry point degrades to the private-copy path (callers fall back
to pickled payloads).
"""

from __future__ import annotations

import errno
import hashlib
import json
import struct
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs.metrics import REGISTRY

from multiprocessing import util as mp_util

try:  # pragma: no cover - import failure exercised via monkeypatching
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except (ImportError, OSError):  # pragma: no cover - platform without shm
    resource_tracker = None
    shared_memory = None
    SHM_AVAILABLE = False

__all__ = [
    "SHM_AVAILABLE",
    "shm_available",
    "ArenaManifest",
    "SharedArena",
    "host_shared_arrays",
]

#: Segment header magic; written *last* during creation so a concurrent
#: attacher never parses a half-written manifest (torn-read protection).
_MAGIC = b"RPRA1\n"

#: Payload alignment (bytes) — cache-line aligned array starts.
_ALIGN = 64

#: How long an attacher polls for the creator to finish publishing.
_PUBLISH_TIMEOUT_S = 5.0

#: Arena lifecycle events per mode (create / attach), registered at import
#: so the family appears on every /metrics scrape.
_ARENA_EVENTS = REGISTRY.counter(
    "repro_shm_arena_events_total",
    "Shared-memory arena segment events by mode (create/attach)",
)


def shm_available() -> bool:
    """True when POSIX shared memory is usable on this platform."""
    return SHM_AVAILABLE


def _align_up(value: int, align: int = _ALIGN) -> int:
    return (value + align - 1) // align * align


#: Serialises the register-suppressing attach (the suppression swaps a
#: module-level function, which is process-global state).
_ATTACH_LOCK = threading.Lock()


def _attach_untracked(name: str):
    """Open an existing segment without resource-tracker registration.

    Attachers must not own the segment's lifetime: on 3.11 every
    ``SharedMemory(name=...)`` attach registers with the resource tracker,
    which would unlink the arena when the *attaching* process exits — and,
    under fork (where all processes share one tracker), unregistering after
    the fact would erase the owner's registration too.  Suppressing the
    registration during attach leaves exactly one tracked owner.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ArenaManifest:
    """Picklable description of one shared arena.

    Attributes:
        name: Shared-memory segment name (attach key).
        size: Total segment size in bytes.
        entries: Array name → ``(payload-relative offset, dtype str, shape)``.
        meta: JSON-safe metadata stored alongside the arrays.
    """

    name: str
    size: int
    entries: Dict[str, Tuple[int, str, Tuple[int, ...]]]
    meta: Dict = field(default_factory=dict)

    @property
    def array_bytes(self) -> int:
        """Bytes occupied by array payloads (excludes header/manifest)."""
        return sum(
            int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
            for _, dtype, shape in self.entries.values()
        )


class SharedArena:
    """One shared-memory segment holding named immutable numpy arrays.

    Use :meth:`create` (owner) or :meth:`attach` (peer); the constructor
    itself just records the pieces.  Views handed out by :meth:`view` /
    :meth:`arrays` are read-only and alias the segment directly — keep the
    arena (or the views) alive while engines compute on them, and drop all
    views before :meth:`close` (a mapped buffer cannot be released while
    exports exist).
    """

    def __init__(self, shm, manifest: ArenaManifest, *, owner: bool) -> None:
        self._shm = shm
        self._manifest = manifest
        self._owner = bool(owner)
        self._closed = False
        self._unlinked = False
        # Weak references to every view handed out.  SharedMemory.close()
        # unmaps unconditionally (neither it nor memoryview.release()
        # notices numpy consumers), so a close with live views would be a
        # silent use-after-unmap; the arena tracks and refuses instead.
        self._views: list = []

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return self._manifest.name

    @property
    def size(self) -> int:
        return self._manifest.size

    @property
    def manifest(self) -> ArenaManifest:
        return self._manifest

    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    # -------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        *,
        meta: Optional[Mapping] = None,
        name: Optional[str] = None,
    ) -> "SharedArena":
        """Pack *arrays* into a fresh segment and return the owning arena.

        Raises ``RuntimeError`` when shared memory is unavailable and
        ``FileExistsError`` when *name* is taken (attach instead).
        """
        if not shm_available():
            raise RuntimeError("shared memory is not available on this platform")
        entries: Dict[str, Tuple[int, str, Tuple[int, ...]]] = {}
        prepared = []
        offset = 0
        for key in sorted(arrays):
            array = np.asarray(arrays[key])
            if not array.flags.c_contiguous:
                # Not ascontiguousarray unconditionally: it promotes 0-d
                # scalars to shape (1,), corrupting the manifest shape.
                array = np.ascontiguousarray(array)
            offset = _align_up(offset)
            entries[key] = (offset, array.dtype.str, tuple(array.shape))
            prepared.append((offset, array))
            offset += array.nbytes
        manifest_dict = {
            "entries": {
                key: [off, dtype, list(shape)]
                for key, (off, dtype, shape) in entries.items()
            },
            "meta": dict(meta or {}),
        }
        encoded = json.dumps(manifest_dict, sort_keys=True).encode("utf-8")
        payload_base = _align_up(len(_MAGIC) + 8 + len(encoded))
        size = max(1, payload_base + offset)
        shm = shared_memory.SharedMemory(create=True, size=size, name=name)
        try:
            buf = shm.buf
            struct.pack_into("<Q", buf, len(_MAGIC), len(encoded))
            buf[len(_MAGIC) + 8 : len(_MAGIC) + 8 + len(encoded)] = encoded
            for rel, array in prepared:
                dest = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=buf,
                    offset=payload_base + rel,
                )
                dest[...] = array
                del dest
            # Publish: the magic goes in last, so attach-by-name either sees
            # a complete manifest or no magic at all.
            buf[: len(_MAGIC)] = _MAGIC
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        manifest = ArenaManifest(
            name=shm.name,
            size=size,
            entries=entries,
            meta=dict(meta or {}),
        )
        _ARENA_EVENTS.inc(mode="create")
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(
        cls,
        source: Union[ArenaManifest, str],
        *,
        timeout_s: float = _PUBLISH_TIMEOUT_S,
    ) -> "SharedArena":
        """Map an existing arena by :class:`ArenaManifest` or segment name.

        The manifest is always re-read from the segment (it is the single
        source of truth); when attaching by bare name while the creator is
        still publishing, the magic is polled for up to *timeout_s* before
        giving up with ``TimeoutError``.
        """
        if not shm_available():
            raise RuntimeError("shared memory is not available on this platform")
        name = source.name if isinstance(source, ArenaManifest) else str(source)
        shm = _attach_untracked(name)
        try:
            manifest = cls._read_manifest(shm, timeout_s=timeout_s)
        except BaseException:
            shm.close()
            raise
        _ARENA_EVENTS.inc(mode="attach")
        return cls(shm, manifest, owner=False)

    @staticmethod
    def _read_manifest(shm, *, timeout_s: float = 0.0) -> ArenaManifest:
        """Parse the in-segment manifest, waiting for the publish magic."""
        deadline = time.monotonic() + max(0.0, timeout_s)
        while bytes(shm.buf[: len(_MAGIC)]) != _MAGIC:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"shared arena {shm.name!r} was never published "
                    "(missing magic header)"
                )
            time.sleep(0.001)
        (json_len,) = struct.unpack_from("<Q", shm.buf, len(_MAGIC))
        start = len(_MAGIC) + 8
        manifest_dict = json.loads(bytes(shm.buf[start : start + json_len]))
        entries = {
            key: (int(off), str(dtype), tuple(int(dim) for dim in shape))
            for key, (off, dtype, shape) in manifest_dict["entries"].items()
        }
        return ArenaManifest(
            name=shm.name,
            size=shm.size,
            entries=entries,
            meta=manifest_dict.get("meta", {}),
        )

    # ----------------------------------------------------------------- access

    @property
    def _payload_base(self) -> int:
        (json_len,) = struct.unpack_from("<Q", self._shm.buf, len(_MAGIC))
        return _align_up(len(_MAGIC) + 8 + int(json_len))

    def keys(self):
        return self._manifest.entries.keys()

    def view(self, key: str) -> np.ndarray:
        """A read-only zero-copy view of one array in the segment."""
        if self._closed:
            raise ValueError(f"arena {self.name!r} is closed")
        offset, dtype, shape = self._manifest.entries[key]
        array = np.ndarray(
            shape,
            dtype=np.dtype(dtype),
            buffer=self._shm.buf,
            offset=self._payload_base + offset,
        )
        array.flags.writeable = False
        self._views.append(weakref.ref(array))
        return array

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only views of every array, keyed by name."""
        return {key: self.view(key) for key in self.keys()}

    @property
    def meta(self) -> Dict:
        return self._manifest.meta

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release this process's mapping.  Idempotent.

        Raises ``BufferError`` while views handed out by :meth:`view` /
        :meth:`arrays` (or arrays derived from them — a derived array
        keeps its parent alive) are still alive: drop the views first.
        Closing under them would unmap memory they still address.
        """
        if self._closed:
            return
        self._views = [ref for ref in self._views if ref() is not None]
        if self._views:
            raise BufferError(
                f"cannot close arena {self.name!r}: {len(self._views)} "
                "array view(s) still alive"
            )
        self._shm.close()
        self._closed = True

    def unlink(self) -> None:
        """Remove the segment name (owner's duty).  Idempotent.

        Mapped peers keep working until they close; new attaches fail with
        ``FileNotFoundError`` afterwards.  Safe to call even when another
        party already unlinked the name.
        """
        if self._unlinked:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except OSError as error:  # pragma: no cover - platform variants
            if error.errno != errno.ENOENT:
                raise
        self._unlinked = True

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        role = "owner" if self._owner else "peer"
        return (
            f"SharedArena(name={self.name!r}, {role}, "
            f"{len(self._manifest.entries)} arrays, {self.size} B)"
        )


def _segment_name(tag: str) -> str:
    """A valid, collision-resistant shm name for a content tag."""
    digest = hashlib.sha256(tag.encode("utf-8")).hexdigest()[:16]
    return f"rpr-{digest}"


def host_shared_arrays(
    tag: str,
    loader: Callable[[], Optional[Mapping[str, np.ndarray]]],
    *,
    meta: Optional[Mapping] = None,
    timeout_s: float = _PUBLISH_TIMEOUT_S,
) -> Tuple[Optional[Dict[str, np.ndarray]], Optional[SharedArena]]:
    """Attach to — or create and publish — the arena identified by *tag*.

    The first caller on the host runs ``loader()`` and publishes its arrays
    under a name derived from *tag*; every later caller (any process) maps
    them zero-copy without touching the loader.  Returns ``(arrays, arena)``
    where *arrays* are the shared read-only views; keep *arena* referenced
    for as long as the arrays are in use.

    Degrades gracefully: without shared memory the loader result is
    returned privately (``arena`` is None); a ``loader()`` returning None
    (cache miss) publishes nothing and returns ``(None, None)``; a segment
    that is never published (creator died mid-write) falls back to a
    private ``loader()`` call after *timeout_s*.
    """
    if not shm_available():
        return loader(), None
    name = _segment_name(tag)
    for _ in range(2):
        try:
            arena = SharedArena.attach(name, timeout_s=timeout_s)
        except FileNotFoundError:
            pass
        except TimeoutError:
            return loader(), None
        else:
            return arena.arrays(), arena
        arrays = loader()
        if arrays is None:
            return None, None
        try:
            arena = SharedArena.create(arrays, meta=meta, name=name)
        except FileExistsError:
            continue  # lost the creation race — attach to the winner's copy
        # Unlike atexit, a multiprocessing finalizer also runs when a
        # process-pool worker exits, so worker-created arenas do not leak.
        mp_util.Finalize(None, arena.unlink, exitpriority=0)
        return arena.arrays(), arena
    return loader(), None  # pragma: no cover - repeated create/attach races
