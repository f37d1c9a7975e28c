"""Structured JSONL event logging with bounded rotation and replay.

Every notable state transition of the serving runtime and the sweep runner
emits one JSON line — request admitted / rejected / served, batch
dispatched, cache hit / miss, worker start / stop, program swap — through
an :class:`EventLog`: a thread-safe, size-bounded rotating writer.  The
file format is deliberately trivial (one JSON object per line, every
object carrying a monotonically increasing ``seq`` and a wall-clock
``ts``), so a postmortem needs nothing beyond :func:`read_events`, which
merges the rotated generations back into one ordered stream.

The rotation and generation-merging machinery itself lives in
:mod:`repro.obs.jsonl` (:class:`~repro.obs.jsonl.JsonlWriter` /
:func:`~repro.obs.jsonl.read_jsonl`) and is shared with the ``repro.obs``
span log; this module owns only the event semantics — the ``seq`` / ``ts``
stamps and the seq-ordered replay.

A :class:`NullEventLog` shares the interface and does nothing, so call
sites never branch on "is logging enabled".
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs.jsonl import JsonlWriter, read_jsonl

__all__ = [
    "EVENT_TYPES",
    "EventLog",
    "NullEventLog",
    "read_events",
    "tail_events",
]

#: The event vocabulary (informative, not enforced — forward compatible).
EVENT_TYPES = (
    "runtime_start",
    "runtime_stop",
    "worker_start",
    "worker_stop",
    "request_admitted",
    "request_rejected",
    "request_served",
    "request_failed",
    "batch_dispatched",
    "program_swap",
    "cache_hit",
    "cache_miss",
    "cache_corrupt",
    "sweep_start",
    "job_finished",
    "sweep_finish",
)


class NullEventLog:
    """The disabled event sink: same interface, no I/O."""

    path: Optional[Path] = None
    enabled = False

    def emit(self, event: str, **fields: Any) -> None:
        """Discard the event."""

    def close(self) -> None:
        """No-op."""

    def __enter__(self) -> "NullEventLog":
        return self

    def __exit__(self, *exc) -> None:
        pass


class EventLog(NullEventLog):
    """A bounded, rotating JSONL event writer (thread-safe).

    Args:
        path: The live log file; rotated generations live next to it as
            ``path.1`` … ``path.N``.
        max_bytes: Rotation threshold — a write that would push the live
            file past it rotates first.
        backups: Rotated generations kept; the oldest is dropped.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        max_bytes: int = 1_000_000,
        backups: int = 3,
    ) -> None:
        self._writer = JsonlWriter(path, max_bytes=max_bytes, backups=backups)
        self.path = self._writer.path
        self.max_bytes = self._writer.max_bytes
        self.backups = self._writer.backups
        self._lock = threading.Lock()
        #: Next sequence number; continues past generations already on disk
        #: so a re-opened log never reuses a seq.
        self._seq = self._resume_seq()

    def _resume_seq(self) -> int:
        last = -1
        for event in read_events(self.path):
            last = max(last, int(event.get("seq", -1)))
        return last + 1

    # ------------------------------------------------------------------ write

    def emit(self, event: str, **fields: Any) -> None:
        """Append one event line ``{"seq", "ts", "event", **fields}``."""
        record: Dict[str, Any] = {"seq": None, "ts": None, "event": event}
        record.update(fields)
        with self._lock:
            record["seq"] = self._seq
            record["ts"] = round(time.time(), 6)
            self._seq += 1
            self._writer.write(record)

    def close(self) -> None:
        """Flush and close the live file (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_event_log(
    path: Optional[Union[str, os.PathLike]],
    *,
    max_bytes: int = 1_000_000,
    backups: int = 3,
) -> NullEventLog:
    """An :class:`EventLog` at *path*, or a :class:`NullEventLog` for None."""
    if path is None:
        return NullEventLog()
    return EventLog(path, max_bytes=max_bytes, backups=backups)


__all__.append("open_event_log")


# --------------------------------------------------------------------- replay


def read_events(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Replay an event log: rotated generations + live file, ordered by seq.

    The result is the full retained history (oldest first).  A half-written
    final line of the live file is tolerated; corruption anywhere else
    raises.  A missing live file yields whatever generations exist.
    """
    events = read_jsonl(path)
    events.sort(key=lambda event: event.get("seq", 0))
    return events


def tail_events(
    path: Union[str, os.PathLike], n: int = 10
) -> List[Dict[str, Any]]:
    """The last *n* retained events (replay convenience)."""
    events = read_events(path)
    return events[-n:]
