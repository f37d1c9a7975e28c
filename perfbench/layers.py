"""Outside-in layer timing for the traced benchmark run.

The benchmark does not use the program's own tracer: it wraps the public
functions of each layer from outside, records one span per call in memory,
and derives the per-layer rollup from those spans when the run ends.  The
wrapping patches the class attributes and module-level names that callers
resolve, so ``from x import f`` aliases are covered too, and every patch is
undone by :meth:`LayerTracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, layer metric stem).  Entries that share a stem
#: add up; a call nested in another call of the same stem counts once.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cells.curfe_cell", "characterise_curfe_group", "cells.characterise"),
    ("repro.cells.chgfe_cell", "characterise_chgfe_group", "cells.characterise"),
    ("repro.engine.array_state", "ArrayState.build", "engine.array_state_build"),
    ("repro.engine.macro_engine", "MacroEngine.calibrate_references", "engine.calibrate"),
    ("repro.chipsim.tiling", "TiledLayerEngine.calibrate_references", "engine.calibrate"),
    ("repro.quant.calibration", "lloyd_max_levels", "quant.lloyd_max"),
    ("repro.engine.macro_engine", "MacroEngine.precompile", "engine.precompile"),
    ("repro.engine.macro_engine", "MacroEngine.matmat", "engine.matmat"),
    ("repro.engine.macro_engine", "MacroEngine.matmat_blocks", "engine.matmat"),
    ("repro.chipsim.tiling", "TiledLayerEngine.matmat", "chipsim.layer_matmat"),
    ("repro.chipsim.simulator", "ChipSimulator.run", "chipsim.run"),
    ("repro.chipsim.simulator", "ChipSimulator.layer_activities", "chipsim.evaluate"),
    ("repro.system.performance", "SystemPerformanceModel.evaluate_activities", "chipsim.evaluate"),
    ("repro.system.inference", "QuantizedInferenceEngine.predict", "system.predict"),
    ("repro.serve.program", "ChipProgram.build", "serve.program_build"),
    ("repro.serve.program", "ChipProgram.instantiate", "serve.instantiate"),
    ("repro.serve.program", "WarmChip.predict", "serve.replica"),
    ("repro.sweep.cache", "SweepCache.get", "sweep.cache_get"),
    ("repro.sweep.cache", "SweepCache.get_layered", "sweep.cache_get"),
    ("repro.sweep.cache", "SweepCache.get_layered_shared", "sweep.cache_get"),
    ("repro.sweep.cache", "SweepCache.put", "sweep.cache_put"),
    ("repro.sweep.cache", "SweepCache.put_layered", "sweep.cache_put"),
)

#: Stems reported as ``<stem>_s`` (outermost inclusive time).
TIMED_STEMS = (
    "cells.characterise",
    "engine.array_state_build",
    "engine.calibrate",
    "quant.lloyd_max",
    "engine.precompile",
    "engine.matmat",
    "chipsim.layer_matmat",
    "chipsim.evaluate",
    "system.predict",
    "serve.program_build",
    "serve.instantiate",
    "sweep.cache_get",
    "sweep.cache_put",
)

#: Stems whose outermost call count is reported as ``<stem>_calls``.
COUNTED_STEMS = ("cells.characterise", "engine.matmat", "serve.instantiate")


class LayerTracer:
    """Records a span around every call into the :data:`TARGETS`.

    Spans live in memory as ``(id, parent, stem, start, end, thread)``
    tuples; the parent is the innermost open span on the same thread.
    ``ChipSimulator.run`` calls also record ``(start, tiles executed)``.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], str, float, float, int]] = []
        self.tiles: List[Tuple[float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- patching

    def _wrap(self, func: Callable, stem: str) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        record_tiles = stem == "chipsim.run"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, stem, start, end, threading.get_ident())
                )
            if record_tiles:
                self.tiles.append((start, int(result.tiles_executed)))
            return result

        return wrapper

    def _set(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "LayerTracer":
        """Patch every target; call :meth:`uninstall` to restore them."""
        for module_name, path, stem in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(raw.__func__, stem)))
                else:
                    self._set(owner, attr, self._wrap(raw, stem))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, stem)
            # Rebind every module-level alias callers resolve at call time.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, name, wrapped)
        return self

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # --------------------------------------------------------------- output

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "parent", "stem", "start_s", "end_s", "thread")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item[3]):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def rollup(self, window: Tuple[float, float]) -> Dict[str, float]:
        """Per-layer totals plus the unattributed share of ``window``.

        Only calls that start inside ``window`` count, so the output checks
        a workload runs after its measured window are left out.  A layer's
        time is the inclusive time of its outermost calls (a call nested in
        another call of the same stem is not counted twice).  A stem that was
        never called is absent from the result.  ``system.digital_s`` is the
        self time of ``QuantizedInferenceEngine.predict``: its duration minus
        the wrapped calls it made on its own thread (layer matmats,
        calibration).
        """
        lo, hi = window
        spans = [span for span in self.spans if lo <= span[3] < hi]
        by_id = {span[0]: span for span in spans}
        children = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                children[span[1]] += span[4] - span[3]

        def nested_in_same_stem(span) -> bool:
            parent = span[1]
            while parent is not None and parent in by_id:
                if by_id[parent][2] == span[2]:
                    return True
                parent = by_id[parent][1]
            return False

        totals = defaultdict(float)
        calls = defaultdict(int)
        digital = 0.0
        for span in spans:
            if span[2] == "system.predict":
                digital += (span[4] - span[3]) - children[span[0]]
            if nested_in_same_stem(span):
                continue
            totals[span[2]] += span[4] - span[3]
            calls[span[2]] += 1

        out = {f"{stem}_s": totals[stem] for stem in TIMED_STEMS if stem in calls}
        out.update({f"{stem}_calls": calls[stem] for stem in COUNTED_STEMS if stem in calls})
        if "system.predict" in calls:
            out["system.digital_s"] = digital
        tiles = [count for start, count in self.tiles if lo <= start < hi]
        if tiles:
            out["chipsim.tile_matmats"] = sum(tiles)
        out["bench.unattributed_frac"] = unattributed_fraction(
            [(span[3], span[4]) for span in spans], window
        )
        return out

    def busy_seconds(self, stem: str, window: Tuple[float, float]) -> float:
        """Time inside ``stem`` calls, clipped to ``window``."""
        lo, hi = window
        return sum(
            max(0.0, min(span[4], hi) - max(span[3], lo))
            for span in self.spans
            if span[2] == stem
        )


def unattributed_fraction(
    intervals: Iterable[Tuple[float, float]], window: Tuple[float, float]
) -> float:
    """Share of ``window`` that no interval covers (intervals may overlap)."""
    lo, hi = window
    if hi <= lo:
        raise ValueError("empty window")
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return 1.0 - covered / (hi - lo)
