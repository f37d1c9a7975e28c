"""Performance floor guard for the emitted benchmark records.

The committed ``BENCH_*.json`` files are an enforceable perf contract, not
just a trajectory log: this checker compares the key throughput metrics of
freshly produced records — the kernel speedups and tile throughput of
the chip simulator, and the sweep runner's job throughput and warm-cache
speedup — against the committed baselines in ``perf_baseline.json``, each
with its own relative tolerance band.  A metric that falls below
``baseline * (1 - tolerance)`` fails the build (CI job ``perf-gate``).

Baselines come in two bands selected by the records' own ``"tiny"`` flag:
``full`` (developer-machine numbers, tighter bands) and ``tiny`` (CI smoke
configuration on unknown runner hardware, loose bands that still catch
order-of-magnitude regressions — e.g. the fused kernel losing its lead
over the fast kernel, or the cache slowing jobs down).

Usage:  python benchmarks/check_perf_floor.py [repo_root]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional

BASELINE_PATH = Path(__file__).resolve().parent / "perf_baseline.json"


def resolve_metric(record: Mapping, dotted: str) -> Optional[object]:
    """Walk a dotted path ("scenarios.deep_cnn.tiles_per_s") into a record."""
    value: object = record
    for part in dotted.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value


def check_floors(
    records: Mapping[str, Mapping], baselines: List[Mapping]
) -> List[str]:
    """Compare every baseline entry against its record; return violations."""
    errors = []
    for entry in baselines:
        filename = entry["file"]
        metric = entry["metric"]
        context = f"{filename}:{metric}"
        record = records.get(filename)
        if record is None:
            errors.append(f"{context}: record file missing")
            continue
        value = resolve_metric(record, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{context}: metric missing or non-numeric ({value!r})")
            continue
        floor = entry["baseline"] * (1.0 - entry["tolerance"])
        if value < floor:
            errors.append(
                f"{context}: {value:.4g} fell below the floor {floor:.4g} "
                f"(baseline {entry['baseline']:.4g} - {entry['tolerance']:.0%})"
            )
    return errors


def select_band(records: Mapping[str, Mapping]) -> str:
    """Pick the baseline band from the records' ``tiny`` flags (must agree)."""
    flags = {name: bool(record.get("tiny")) for name, record in records.items()}
    values = set(flags.values())
    if len(values) > 1:
        raise SystemExit(
            f"mixed tiny/full records, cannot pick a baseline band: {flags}"
        )
    return "tiny" if values and values.pop() else "full"


def main(root: Path) -> int:
    baselines: Dict[str, List[Mapping]] = json.loads(BASELINE_PATH.read_text())
    filenames = sorted({entry["file"] for band in baselines.values() for entry in band})
    records: Dict[str, Mapping] = {}
    for filename in filenames:
        path = root / filename
        if not path.exists():
            continue
        try:
            records[filename] = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            print(f"perf floor check failed: {filename} is invalid JSON ({error})")
            return 1
    if not records:
        print(f"perf floor check failed: none of {filenames} exist in {root}")
        return 1
    band = select_band(records)
    errors = check_floors(records, baselines[band])
    if errors:
        print(f"performance regression detected ({band} baselines):")
        for error in errors:
            print(f"  - {error}")
        return 1
    checked = len(baselines[band])
    print(f"performance floors OK ({checked} {band} metrics)")
    return 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    sys.exit(main(root))
