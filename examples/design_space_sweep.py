"""Design-space exploration with the parallel sweep runner.

Declares one :class:`repro.sweep.SweepSpec` — a grid over design ×
ADC resolution × calibration on the device-detailed tiled chip — and runs
it twice through :class:`repro.sweep.SweepRunner` against a shared
content-addressed cache: the first (cold) pass pays programming and
calibration once per distinct content, the second (warm, 2 worker
processes) restores everything from the cache and must reproduce the cold
records bit for bit.  The closing table is the per-job trade-off summary
with the Pareto front over quality vs modeled TOPS/W.

Run with:  python examples/design_space_sweep.py
"""

import tempfile
import time

from repro.analysis.reporting import render_table
from repro.sweep import SweepRunner, SweepSpec

SPEC = SweepSpec(
    scenarios=("small_cnn",),
    backends=("device",),
    designs=("curfe", "chgfe"),
    precisions=((4, 8),),
    adc_bits=(4, 5),
    calibrations=("workload", "nominal"),
    images=8,
    batch_size=8,
    seed=0,
)


def main() -> None:
    print(f"expanding grid: {len(SPEC.expand())} jobs\n")
    with tempfile.TemporaryDirectory(prefix="sweep-cache-") as cache_dir:
        start = time.perf_counter()
        cold = SweepRunner(SPEC, workers=1, cache_dir=cache_dir).run()
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        warm = SweepRunner(SPEC, workers=2, cache_dir=cache_dir).run()
        warm_s = time.perf_counter() - start

    identical = cold.deterministic_records() == warm.deterministic_records()
    rows = []
    for record in cold.records:
        quality = (
            record["accuracy"]
            if record["accuracy"] is not None
            else record["float_agreement"]
        )
        rows.append(
            (
                record["job_id"],
                f"{quality:.3f}",
                f"{record['modeled']['tops_per_watt']:.2f}",
                f"{record['modeled']['energy_per_image_j'] * 1e6:.2f}",
                f"{record['timing']['images_per_s']:.1f}",
                record["cache"]["calibration"],
            )
        )
    print(
        render_table(
            ("job", "quality", "TOPS/W", "uJ/image", "img/s", "cal cache"), rows
        )
    )
    print(f"\ncold serial pass : {cold_s:6.1f} s")
    print(f"warm 2-worker pass: {warm_s:6.1f} s (bit-identical: {identical})")
    print(f"cache totals      : {warm.cache_totals()}")
    print(f"pareto (quality vs TOPS/W): {cold.pareto()['accuracy_efficiency']}")


if __name__ == "__main__":
    main()
