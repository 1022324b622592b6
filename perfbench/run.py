"""fdjcas benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sensing-sweep --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time, times whole panel sweeps with
tracing off until ``--seconds`` have passed, then runs the seeded probe,
and prints the end-to-end metrics.  With ``--trace 1`` it runs one untraced
panel sweep and two traced ones, checks that the exact counters of the two
traced sweeps agree, and prints the per-layer metrics.  Every line but the
last is a report; the last line is the result object.  See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def declared_metrics():
    """(end-to-end, per-layer) metric declarations from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def timed_sweeps(workload, work_dir, seconds):
    """Whole panel sweeps until the budget is used; at least one.

    Another sweep starts only while at least half a sweep's time is left,
    so a run lasts about ``seconds`` whatever the sweep length.
    """
    sweeps = []
    start = time.perf_counter()
    while True:
        sweeps.append(harness.run_sweep(workload, work_dir, f"panel{len(sweeps)}"))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * sweeps[-1]["wall_s"] >= seconds:
            return sweeps


def median_call_s(sweeps, key="norm_s"):
    """Per-call medians over sweeps of the same grid, one entry per call."""
    return [statistics.median(s["calls"][i][key] for s in sweeps) for i in range(len(sweeps[0]["calls"]))]


def cells_per_s(sweeps, key="norm_s") -> float:
    """Cells per second of the median sweep (sum of per-call medians)."""
    return sweeps[0]["cells"] / sum(median_call_s(sweeps, key))


def cell_ms_by_scheme(sweeps) -> dict:
    """Speed-corrected ms per cell of each scheme's ``run`` calls (median
    over sweeps); 0 for schemes the workload does not run."""
    totals = {s: [0.0, 0] for s in harness.ALL_SCHEMES}
    for call, seconds in zip(sweeps[0]["calls"], median_call_s(sweeps)):
        totals[call["scheme"]][0] += seconds
        totals[call["scheme"]][1] += call["cells"]
    return {f"cell_ms.{s}": (1e3 * t / n if n else 0.0) for s, (t, n) in totals.items()}


def problems(sweeps):
    return [p for s in sweeps for c in s["calls"] for p in c["problems"]]


def panel_digest(sweep):
    return [c["sha256"] for c in sweep["calls"]]


def measure(workload, seed, seconds, trace, work_dir) -> tuple[dict, dict]:
    """Run the workload; returns (result object, report)."""
    end_to_end, per_layer = declared_metrics()
    report = {"workload": workload.name, "panel": workload.describe(),
              "environment": harness.environment(seed)}
    harness.warm_up(workload, work_dir)
    if not trace:
        setup_s, setup_runs = harness.measure_setup(workload, work_dir)
        panel = timed_sweeps(workload, work_dir, seconds)
        values = {
            "setup_s": setup_s,
            "cells_per_s": cells_per_s(panel),
            "cells_per_s_raw": cells_per_s(panel, "wall_s"),
            "peak_rss_mb": harness.peak_rss_mb(),
            **harness.quality(panel[0]["calls"]),
            **cell_ms_by_scheme(panel),
        }
        probe = harness.run_sweep(
            workload, work_dir, "probe", root_seed=seed, seeds=harness.PROBE_SEEDS
        )
        sweeps = panel + [probe]
        report.update(
            setup_runs_s=setup_runs,
            probe={"root_seed": seed, "seeds": harness.PROBE_SEEDS, "wall_s": probe["wall_s"],
                   "failed": probe["failed"], **harness.quality(probe["calls"])},
        )
        counts_repeat = True
    else:
        plain = harness.run_sweep(workload, work_dir, "plain")
        tracers, traced = [], []
        for i in range(2):
            tracer = Tracer()
            with tracer.installed():
                traced.append(harness.run_sweep(workload, work_dir, f"traced{i}"))
            tracers.append(tracer)
        panel = sweeps = [plain] + traced
        counts = [t.exact_counts() for t in tracers]
        counts_repeat = counts[0] == counts[1]
        layers = [t.layer_metrics() for t in tracers]
        values = {k: statistics.fmean(layer[k] for layer in layers) for k in layers[0]}
        values.update({k: v for k, v in counts[0].items() if k.endswith(".calls")})
        values["experiments.emit_outputs.bytes"] = counts[0].get("emit_bytes", 0)
        values["trace_overhead_frac"] = 1.0 - cells_per_s(traced) / cells_per_s([plain])
        values.update(cell_ms_by_scheme([plain]))
        values["mse_rad2"] = harness.quality(plain["calls"])["mse_rad2"]
        report.update(
            exact_counts=counts[0], exact_counts_repeat=counts_repeat, missing_hooks=tracers[0].missing
        )
    attempted = sum(s["cells"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    report.update(
        sweeps=len(sweeps),
        sweep_wall_s=[s["wall_s"] for s in sweeps],
        sweep_norm_s=[s["norm_s"] for s in sweeps],
        calibration_s=[s["calibration_s"] for s in sweeps],
        failed_frac=failed / attempted,
        problems=problems(sweeps)[:20],
        panel_sweeps_identical=all(panel_digest(s) == panel_digest(panel[0]) for s in panel),
        **harness.compare_reference(workload, panel[0]["calls"]),
        values=values,
    )
    declared = per_layer if trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_program()
        with harness.work_directory() as work_dir:
            result, report = measure(
                harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir
            )
    except (harness.HarnessError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
