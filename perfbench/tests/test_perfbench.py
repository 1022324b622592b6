"""Self-test of the benchmark harness on a tiny grid.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import harness  # noqa: E402
import run  # noqa: E402

TINY_SCENE = {
    "n_bs_tx": 6,
    "n_bs_rx": 4,
    "n_user": 3,
    "ris_rows": 3,
    "ris_cols": 3,
    "max_outer": 4,
    "snapshots": 16,
}
TINY = harness.Workload(
    "tiny",
    ("ris_with_sensing", "no_ris_comm_only"),
    (0.0, 20.0),
    seeds=2,
    trials_per_cell=2,
    overrides=TINY_SCENE,
)
INFEASIBLE = harness.Workload(
    "infeasible",
    ("ris_with_sensing", "no_ris_with_sensing"),
    (0.0, 10.0),
    seeds=2,
    overrides={**TINY_SCENE, "crb_threshold": 1e-12},
)


@pytest.fixture(scope="module", autouse=True)
def program():
    harness.import_program()


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_printed_with_its_unit(tmp_path, trace):
    end_to_end, per_layer = run.declared_metrics()
    declared = per_layer if trace else end_to_end
    result, report = run.measure(TINY, 3, 0.1, trace, tmp_path)
    assert result["correct"], report["problems"]
    panel_cells = len(TINY.schemes) * len(TINY.snr_grid_db) * TINY.seeds
    assert result["failed"] == 0 and result["attempted"] >= panel_cells
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    json.dumps(result, allow_nan=False)
    if trace:
        assert report["exact_counts_repeat"]
        assert report["missing_hooks"] == []
        assert result["metrics"]["optimizer.ris_optimize.calls"]["value"] > 0
    stamp = report["environment"]
    assert stamp["workload_seed"] == 3 and stamp["nproc"] >= 1
    assert {"python", "numpy", "blas", "blas_thread_env", "git_sha"} <= set(stamp)


def test_infeasible_cells_are_results_not_failures(tmp_path):
    sweep = harness.run_sweep(INFEASIBLE, tmp_path, "s")
    assert sweep["failed"] == 0
    rows = [row for call in sweep["calls"] for row in call["rows"]]
    assert rows and all(row["status"] == "infeasible" for row in rows)
    assert harness.quality(sweep["calls"])["feasible_frac"] == 0.0


def test_forced_failure_is_counted_not_fatal(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    write_calls = harness.write_calls

    def first_call_unwritable(workload, work_dir, tag, *args):
        calls = write_calls(workload, work_dir, tag, *args)
        if tag.startswith("panel"):
            argv = calls[0]["argv"]
            argv[argv.index("--out") + 1] = str(blocker / "out")
        return calls

    monkeypatch.setattr(harness, "write_calls", first_call_unwritable)
    result, report = run.measure(TINY, 0, 0.1, False, tmp_path)
    panel_sweeps = report["sweeps"] - 1  # the last sweep is the probe
    assert result["failed"] == TINY.seeds * panel_sweeps
    assert not result["correct"]
    assert report["failed_frac"] == result["failed"] / result["attempted"] < 1.0
    assert any("exit code" in p for p in report["problems"])


def test_output_checks_reject_wrong_rows(tmp_path):
    sweep = harness.run_sweep(TINY, tmp_path, "s")
    call = next(c for c in sweep["calls"] if c["scheme"] == "no_ris_comm_only")
    assert call["failed_cells"] == 0
    path = Path(call["out_dir"]) / "no_ris_comm_only.csv"
    good = path.read_text()
    header, row = good.splitlines()
    fields = row.split(",")
    fields[6] = str(TINY.seeds + 1)  # feasible_seeds > total_seeds
    path.write_text(f"{header}\n{','.join(fields)}\n")
    assert harness.check_call_outputs(call, TINY)["failed_cells"] == TINY.seeds
    path.write_text(f"{header}\n")
    assert harness.check_call_outputs(call, TINY)["failed_cells"] == TINY.seeds
    path.write_text(good)
    (Path(call["out_dir"]) / "combined.csv").write_text("scheme,snr_db,metric,value\n")
    assert harness.check_call_outputs(call, TINY)["failed_cells"] == TINY.seeds


def test_reference_comparison(tmp_path):
    sweep = harness.run_sweep(TINY, tmp_path, "s")
    stored = json.dumps({TINY.name: harness.reference_entry(TINY, sweep["calls"])})
    reference = json.loads(stored)
    same = harness.compare_reference(TINY, sweep["calls"], reference)
    assert same["outputs_identical"] is True and same["ref_max_rel_dev"] == 0.0
    entry = reference[TINY.name]
    row = next(r for rows in entry["rows"].values() for r in rows if r["rate_bps_hz"])
    row["rate_bps_hz"] = repr(float(row["rate_bps_hz"]) * 1.5)
    entry["sha256"][next(iter(entry["sha256"]))] = {}
    moved = harness.compare_reference(TINY, sweep["calls"], reference)
    assert moved["outputs_identical"] is False
    assert moved["ref_max_rel_dev"] == pytest.approx(1.0 / 3.0)
    absent = harness.compare_reference(TINY, sweep["calls"], {})
    assert absent["outputs_identical"] is None and "no stored reference" in absent["reference_note"]
