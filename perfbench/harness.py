"""Workloads, sweeps, output checks and metrics of the fdjcas benchmark.

A sweep runs every scheme of a workload through ``fdjcas run``, called
in-process through ``fdjcas.cli.main`` on YAML configs the benchmark
writes.  Sweeps run one after another in this process (a closed loop with
one client); the program keeps its default BLAS threading.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

SENSING_SCHEMES = ("ris_with_sensing", "no_ris_with_sensing")
ALL_SCHEMES = ("ris_with_sensing", "ris_comm_only", "no_ris_with_sensing", "no_ris_comm_only")
CSV_HEADER = [
    "scheme", "snr_db", "rate_bps_hz", "si_power_db", "crb_rad2", "mse_rad2",
    "feasible_seeds", "total_seeds", "status",
]
COMBINED_HEADER = ["scheme", "snr_db", "metric", "value"]
METRIC_COLUMNS = ("rate_bps_hz", "si_power_db", "crb_rad2", "mse_rad2")
DEFAULT_CRB_THRESHOLD = 0.01  # the config default; the benchmark workloads keep it
FULL_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
PANEL_ROOT_SEED = 0
PROBE_SEEDS = 1
CAL_SEED = 12345
CAL_RUNS = 15
CAL_STEPS = 50
# Median calibration time on the reference machine (2 vCPUs, numpy 2.4.6,
# OpenBLAS 0.3.31 with 2 threads); it sets the speed ``norm_s`` refers to.
CAL_REF_S = 1.3e-3
SETUP_LAUNCHES = 9
WARMUP_SNR_DB = 10.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    """A fixed panel of cells: schemes x SNR grid x ``seeds`` seed indices.

    The panel always runs at ``root_seed`` = PANEL_ROOT_SEED, so its inputs,
    outputs and cost are the same on every run; the seeded probe runs the
    same schemes and SNR grid for PROBE_SEEDS seed indices at ``root_seed`` =
    the workload seed.  ``trials_per_cell`` > 0 turns on the Monte-Carlo MSE
    column, passed to ``fdjcas run`` as ``--trials`` (the CLI divides it by
    ``seeds``).  ``overrides`` are extra config keys; the benchmark leaves
    them empty (reference dimensions) and the self-test shrinks the scene.
    """

    name: str
    schemes: tuple
    snr_grid_db: tuple
    seeds: int
    trials_per_cell: int = 0
    overrides: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "snr_grid_db": list(self.snr_grid_db),
            "seeds": self.seeds,
            "root_seed": PANEL_ROOT_SEED,
            "trials_per_cell": self.trials_per_cell,
            "overrides": dict(self.overrides),
        }


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sensing-sweep", ("ris_with_sensing",), FULL_GRID_DB, seeds=2),
        Workload(
            "baseline-sweep",
            ("ris_comm_only", "no_ris_with_sensing", "no_ris_comm_only"),
            FULL_GRID_DB,
            seeds=6,
        ),
        Workload(
            "mse-study", ("ris_with_sensing",), (0.0, 5.0, 10.0, 15.0), seeds=8, trials_per_cell=50
        ),
    )
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here (e.g. the program sources are missing)."""


def import_program():
    """Import ``fdjcas`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "fdjcas" / "__init__.py").is_file():
        raise HarnessError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fdjcas
    import fdjcas.cli

    if Path(fdjcas.__file__).resolve().parent != SRC / "fdjcas":
        raise HarnessError(f"fdjcas imported from {fdjcas.__file__}, not from {SRC}")
    return fdjcas


# ---------------------------------------------------------------- configs


def write_calls(workload: Workload, work_dir: Path, tag: str, root_seed: int, seeds: int, grid):
    """Write one config per scheme and SNR point; returns the ``fdjcas run`` calls.

    One call per SNR point lets the calibration run between calls, so each
    call's time is corrected for the machine speed at that moment.
    """
    import yaml

    calls = []
    for scheme in workload.schemes:
        for snr in grid:
            config = {
                "scheme": scheme,
                "snr_grid_db": [float(snr)],
                "seeds": int(seeds),
                "root_seed": int(root_seed),
                "mse_trials": 0,
                **workload.overrides,
            }
            name = f"{tag}-{scheme}-{snr:g}dB"
            cfg_path, out_dir = work_dir / f"{name}.yaml", work_dir / name
            cfg_path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
            argv = ["run", str(cfg_path), "--out", str(out_dir)]
            if workload.trials_per_cell > 0:
                argv += ["--trials", str(workload.trials_per_cell * seeds)]
            calls.append(
                {
                    "scheme": scheme,
                    "snr_db": float(snr),
                    "argv": argv,
                    "out_dir": out_dir,
                    "cells": seeds,  # one SNR point: one cell per seed index
                }
            )
    return calls


def warmup_calls(workload: Workload, work_dir: Path, tag: str):
    """One panel cell per scheme at WARMUP_SNR_DB."""
    return write_calls(workload, work_dir, tag, PANEL_ROOT_SEED, 1, (WARMUP_SNR_DB,))


# ------------------------------------------------------------ calibration


def calibration_problem(n: int = 100):
    """Fixed inputs of the calibration kernel: a 100x100 Hermitian matrix,
    a linear term, its top eigenvalue and a unit-modulus start."""
    import numpy as np

    rng = np.random.default_rng(CAL_SEED)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    quad = a @ a.conj().T / n
    linear = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start = np.exp(2j * np.pi * np.arange(n) / n)
    return quad, linear, float(np.linalg.eigvalsh(quad)[-1]), start


def calibrate(problem) -> float:
    """Median seconds of CAL_RUNS runs of a fixed kernel.

    The kernel is the benchmark's own copy of the hot path's operation mix
    (unit-modulus MM steps: a 100x100 complex matvec, elementwise updates and
    a quadratic-form value per step), so it tracks gradual drift of the
    machine speed.  The median ignores short stalls; it does not follow a
    busy second core, which slows the program's threaded BLAS calls
    several-fold (see README.md).
    """
    import numpy as np

    quad, linear, lam, start = problem
    times = []
    for _ in range(CAL_RUNS):
        t0 = time.perf_counter()
        phi = start
        for _ in range(CAL_STEPS):
            q = lam * phi - quad @ phi - np.conj(linear)
            phi = q / np.abs(q)
            float(np.real(np.vdot(phi, quad @ phi)) + 2.0 * np.real(linear @ phi))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def corrected(wall_s: float, cal_before: float, cal_after: float) -> float:
    """Wall time rescaled to the reference speed set by CAL_REF_S."""
    return wall_s * CAL_REF_S / (0.5 * (cal_before + cal_after))


# ----------------------------------------------------------------- sweeps


def run_call(call) -> dict:
    """Run one ``fdjcas run`` in-process; returns exit code, wall time and captured text."""
    from fdjcas import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(call["argv"])
        except Exception:  # a crash of the program is a failed call, not a harness abort
            traceback.print_exc(file=err)
            code = -1
    wall = time.perf_counter() - start
    return {"code": code, "wall_s": wall, "stderr": err.getvalue().strip()}


def run_sweep(workload: Workload, work_dir: Path, tag: str, root_seed=PANEL_ROOT_SEED, seeds=None):
    """One pass over the SNR grid (the panel unless told otherwise).

    Each call's ``wall_s`` is timed alone; ``norm_s`` rescales it to the
    reference machine speed with the calibration measured just before and
    just after the call.  Outputs are checked after the sweep.
    """
    seeds = workload.seeds if seeds is None else seeds
    calls = write_calls(workload, work_dir, tag, root_seed, seeds, workload.snr_grid_db)
    problem = calibration_problem()
    cal = [calibrate(problem)]
    for call in calls:
        call.update(run_call(call))
        cal.append(calibrate(problem))
        call["norm_s"] = corrected(call["wall_s"], cal[-2], cal[-1])
    for call in calls:
        call.update(check_call_outputs(call, workload))
    return {
        "wall_s": sum(c["wall_s"] for c in calls),
        "norm_s": sum(c["norm_s"] for c in calls),
        "calibration_s": statistics.median(cal),
        "calls": calls,
        "cells": sum(c["cells"] for c in calls),
        "failed": sum(c["failed_cells"] for c in calls),
    }


def warm_up(workload: Workload, work_dir: Path) -> None:
    for call in warmup_calls(workload, work_dir, "warmup"):
        run_call(call)


SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fdjcas.cli import main
for argv in json.loads(sys.argv[2]):
    code = main(argv)
    if code != 0:
        sys.exit(code)
"""


def measure_setup(workload: Workload, work_dir: Path, launches: int = SETUP_LAUNCHES):
    """Set-up time of fresh interpreters that import fdjcas and run the warm-up cells.

    Returns the median speed-corrected time and the raw wall time of each
    launch; launches are corrected like ``run`` calls, with the calibration
    measured just before and just after each one.
    """
    argvs = [call["argv"] for call in warmup_calls(workload, work_dir, "setup")]
    problem = calibration_problem()
    cal = [calibrate(problem)]
    walls, norm = [], []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(argvs)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise HarnessError(f"set-up launch failed ({proc.returncode}): {proc.stderr.strip()}")
        cal.append(calibrate(problem))
        norm.append(corrected(walls[-1], cal[-2], cal[-1]))
    return statistics.median(norm), walls


# ---------------------------------------------------------- output checks


def _num(text):
    return None if text == "" else float(text)


def _check_row(row, scheme, seeds, sensing, trials, crb_threshold) -> str | None:
    """Reason the SNR row is wrong, or None."""
    try:
        feasible, total = int(row["feasible_seeds"]), int(row["total_seeds"])
        values = {col: _num(row[col]) for col in METRIC_COLUMNS}
    except ValueError as exc:
        return f"unparsable value: {exc}"
    if row["scheme"] != scheme:
        return f"scheme {row['scheme']!r}"
    if total != seeds or not 0 <= feasible <= total:
        return f"feasible_seeds={feasible} total_seeds={total} (configured {seeds})"
    status = "ok" if feasible > 0 else "infeasible"
    if row["status"] != status:
        return f"status {row['status']!r} with {feasible} feasible seeds"
    if status == "infeasible":
        return None if all(v is None for v in values.values()) else "metrics on an infeasible row"
    rate = values["rate_bps_hz"]
    if rate is None or not math.isfinite(rate) or rate < 0.0:
        return f"rate_bps_hz={rate}"
    if sensing:
        crb = values["crb_rad2"]
        if crb is None or not math.isfinite(crb) or not 0.0 < crb <= crb_threshold:
            return f"crb_rad2={crb} against threshold {crb_threshold}"
        si = values["si_power_db"]
        if si is None or not math.isfinite(si):
            return f"si_power_db={si}"
        mse = values["mse_rad2"]
        if trials > 0 and (mse is None or not math.isfinite(mse) or mse < 0.0):
            return f"mse_rad2={mse}"
        if trials == 0 and mse is not None:
            return "mse_rad2 without trials"
    elif any(values[c] is not None for c in ("si_power_db", "crb_rad2", "mse_rad2")):
        return "sensing metrics on a communications-only row"
    return None


def _read_csv(path: Path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[0] if lines else None}")
    if any(len(line) != len(header) for line in lines[1:]):
        raise ValueError(f"{path.name}: rows with a wrong column count")
    return [dict(zip(header, line)) for line in lines[1:]]


def check_call_outputs(call, workload: Workload) -> dict:
    """Validate the CSVs of one ``run`` call (one scheme at one SNR point).

    A non-zero exit, a missing or misshapen file, or a wrong row fails every
    cell of the call.  Infeasible rows are valid results.
    """
    result = {"failed_cells": call["cells"], "rows": [], "problems": [], "sha256": {}}
    where = f"{call['scheme']} @ {call['snr_db']:g} dB"
    if call["code"] != 0:
        result["problems"].append(f"{where}: exit code {call['code']}: {call['stderr']}")
        return result
    out_dir = Path(call["out_dir"])
    paths = (out_dir / f"{call['scheme']}.csv", out_dir / "combined.csv")
    try:
        rows = _read_csv(paths[0], CSV_HEADER)
        combined = _read_csv(paths[1], COMBINED_HEADER)
        result["sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    except (OSError, ValueError) as exc:
        result["problems"].append(f"{where}: {exc}")
        return result
    if len(rows) != 1 or rows[0]["snr_db"] != repr(call["snr_db"]):
        reason = f"rows {[r['snr_db'] for r in rows]} for one SNR point"
    else:
        sensing = call["scheme"] in SENSING_SCHEMES
        reason = _check_row(
            rows[0],
            call["scheme"],
            call["cells"],
            sensing,
            workload.trials_per_cell if sensing else 0,
            workload.overrides.get("crb_threshold", DEFAULT_CRB_THRESHOLD),
        )
    if reason is None:
        row = rows[0]
        expected = [[row["scheme"], row["snr_db"], m, row[m]] for m in METRIC_COLUMNS if row[m]]
        got = [[r[c] for c in COMBINED_HEADER] for r in combined]
        if got != expected:
            reason = "combined.csv disagrees with the scheme CSV"
    if reason is not None:
        result["problems"].append(f"{where}: {reason}")
        return result
    result.update(failed_cells=0, rows=rows)
    return result


# ---------------------------------------------------------------- quality


def quality(calls) -> dict:
    """Solution quality from the emitted rows of one sweep.

    Means are over feasible cells (each row's value weighted by its
    feasible seeds); the SI power is averaged in linear units.
    """
    rate = [0.0, 0]
    si = [0.0, 0]
    mse = [0.0, 0]
    feasible = [0, 0]
    for call in calls:
        for row in call["rows"]:
            n = int(row["feasible_seeds"])
            if call["scheme"] in SENSING_SCHEMES:
                feasible[0] += n
                feasible[1] += int(row["total_seeds"])
            if n == 0:
                continue
            rate[0] += float(row["rate_bps_hz"]) * n
            rate[1] += n
            if row["si_power_db"]:
                si[0] += 10.0 ** (float(row["si_power_db"]) / 10.0) * n
                si[1] += n
            if row["mse_rad2"]:
                mse[0] += float(row["mse_rad2"]) * n
                mse[1] += n

    def ratio(pair):
        return pair[0] / pair[1] if pair[1] else 0.0

    return {
        "rate_bps_hz_mean": ratio(rate),
        "si_power_mean": ratio(si),
        "feasible_frac": ratio(feasible),
        "mse_rad2": ratio(mse),
    }


# -------------------------------------------------------------- reference


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _call_key(call) -> str:
    return f"{call['scheme']}@{call['snr_db']:g}dB"


def reference_entry(workload: Workload, calls) -> dict:
    """The stored form of one panel sweep: grid, CSV digests and rows per call."""
    return {
        "grid": workload.describe(),
        "sha256": {_call_key(c): c["sha256"] for c in calls},
        "rows": {_call_key(c): c["rows"] for c in calls},
    }


def compare_reference(workload: Workload, calls, reference=None) -> dict:
    """Byte identity and largest relative deviation of a panel sweep against
    the stored one.

    When no panel of the same grid is stored, or the rows differ in shape,
    ``ref_max_rel_dev`` is null and ``reference_note`` says why.
    """
    reference = load_reference() if reference is None else reference
    entry = reference.get(workload.name)
    if entry is None or entry["grid"] != workload.describe():
        return {"outputs_identical": None, "ref_max_rel_dev": None,
                "reference_note": f"no stored reference for the {workload.name} panel"}
    current = reference_entry(workload, calls)
    result = {"outputs_identical": current["sha256"] == entry["sha256"], "ref_max_rel_dev": None}
    dev = 0.0
    for key, ref_rows in entry["rows"].items():
        rows = current["rows"].get(key, [])
        if len(rows) != len(ref_rows):
            return {**result, "reference_note": f"{key}: {len(rows)} rows, reference {len(ref_rows)}"}
        for row, ref in zip(rows, ref_rows):
            for col in CSV_HEADER[1:]:
                if row[col] == ref[col]:
                    continue
                try:
                    x, y = float(row[col]), float(ref[col])
                except ValueError:
                    return {**result, "reference_note": f"{key} {col}: {row[col]!r}, reference {ref[col]!r}"}
                dev = max(dev, abs(x - y) / max(abs(y), 1e-300))
    return {**result, "ref_max_rel_dev": dev, "reference_note": ""}


# ------------------------------------------------------------ environment


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads(numpy):
    """Thread count OpenBLAS reports, when the library exposes it."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": _git_sha(),
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def work_directory():
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


