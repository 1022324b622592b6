"""Benchmark study runner: builds the reference scenario, sweeps SNR and
seeds for each scheme, emits plot-ready CSV tables, and runs the
Monte-Carlo estimation study against the Cramer-Rao bound."""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channels import build_channel_set, nlos_residual
from .crb import aoa_crb
from .estimation import SnapshotBatch, music_estimate, simulate_snapshots
from .geometry import Scene, build_scene
from .optimizer import JcasConfig, jcas_optimize, jcas_optimize_batch
from .steering import PathCoefficients, build_sensing_context

SCHEME_RIS_SENSING = "ris_with_sensing"
SCHEME_NO_RIS_SENSING = "no_ris_with_sensing"
SCHEME_RIS_COMM = "ris_comm_only"
SCHEME_NO_RIS_COMM = "no_ris_comm_only"
SCHEMES = (
    SCHEME_RIS_SENSING,
    SCHEME_NO_RIS_SENSING,
    SCHEME_RIS_COMM,
    SCHEME_NO_RIS_COMM,
)

CONFIG_ENV_VAR = "FDJCAS_CONFIG"

METRIC_COLUMNS = ("rate_bps_hz", "si_power_db", "crb_rad2", "mse_rad2")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One study cell grid: scheme x SNR grid x seeds at fixed scenario.

    The scene block mirrors the reference scenario: a 15x10 full-duplex
    array pair, a 10x10 surface at 30 degrees and 5 m, the user at 80 m,
    targets on a 50 m circle with per-seed random angles, 2 streams, and
    an accuracy threshold of 0.01 rad^2.
    """

    # scene
    n_bs_tx: int = 15
    n_bs_rx: int = 10
    n_user: int = 5
    ris_rows: int = 10
    ris_cols: int = 10
    wavelength: float = 0.1
    bs_ris_angle_deg: float = 30.0
    bs_ris_distance: float = 5.0
    user_range: float = 80.0
    user_angle_deg: float = 0.0
    target_range: float = 50.0
    # paths
    direct_path_mag: float = 1.0
    ris_path_mag: float = 0.5
    nlos_si_power: float = 0.01
    # optimizer
    power_budget: float = 1.0
    crb_threshold: float = 0.01
    n_streams: int = 2
    outer_tol: float = 1e-4
    max_outer: int = 100
    # run
    scheme: str = SCHEME_RIS_SENSING
    snr_grid_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    seeds: int = 50
    root_seed: int = 0
    # sensing evaluation
    mse_trials: int = 200
    snapshots: int = 64
    grid_resolution: float = 1e-3
    residual_factor: float = 0.1
    # output
    output_dir: str = "results"

    def __post_init__(self):
        kinds = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number")}
        for f in dataclasses.fields(self):
            if f.type in kinds:
                kind, noun = kinds[f.type]
                value = getattr(self, f.name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
                # +inf crb_threshold is legal and checked below
                if f.type == "float" and f.name != "crb_threshold" and not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        try:
            # a string would iterate into one grid point per character
            if isinstance(self.snr_grid_db, str):
                raise TypeError(f"got the string {self.snr_grid_db!r}")
            object.__setattr__(self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"snr_grid_db must be a list of numbers: {err}") from err
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must not be empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigError("snr_grid_db entries must be finite")
        # NaN fails the comparison too; +inf means no sensing constraint
        if not self.crb_threshold > 0.0:
            raise ConfigError("crb_threshold must be positive (inf disables it)")
        for name in (
            "power_budget", "grid_resolution", "wavelength", "outer_tol", "user_range", "target_range",
            "bs_ris_distance",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "direct_path_mag", "ris_path_mag", "nlos_si_power", "residual_factor", "max_outer", "mse_trials",
            "root_seed",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("n_bs_tx", "n_bs_rx", "n_user", "ris_rows", "ris_cols", "n_streams", "seeds", "snapshots"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.n_streams > self.n_bs_tx:
            raise ConfigError(f"n_streams {self.n_streams} exceeds n_bs_tx {self.n_bs_tx}")
        sensing = scheme_flags(self.scheme)[1]
        if sensing and self.mse_trials > 0:
            require_noise_subspace(self, "for a sensing scheme with mse_trials > 0")
        # the design first checks its bound in outer iteration 1
        if sensing and math.isfinite(self.crb_threshold) and self.max_outer < 1:
            raise ConfigError("max_outer must be >= 1 for a sensing scheme with a finite crb_threshold")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ConfigError("snr_grid_db must be sorted ascending")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir must be a non-empty string, got {self.output_dir!r}")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["snr_grid_db"] = list(self.snr_grid_db)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        flat = {}
        for key, value in data.items():
            for name, item in (value if isinstance(value, dict) else {key: value}).items():
                if name in flat:
                    raise ConfigError(f"configuration key {name!r} is given twice")
                flat[name] = item
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(flat) - known
        if unknown:
            # keys of mixed types (``1:`` and ``bogus:``) do not compare, their strings do
            raise ConfigError(f"unknown configuration keys: {sorted(unknown, key=str)}")
        try:
            return cls(**flat)
        except TypeError as err:
            raise ConfigError(str(err)) from err


def load_config(path) -> ExperimentConfig:
    """Parse the YAML experiment file (flat keys or one level of grouping)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    return ExperimentConfig.from_dict(data)


def scheme_flags(scheme: str):
    """(uses_ris, does_sensing) for a scheme name."""
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return scheme.startswith("ris"), scheme.endswith("with_sensing")


def require_noise_subspace(config: ExperimentConfig, use: str) -> None:
    """Raise a ConfigError unless MUSIC has a noise subspace, that is
    ``n_streams`` below ``n_bs_rx``, and a sample covariance that spans the
    signal subspace, that is at least ``n_streams`` snapshots; ``use`` ends
    the message."""
    if config.n_streams >= config.n_bs_rx:
        raise ConfigError(f"n_streams {config.n_streams} must be below n_bs_rx {config.n_bs_rx} {use}")
    if config.snapshots < config.n_streams:
        raise ConfigError(f"snapshots {config.snapshots} must be at least n_streams {config.n_streams} {use}")


def _channel_set(config: ExperimentConfig, scene, seed, snr_db: float, links=None):
    """Channels of ``scene`` with the SI NLoS residual drawn from ``seed``
    and noise ``power_budget / 10^(snr_db/10)`` at both receivers.  The
    other links depend on neither, nor on the target angle: ``links``, a
    channel set of the same scene, lends them when given."""
    if not math.isfinite(snr_db):
        raise ConfigError(f"SNR must be finite, got {snr_db!r}")
    noise = config.power_budget / 10.0 ** (snr_db / 10.0)
    if links is None:
        links = build_channel_set(scene, n_user_antennas=config.n_user, nlos_si_power=0.0)
    si_nlos = nlos_residual(links.si_los.shape, config.nlos_si_power, seed)
    return dataclasses.replace(links, si_nlos=si_nlos, noise_user=noise, noise_radar=noise)


def _scene(config: ExperimentConfig, target_angle: float) -> Scene:
    """The configured scene with the target at ``target_angle`` (radians)."""
    return build_scene(
        n_bs_tx=config.n_bs_tx,
        n_bs_rx=config.n_bs_rx,
        ris_rows=config.ris_rows,
        ris_cols=config.ris_cols,
        wavelength=config.wavelength,
        bs_ris_angle=np.deg2rad(config.bs_ris_angle_deg),
        bs_ris_distance=config.bs_ris_distance,
        user_range=config.user_range,
        user_angle=np.deg2rad(config.user_angle_deg),
        target_range=config.target_range,
        target_angle=target_angle,
    )


def _jcas_config(config: ExperimentConfig, seed: int) -> JcasConfig:
    """Solver options of the configured scheme; ``seed`` draws the phase start."""
    uses_ris, does_sensing = scheme_flags(config.scheme)
    return JcasConfig(
        power_budget=config.power_budget,
        crb_threshold=config.crb_threshold,
        n_streams=config.n_streams,
        outer_tol=config.outer_tol,
        max_outer=config.max_outer,
        ris_enabled=uses_ris,
        sensing_enabled=does_sensing,
        seed=seed,
    )


def build_cell(config: ExperimentConfig, seed_index: int, snr_db: float):
    """Scene, channels, solver options and coefficients of one grid cell, the order :func:`jcas_optimize` takes.

    The target angle is drawn per seed from the 50 m circle; channel and
    phase randomness derive from (root_seed, seed_index) streams so a cell
    is reproducible in isolation and independent of the surface size for
    the RIS-free schemes.
    """
    (cell,) = _build_cells(config, [(seed_index, snr_db)])
    return cell


def _build_cells(config: ExperimentConfig, cells) -> list:
    """:func:`build_cell` of every ``(seed_index, snr_db)`` cell, with the
    scene and its links built once, for the first cell: they depend on
    neither the seed index nor the target angle.  Each cell gets its own
    target-angle scene, SI NLoS draw, noise, coefficients and solver
    options."""
    built = []
    for seed_index, snr_db in cells:
        angle = np.random.default_rng([config.root_seed, seed_index, 1]).uniform(-np.pi / 2, np.pi / 2)
        if built:
            scene = built[0][0].with_target_angle(angle)
            links = built[0][1]
        else:
            scene, links = _scene(config, angle), None
        channels = _channel_set(config, scene, [config.root_seed, seed_index, 2], snr_db, links)
        coeffs = PathCoefficients.random(
            [config.root_seed, seed_index, 3],
            direct_mag=config.direct_path_mag,
            ris_mag=config.ris_path_mag,
        )
        jcas = _jcas_config(config, int(np.random.default_rng([config.root_seed, seed_index, 4]).integers(2**31)))
        built.append((scene, channels, jcas, coeffs))
    return built


def _run_cells(config: ExperimentConfig, cells) -> list:
    """Optimize ``(seed_index, snr_db)`` cells as one lockstep batch; a
    metrics dict per cell, or None where the cell is infeasible."""
    built = _build_cells(config, cells)
    results = jcas_optimize_batch(built)
    return [
        None if result is None else _cell_metrics(config, seed_index, cell, result)
        for (seed_index, _), cell, result in zip(cells, built, results)
    ]


def _cell_metrics(config: ExperimentConfig, seed_index: int, cell, result) -> dict:
    """The metrics of one optimized cell, with its MUSIC trials when sensing."""
    scene, channels, jcas, coeffs = cell
    metrics = {
        "rate_bps_hz": result.trace.rate_bps_hz[-1],
        "si_power": result.trace.si_power[-1],
        "crb_rad2": result.trace.crb[-1],
        "sq_errors": [],
    }
    if jcas.sensing_enabled and config.mse_trials > 0:
        trials = max(1, config.mse_trials // config.seeds)
        seeds = [config.root_seed + seed_index * trials + trial for trial in range(trials)]
        estimates = estimate_angles(config, scene, channels, coeffs, result, seeds)
        metrics["sq_errors"] = [(e - scene.target_angle) ** 2 for e in estimates]
    return metrics


def estimate_angles(config: ExperimentConfig, scene, channels, coeffs, result, seeds) -> list:
    """MUSIC target-angle estimates at an optimized design, one per snapshot
    seed; subspace dimension ``n_streams``, the rest from the sensing settings."""
    batches = simulate_snapshots(
        scene,
        channels,
        result.precoder,
        result.ris_phase,
        coeffs,
        config.snapshots,
        seeds=seeds,
        residual_factor=config.residual_factor,
    )
    # the batches are rows of one array: scan them all in one stacked pass
    stack = SnapshotBatch(batches[0].samples.base, scene.spacing, scene.wavelength)
    return music_estimate(stack, config.n_streams, config.grid_resolution)


def design_bound(scene, channels, coeffs, result, snapshots: int = 1) -> float:
    """The angle bound of a finished design: ``aoa_crb`` of its precoder,
    with the sensing context at its surface phase, for ``snapshots`` samples."""
    ctx = build_sensing_context(scene, result.ris_phase, coeffs, channels.noise_radar)
    return aoa_crb(result.precoder, ctx.path_response_deriv, ctx.noise_cov, snapshots=snapshots)


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy loaded, or
    None when numpy links another BLAS.  Looked up once per process: the
    glob and the ``dlopen`` cost about 0.1 ms, and every parallel
    ``_map_cells`` call asks."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _run_share(send, share_fn, config: ExperimentConfig, share) -> None:
    """Body of a forked worker: send ``(True, share_fn(config, share))``,
    or ``(False, error)`` when it raises."""
    try:
        outcome = True, share_fn(config, share)
    except Exception as err:
        outcome = False, err
    send.send(outcome)
    send.close()


def _map_cells(share_fn, config: ExperimentConfig, cells) -> list:
    """The results of every cell, in order, from ``share_fn(config,
    share)``, which returns one result per cell of the list ``share``.

    With more than one CPU in the affinity mask (``taskset`` narrows it),
    each of ``workers`` processes runs one share, ``cells[i::workers]``,
    in one call: this process the first, and one forked worker process
    each of the others, which sends its results back through a pipe.
    Every process uses one OpenBLAS thread meanwhile: forked workers
    inherit the parent's thread pool, and with 2 threads in each of 2
    processes on 2 cores a two-cell sensing call ran 2.3x slower than in
    one process.  All cells form one share here when there is one CPU or
    one cell, when numpy's BLAS is not OpenBLAS, or when other Python
    threads are alive, because forking a threaded process can deadlock the
    child.  Each cell has its own seed streams, so the results are the
    same either way.  An error raised in a worker is raised here.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(cells), cpus)
    blas = _openblas_threads() if workers > 1 and threading.active_count() == 1 else None
    if blas is None:
        return share_fn(config, cells)
    # imported here: one-cell calls never fork
    import multiprocessing

    # fork, not spawn: a spawned worker would import numpy and fdjcas afresh on every call
    context = multiprocessing.get_context("fork")
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)  # before forking the workers, so they inherit it
    started, finished = [], False
    try:
        for i in range(1, workers):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(send, share_fn, config, cells[i::workers]))
            worker.start()
            send.close()
            started.append((worker, receive))
        results = [None] * len(cells)
        results[::workers] = share_fn(config, cells[::workers])
        for i, (worker, receive) in enumerate(started, 1):
            try:
                ok, value = receive.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(f"worker process exited with code {worker.exitcode}") from None
            if not ok:
                raise value
            results[i::workers] = value
        finished = True
        return results
    finally:
        for worker, receive in started:
            receive.close()
            if not finished:
                worker.terminate()
            worker.join()
        set_threads(previous)


def run_scheme(config: ExperimentConfig):
    """Average the scheme's metrics over seeds at every SNR point.

    Cells whose sensing constraint is infeasible are excluded from the
    averages but counted; a point with no feasible seed is emitted with
    the ``infeasible`` status instead of being dropped.  Cells run on
    every CPU of the affinity mask, each process's share as one lockstep
    batch (see :func:`_map_cells`).
    """
    cells = [(seed_index, snr_db) for snr_db in config.snr_grid_db for seed_index in range(config.seeds)]
    results = iter(_map_cells(_run_cells, config, cells))
    rows = []
    for snr_db in config.snr_grid_db:
        rates, si_powers, crbs, sq_errors = [], [], [], []
        feasible = 0
        for metrics in itertools.islice(results, config.seeds):
            if metrics is None:
                continue
            feasible += 1
            rates.append(metrics["rate_bps_hz"])
            si_powers.append(metrics["si_power"])
            crbs.append(metrics["crb_rad2"])
            sq_errors.extend(metrics["sq_errors"])
        row = {
            "scheme": config.scheme,
            "snr_db": float(snr_db),
            "feasible_seeds": feasible,
            "total_seeds": config.seeds,
            "status": "ok" if feasible > 0 else "infeasible",
            "rate_bps_hz": float(np.mean(rates)) if rates else math.nan,
            "si_power_db": _mean_db(si_powers),
            "crb_rad2": _nanmean(crbs),
            "mse_rad2": float(np.mean(sq_errors)) if sq_errors else math.nan,
        }
        rows.append(row)
    return rows


def _study_point(config: ExperimentConfig, target_angle: float, coeffs: PathCoefficients, snr_db: float):
    """The :func:`monte_carlo_mse` row of one SNR point."""
    scene = _scene(config, target_angle)
    channels = _channel_set(config, scene, [config.root_seed, 100], snr_db)
    result = jcas_optimize(scene, channels, _jcas_config(config, config.root_seed), coeffs=coeffs)
    seeds = [config.root_seed + trial for trial in range(config.mse_trials)]
    estimates = estimate_angles(config, scene, channels, coeffs, result, seeds)
    return {
        "snr_db": snr_db,
        "mse_rad2": float(np.mean([(e - scene.target_angle) ** 2 for e in estimates])),
        "crb_rad2": design_bound(scene, channels, coeffs, result, config.snapshots),
        "trials": config.mse_trials,
    }


def _study_points(config: ExperimentConfig, points) -> list:
    """The :func:`monte_carlo_mse` rows of ``(target_angle, coeffs, snr_db)`` points, one at a time."""
    return [_study_point(config, *point) for point in points]


def monte_carlo_mse(config: ExperimentConfig, target_angle: float, coeffs: PathCoefficients):
    """Estimation error versus the bound across the configured SNR grid.

    The scene is the configured one with the target at ``target_angle``,
    and ``coeffs`` sets the echo paths.  For each SNR point, one channel
    realization (stream ``[root_seed, 100]``) is drawn, the scheme's joint
    design is optimized from the phase start ``seed=root_seed``, and
    ``mse_trials`` snapshot batches (seeds ``root_seed + trial``) are
    estimated; the row reports the empirical mean squared angle error next
    to the bound for ``snapshots`` samples at the optimized design.  The
    study reads no ``seeds``, ``direct_path_mag``, ``ris_path_mag`` or
    ``output_dir``.  Returns a list of dict rows with keys snr_db,
    mse_rad2, crb_rad2, trials, in grid order.

    The points run on every CPU like the cells of :func:`run_scheme` (see
    :func:`_map_cells`).  An infeasible point raises CrbInfeasibleError;
    when several fail, this process runs its own share first, so the error
    raised may be that of a later failing point than the first one.
    """
    if config.mse_trials < 1:
        raise ConfigError("mse_trials must be >= 1 for the MSE study")
    require_noise_subspace(config, "for the MSE study")
    return _map_cells(_study_points, config, [(target_angle, coeffs, snr_db) for snr_db in config.snr_grid_db])


def _nanmean(values):
    values = [v for v in values if not math.isnan(v)]
    return float(np.mean(values)) if values else math.nan


def _mean_db(values):
    mean = _nanmean(values)
    return 10.0 * math.log10(mean) if mean > 0.0 else math.nan


def _format(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def emit_outputs(results, output_dir) -> list:
    """Write one CSV per scheme plus a combined long-format table.

    Returns the written paths.  Numbers are rendered with ``repr`` so a
    rerun with identical inputs reproduces the files byte for byte;
    missing metrics become empty cells, never NaN text.
    """
    os.makedirs(output_dir, exist_ok=True)
    paths = []
    by_scheme = {}
    for row in results:
        by_scheme.setdefault(row["scheme"], []).append(row)
    header = [
        "scheme",
        "snr_db",
        *METRIC_COLUMNS,
        "feasible_seeds",
        "total_seeds",
        "status",
    ]
    for scheme in sorted(by_scheme):
        path = os.path.join(output_dir, f"{scheme}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in sorted(by_scheme[scheme], key=lambda r: r["snr_db"]):
                writer.writerow([_format(row.get(col, "")) for col in header])
        paths.append(path)
    combined = os.path.join(output_dir, "combined.csv")
    with open(combined, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "snr_db", "metric", "value"])
        for scheme in sorted(by_scheme):
            for row in sorted(by_scheme[scheme], key=lambda r: r["snr_db"]):
                for metric in METRIC_COLUMNS:
                    value = row.get(metric, math.nan)
                    if isinstance(value, float) and math.isnan(value):
                        continue
                    writer.writerow([scheme, _format(row["snr_db"]), metric, _format(value)])
    paths.append(combined)
    return paths
