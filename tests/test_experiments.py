import csv
import dataclasses
import importlib
import inspect
import math
import multiprocessing
import os
import pickle
import pkgutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import fdjcas
from fdjcas import cli, experiments
from fdjcas.channels import build_channel_set
from fdjcas.crb import UnobservableError
from fdjcas.estimation import CovarianceRankError
from fdjcas.experiments import (
    ConfigError,
    ExperimentConfig,
    SCHEMES,
    build_cell,
    emit_outputs,
    estimate_angles,
    load_config,
    monte_carlo_mse,
    run_scheme,
    scheme_flags,
)
from fdjcas.geometry import InfeasibleGeometryError
from fdjcas.optimizer import CrbInfeasibleError, jcas_optimize
from fdjcas.steering import PathCoefficients

FAST = dict(
    n_bs_tx=6, n_bs_rx=4, n_user=3, ris_rows=3, ris_cols=3, n_streams=2,
    seeds=2, snr_grid_db=(10.0,), mse_trials=0, crb_threshold=math.inf,
)


class TestConfig:
    def test_defaults_are_reference_scenario(self):
        config = ExperimentConfig()
        assert (config.n_bs_tx, config.n_bs_rx, config.n_user) == (15, 10, 5)
        assert (config.ris_rows, config.ris_cols) == (10, 10)
        assert config.n_streams == 2
        assert config.crb_threshold == 0.01
        assert config.user_range == 80.0
        assert config.target_range == 50.0
        assert config.bs_ris_angle_deg == 30.0
        assert config.bs_ris_distance == 5.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="bogus")

    def test_unsorted_snr_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_grid_db=(10.0, 0.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snr_grid_db", (math.nan,)),
            ("snr_grid_db", (-math.inf,)),
            ("snr_grid_db", (0.0, math.inf)),
            ("snr_grid_db", ()),
            ("crb_threshold", math.nan),
            ("crb_threshold", 0.0),
            ("crb_threshold", -1.0),
            ("power_budget", math.nan),
            ("power_budget", math.inf),
            ("power_budget", 0.0),
            ("snapshots", 0),
            ("grid_resolution", math.nan),
            ("grid_resolution", math.inf),
            ("grid_resolution", 0.0),
            ("max_outer", -1),
            ("outer_tol", -1.0),
            ("outer_tol", 0.0),
            ("outer_tol", math.nan),
            ("residual_factor", -1.0),
            ("wavelength", math.nan),
            ("wavelength", 0.0),
            ("nlos_si_power", -1.0),
            ("ris_path_mag", math.nan),
            ("direct_path_mag", -1.0),
            ("user_range", math.inf),
            ("n_bs_tx", 0),
            ("n_user", 0),
            ("seeds", 0),
            ("mse_trials", -1),
            ("root_seed", -1),
            ("n_streams", 0),
            # more streams than transmit antennas
            ("n_streams", 16),
            ("n_streams", 20),
            # MUSIC needs n_streams < n_bs_rx when the MSE column is on
            ("n_streams", 10),
            ("output_dir", ""),
            ("output_dir", 5),
            ("output_dir", ["a"]),
            # distances of the scene, which mirrors a negative user range
            ("user_range", 0.0),
            ("user_range", -80.0),
            ("target_range", 0.0),
            ("target_range", -5.0),
            ("bs_ris_distance", 0.0),
            # MUSIC needs at least n_streams snapshots when the MSE column is on
            ("snapshots", 1),
            # a sensing scheme first checks its bound in outer iteration 1
            ("max_outer", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_bs_tx", 0, "n_bs_tx must be >= 1"),
            ("mse_trials", -1, "mse_trials must be >= 0"),
            ("snapshots", 0, "snapshots must be >= 1"),
        ],
    )
    def test_message_names_only_the_failing_key(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{field: value})
        assert str(err.value) == message

    def test_max_outer_zero_without_an_enforced_bound(self):
        for scheme in ("ris_comm_only", "no_ris_comm_only"):
            assert ExperimentConfig(scheme=scheme, max_outer=0).max_outer == 0
        assert ExperimentConfig(crb_threshold=math.inf, max_outer=0).max_outer == 0
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(scheme="no_ris_with_sensing", max_outer=0)
        assert str(err.value) == "max_outer must be >= 1 for a sensing scheme with a finite crb_threshold"

    def test_streams_up_to_receive_array_without_music(self):
        assert ExperimentConfig(n_streams=10, scheme="ris_comm_only").n_streams == 10
        assert ExperimentConfig(n_streams=15, mse_trials=0).n_streams == 15

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration file", 1)[1]
        block = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
        keys = [key for group in block.values() for key in group]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        assert ExperimentConfig.from_dict(block) == ExperimentConfig()

    def test_yaml_round_trip(self, tmp_path):
        config = ExperimentConfig(scheme="ris_comm_only", seeds=3, snr_grid_db=(0.0, 5.0))
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config.to_dict()))
        again = load_config(path)
        assert again == config

    def test_nested_yaml_groups(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "run": {"scheme": "no_ris_comm_only", "seeds": 4},
                    "scene": {"n_bs_tx": 8},
                }
            )
        )
        config = load_config(path)
        assert config.scheme == "no_ris_comm_only"
        assert config.seeds == 4
        assert config.n_bs_tx == 8

    @pytest.mark.parametrize(
        "text",
        [
            "n_bs_tx: 8\nscene: {n_bs_tx: 6}\n",
            "scene: {n_bs_tx: 6}\nn_bs_tx: 8\n",
            "scene: {n_bs_tx: 6}\narrays: {n_bs_tx: 6}\n",
        ],
    )
    def test_key_given_twice_rejected(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="'n_bs_tx' is given twice"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("bogus_key: 1\n")
        with pytest.raises(ConfigError):
            load_config(path)
        # keys of mixed types are reported, not compared
        path.write_text("1: 2\nbogus: 3\n")
        with pytest.raises(ConfigError, match=r"unknown configuration keys: \[1, 'bogus'\]"):
            load_config(path)
        # a file that is not UTF-8 names the undecodable byte
        path.write_bytes(b"seeds: 2  # \xff\n")
        with pytest.raises(ConfigError, match="can't decode byte 0xff"):
            load_config(path)

    def test_scheme_flags(self):
        assert scheme_flags("ris_with_sensing") == (True, True)
        assert scheme_flags("no_ris_comm_only") == (False, False)


class TestRunScheme:
    def test_single_cell_deterministic(self):
        config = ExperimentConfig(scheme="ris_comm_only", **{**FAST, "seeds": 1})
        assert run_scheme(config) == run_scheme(config)

    def test_no_ris_results_independent_of_surface_geometry(self):
        base = {**FAST, "seeds": 1}
        small = ExperimentConfig(scheme="no_ris_comm_only", **base)
        large = ExperimentConfig(scheme="no_ris_comm_only", **{**base, "ris_rows": 5, "ris_cols": 4})
        assert run_scheme(small) == run_scheme(large)

    def test_sensing_rows_carry_metrics(self):
        config = ExperimentConfig(
            scheme="ris_with_sensing",
            **{**FAST, "crb_threshold": 0.05, "mse_trials": 2, "snapshots": 16},
        )
        rows = run_scheme(config)
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] in ("ok", "infeasible")
        if row["status"] == "ok":
            assert np.isfinite(row["rate_bps_hz"])
            assert np.isfinite(row["crb_rad2"])
            assert np.isfinite(row["mse_rad2"])

    def test_rows_equal_the_composed_cells(self):
        # snapshot seeds root_seed + seed_index * trials + trial,
        # trials = max(1, mse_trials // seeds)
        config = ExperimentConfig(
            scheme="ris_with_sensing",
            **{
                **FAST, "root_seed": 7, "seeds": 2, "mse_trials": 4, "crb_threshold": 1.0,
                "snapshots": 16, "grid_resolution": 1e-2,
            },
        )
        rates, crbs, sq_errors = [], [], []
        for seed_index in range(2):
            scene, channels, jcas, coeffs = build_cell(config, seed_index, 10.0)
            result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
            rates.append(result.trace.rate_bps_hz[-1])
            crbs.append(result.trace.crb[-1])
            seeds = [7 + seed_index * 2 + trial for trial in range(2)]
            estimates = estimate_angles(config, scene, channels, coeffs, result, seeds)
            sq_errors.extend((e - scene.target_angle) ** 2 for e in estimates)
        (row,) = run_scheme(config)
        assert row["feasible_seeds"] == 2
        assert row["rate_bps_hz"] == float(np.mean(rates))
        assert row["crb_rad2"] == float(np.mean(crbs))
        assert row["mse_rad2"] == float(np.mean(sq_errors))

    def test_infeasible_point_flagged_not_dropped(self):
        config = ExperimentConfig(
            scheme="ris_with_sensing", **{**FAST, "crb_threshold": 1e-30}
        )
        rows = run_scheme(config)
        assert rows[0]["status"] == "infeasible"
        assert rows[0]["feasible_seeds"] == 0
        assert math.isnan(rows[0]["rate_bps_hz"])


class TestEmitOutputs:
    def test_empty_results_header_only(self, tmp_path):
        paths = emit_outputs([], tmp_path)
        assert len(paths) == 1
        lines = Path(paths[0]).read_text().strip().splitlines()
        assert lines == ["scheme,snr_db,metric,value"]

    def test_long_format_row_count(self, tmp_path):
        rows = []
        for scheme in ("a_scheme", "b_scheme"):
            for snr in (0.0, 5.0, 10.0):
                rows.append(
                    {
                        "scheme": scheme, "snr_db": snr, "rate_bps_hz": 1.0 + snr,
                        "si_power_db": -3.0, "crb_rad2": 1e-3, "mse_rad2": 2e-3,
                        "feasible_seeds": 2, "total_seeds": 2, "status": "ok",
                    }
                )
        paths = emit_outputs(rows, tmp_path)
        combined = [p for p in paths if p.endswith("combined.csv")][0]
        with open(combined) as fh:
            data = list(csv.DictReader(fh))
        for metric in ("rate_bps_hz", "si_power_db", "crb_rad2", "mse_rad2"):
            assert sum(1 for r in data if r["metric"] == metric) == 6

    def test_round_trip_exact_values(self, tmp_path):
        rows = [
            {
                "scheme": "ris_comm_only", "snr_db": 12.5, "rate_bps_hz": 1.0 / 3.0,
                "si_power_db": -17.123456789012345, "crb_rad2": 9.87e-7, "mse_rad2": float("nan"),
                "feasible_seeds": 5, "total_seeds": 5, "status": "ok",
            }
        ]
        paths = emit_outputs(rows, tmp_path)
        per_scheme = [p for p in paths if p.endswith("ris_comm_only.csv")][0]
        with open(per_scheme) as fh:
            back = list(csv.DictReader(fh))[0]
        assert float(back["rate_bps_hz"]) == rows[0]["rate_bps_hz"]
        assert float(back["si_power_db"]) == rows[0]["si_power_db"]
        assert back["mse_rad2"] == ""  # missing metric stays empty, not NaN text

    def test_nan_never_written(self, tmp_path):
        rows = [
            {
                "scheme": "no_ris_comm_only", "snr_db": 0.0, "rate_bps_hz": float("nan"),
                "si_power_db": float("nan"), "crb_rad2": float("nan"), "mse_rad2": float("nan"),
                "feasible_seeds": 0, "total_seeds": 2, "status": "infeasible",
            }
        ]
        paths = emit_outputs(rows, tmp_path)
        for path in paths:
            assert "nan" not in Path(path).read_text().lower().replace("nan_", "")


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fdjcas.cli", *args],
            capture_output=True, text=True,
        )

    def test_run_deterministic_byte_identical(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "scheme": "ris_comm_only",
                    "n_bs_tx": 6, "n_bs_rx": 4, "n_user": 3,
                    "ris_rows": 3, "ris_cols": 3,
                    "snr_grid_db": [0.0, 10.0], "seeds": 2, "mse_trials": 0,
                    "output_dir": str(tmp_path / "out1"),
                }
            )
        )
        first = self._run("run", str(config))
        assert first.returncode == 0, first.stderr
        second = self._run("run", str(config), "--out", str(tmp_path / "out2"))
        assert second.returncode == 0, second.stderr
        a = (tmp_path / "out1" / "ris_comm_only.csv").read_bytes()
        b = (tmp_path / "out2" / "ris_comm_only.csv").read_bytes()
        assert a == b

    def test_config_error_exit_code(self):
        result = self._run("run", "/nonexistent/config.yaml")
        assert result.returncode == 1

    def test_unwritable_output_exit_code(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "scheme": "no_ris_comm_only",
                    "n_bs_tx": 6, "n_bs_rx": 4, "n_user": 3,
                    "ris_rows": 3, "ris_cols": 3,
                    "snr_grid_db": [10.0], "seeds": 1, "mse_trials": 0,
                }
            )
        )
        result = self._run("run", str(config), "--out", "/proc/version/cannot_write_here")
        assert result.returncode == 2
        assert result.stderr.strip() != ""

    def test_env_var_names_default_config(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "scheme": "no_ris_comm_only",
                    "n_bs_tx": 6, "n_bs_rx": 4, "n_user": 3,
                    "ris_rows": 3, "ris_cols": 3,
                    "snr_grid_db": [10.0], "seeds": 1, "mse_trials": 0,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        env = {**os.environ, "FDJCAS_CONFIG": str(config)}
        result = subprocess.run(
            [sys.executable, "-m", "fdjcas.cli", "run"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "no_ris_comm_only.csv").exists()


def separate_cell(config, seed_index, snr_db):
    """One cell built from the scene and channel builders on the streams
    :func:`build_cell` documents, with every link synthesized afresh."""
    angle = np.random.default_rng([config.root_seed, seed_index, 1]).uniform(-np.pi / 2, np.pi / 2)
    scene = experiments._scene(config, angle)
    noise = config.power_budget / 10.0 ** (snr_db / 10.0)
    channels = build_channel_set(
        scene, n_user_antennas=config.n_user, nlos_si_power=config.nlos_si_power,
        seed=[config.root_seed, seed_index, 2], noise_user=noise, noise_radar=noise,
    )
    coeffs = PathCoefficients.random(
        [config.root_seed, seed_index, 3], direct_mag=config.direct_path_mag, ris_mag=config.ris_path_mag
    )
    seed = int(np.random.default_rng([config.root_seed, seed_index, 4]).integers(2**31))
    return scene, channels, experiments._jcas_config(config, seed), coeffs


def assert_same_cell(got, expected):
    """Scene, channels, solver options and coefficients equal bit for bit."""

    def exact(value):
        # repr keeps the type: ``fdjcas crb`` prints the target angle's repr
        return value.tobytes() if isinstance(value, np.ndarray) else repr(value)

    for part, part_e in zip(got[:2], expected[:2]):
        for field in dataclasses.fields(part):
            assert exact(getattr(part, field.name)) == exact(getattr(part_e, field.name)), field.name
    assert got[2:] == expected[2:]


class TestBuildCell:
    def test_schemes_share_channel_randomness(self):
        sensing = ExperimentConfig(scheme="ris_with_sensing", **FAST)
        comm = ExperimentConfig(scheme="ris_comm_only", **FAST)
        scene_a, ch_a, _, _ = build_cell(sensing, 0, 10.0)
        scene_b, ch_b, _, _ = build_cell(comm, 0, 10.0)
        assert np.array_equal(ch_a.si_nlos, ch_b.si_nlos)
        assert scene_a.target_angle == scene_b.target_angle

    def test_all_schemes_produce_runnable_cells(self):
        for scheme in SCHEMES:
            config = ExperimentConfig(scheme=scheme, **{**FAST, "crb_threshold": 0.05})
            scene, channels, jcas, coeffs = build_cell(config, 0, 10.0)
            assert (jcas.ris_enabled, jcas.sensing_enabled) == scheme_flags(scheme)
            assert jcas.crb_threshold == config.crb_threshold

    @pytest.mark.parametrize("nlos_si_power", [0.0, 0.01])
    def test_cells_of_a_share_get_their_build_cell_bytes(self, nlos_si_power):
        # a share of a run mixes seed indices and SNR points; its scene and
        # links are built once, the rest per cell
        config = ExperimentConfig(scheme="ris_with_sensing", **{**FAST, "seeds": 3, "nlos_si_power": nlos_si_power})
        cells = [(2, 0.0), (0, 10.0), (2, 30.0), (1, 10.0), (0, 0.0)]
        built = experiments._build_cells(config, cells)
        assert len(built) == len(cells)
        for (seed_index, snr_db), cell in zip(cells, built):
            for expected in (build_cell(config, seed_index, snr_db), separate_cell(config, seed_index, snr_db)):
                assert_same_cell(cell, expected)

    def test_degenerate_geometry_raises_at_the_first_cell(self):
        # the user on the surface's reference element has no angle
        config = ExperimentConfig(**{**FAST, "user_range": 5.0, "user_angle_deg": 30.0})
        with pytest.raises(InfeasibleGeometryError) as alone:
            build_cell(config, 1, 10.0)
        with pytest.raises(InfeasibleGeometryError) as share:
            experiments._build_cells(config, [(1, 10.0), (0, 0.0)])
        assert str(share.value) == str(alone.value) == "point coincides with the RIS reference element"

    @pytest.mark.parametrize("scheme", ["no_ris_with_sensing", "no_ris_comm_only"])
    @pytest.mark.parametrize("seed_index", [0, 1])
    def test_no_ris_equals_zeroed_surface_links(self, scheme, seed_index):
        config = ExperimentConfig(scheme=scheme, **{**FAST, "crb_threshold": 0.05})
        scene, channels, jcas, coeffs = build_cell(config, seed_index, 10.0)
        zero = np.zeros_like
        bare = dataclasses.replace(
            channels,
            ris_to_user=zero(channels.ris_to_user),
            bs_to_ris=zero(channels.bs_to_ris),
            ris_to_bs=zero(channels.ris_to_bs),
        )
        direct_only = dataclasses.replace(
            coeffs, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0
        )
        result = jcas_optimize(scene, channels, jcas, coeffs)
        expected = jcas_optimize(scene, bare, jcas, direct_only)
        assert np.all(result.ris_phase == 0.0)
        assert np.array_equal(result.precoder, expected.precoder)
        for name in ("iteration", "objective", "rate_bps_hz", "si_power", "crb", "lambda0"):
            np.testing.assert_array_equal(
                getattr(result.trace, name), getattr(expected.trace, name), err_msg=name
            )


TEST_PID = os.getpid()
RUN_CELLS = experiments._run_cells
STUDY_POINT = experiments._study_point


def _cells_where(config, cells):
    """Each cell, the process that ran it, its OpenBLAS thread count (None
    without OpenBLAS) and the share it ran in."""
    blas = experiments._openblas_threads()
    return [(*cell, os.getpid(), blas[0]() if blas else None, list(cells)) for cell in cells]


def _study_point_where(config, target_angle, coeffs, snr_db):
    """``_study_point`` with the process that ran it."""
    return {**STUDY_POINT(config, target_angle, coeffs, snr_db), "pid": os.getpid()}


def _cells_failing_in_worker(config, cells):
    if os.getpid() != TEST_PID:
        seed_index, snr_db = cells[0]
        raise ValueError(f"cell {seed_index} at {snr_db} dB failed")
    return RUN_CELLS(config, cells)


@pytest.fixture()
def time_bound():
    """Fail a test that runs for more than a minute instead of stalling:
    kill the worker processes and raise in the test."""

    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError("time bound of 60 s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, n):
    """Make the affinity mask hold ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.usefixtures("time_bound")
class TestCellPool:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_parallel_rows_equal_serial_rows(self, monkeypatch, scheme):
        # at 1e-3 every sensing cell at 0 dB is infeasible
        config = ExperimentConfig(
            scheme=scheme,
            **{**FAST, "seeds": 3, "snr_grid_db": (0.0, 20.0), "mse_trials": 6, "crb_threshold": 1e-3},
        )
        _cpus(monkeypatch, 2)
        parallel = run_scheme(config)
        assert multiprocessing.active_children() == []
        _cpus(monkeypatch, 1)
        serial = run_scheme(config)
        assert parallel == serial
        if scheme.endswith("with_sensing"):
            assert [row["status"] for row in serial] == ["infeasible", "ok"]
            assert not math.isnan(serial[1]["mse_rad2"])

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("seeds, grid", [(3, (0.0, 20.0)), (1, (0.0, 10.0, 20.0))])
    def test_rows_equal_on_one_two_and_three_cpus(self, monkeypatch, scheme, seeds, grid):
        # each process runs its share as one lockstep batch: the 6 cells of
        # the first grid in shares of 6, 3 and 2, the 3 cells of the second
        # in shares of 3, 2 and 1; at 1e-3 the sensing cells at 0 dB are infeasible
        config = ExperimentConfig(
            scheme=scheme,
            **{**FAST, "seeds": seeds, "snr_grid_db": grid, "mse_trials": 6, "crb_threshold": 1e-3},
        )
        rows = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            rows.append(run_scheme(config))
            assert multiprocessing.active_children() == []
        assert rows[0] == rows[1] == rows[2]
        if scheme.endswith("with_sensing"):
            assert rows[0][0]["status"] == "infeasible"

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_cells_run_in_order_with_one_blas_thread(self, monkeypatch, cpus):
        blas = experiments._openblas_threads()
        if blas is None:
            pytest.skip("numpy does not use OpenBLAS: cells run in this process")
        get_threads, set_threads = blas
        _cpus(monkeypatch, cpus)
        cells = [(seed_index, snr_db) for snr_db in (0.0, 5.0) for seed_index in range(3)]
        original = get_threads()
        set_threads(2)
        try:
            done = experiments._map_cells(_cells_where, ExperimentConfig(**FAST), cells)
            after = get_threads()
        finally:
            set_threads(original)
        assert [cell[:2] for cell in done] == cells
        pids = [cell[2] for cell in done]
        # this process runs every ``cpus``-th cell, workers the rest, and
        # each process runs its share ``cells[i::cpus]`` in one call
        assert [pid == TEST_PID for pid in pids] == [i % cpus == 0 for i in range(len(cells))]
        assert [cell[4] for cell in done] == [cells[i % cpus :: cpus] for i in range(len(cells))]
        assert {cell[3] for cell in done} == ({2} if cpus == 1 else {1})
        assert after == 2
        assert multiprocessing.active_children() == []

    def test_other_threads_keep_cells_in_process(self, monkeypatch):
        _cpus(monkeypatch, 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            done = experiments._map_cells(_cells_where, ExperimentConfig(**FAST), [(0, 0.0), (1, 0.0)])
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert [cell[2] for cell in done] == [TEST_PID, TEST_PID]

    def test_study_points_on_the_pool_equal_serial_points(self, monkeypatch):
        if experiments._openblas_threads() is None:
            pytest.skip("numpy does not use OpenBLAS: points run in this process")
        monkeypatch.setattr(experiments, "_study_point", _study_point_where)
        config = ExperimentConfig(
            **{**FAST, "snr_grid_db": (0.0, 10.0, 20.0), "mse_trials": 2, "snapshots": 16},
            grid_resolution=1e-2,
        )
        _cpus(monkeypatch, 2)
        parallel = monte_carlo_mse(config, np.deg2rad(20.0), PathCoefficients.random(3))
        assert multiprocessing.active_children() == []
        _cpus(monkeypatch, 1)
        serial = monte_carlo_mse(config, np.deg2rad(20.0), PathCoefficients.random(3))
        # this process runs every second point, the worker the other
        assert [row.pop("pid") == TEST_PID for row in parallel] == [True, False, True]
        assert [row.pop("pid") for row in serial] == [TEST_PID] * 3
        assert parallel == serial
        assert [row["snr_db"] for row in serial] == [0.0, 10.0, 20.0]

    def test_worker_error_reaches_caller(self, monkeypatch, tmp_path, capsys):
        if experiments._openblas_threads() is None:
            pytest.skip("numpy does not use OpenBLAS: cells run in this process")
        monkeypatch.setattr(experiments, "_run_cells", _cells_failing_in_worker)
        _cpus(monkeypatch, 2)
        config = ExperimentConfig(scheme="no_ris_comm_only", **FAST)
        with pytest.raises(ValueError) as err:
            run_scheme(config)
        assert type(err.value) is ValueError
        assert str(err.value) == "cell 1 at 10.0 dB failed"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(config.to_dict()))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == "error: cell 1 at 10.0 dB failed\n"
        assert multiprocessing.active_children() == []


def _fdjcas_error_classes():
    classes = set()
    for info in pkgutil.iter_modules(fdjcas.__path__):
        module = importlib.import_module(f"fdjcas.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, Exception) and obj.__module__.startswith("fdjcas"):
                classes.add(obj)
    return classes


ERRORS = [
    CrbInfeasibleError(0.5, 0.01, "outer iteration 3"),
    CrbInfeasibleError(2.5e-3, 1e-3),
    UnobservableError("no information about the target angle"),
    CovarianceRankError("rank 1 below subspace dimension 2"),
    ConfigError("seeds must be >= 1"),
    InfeasibleGeometryError("arccos argument 1.5 out of range"),
]


def test_error_list_covers_every_fdjcas_error():
    assert {type(e) for e in ERRORS} == _fdjcas_error_classes()


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    """A worker process sends its error back pickled."""
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)
