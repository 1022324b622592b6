import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fdjcas.experiments import (
    ConfigError,
    ExperimentConfig,
    SCHEMES,
    build_cell,
    emit_outputs,
    load_config,
    run_scheme,
    save_config,
    scheme_flags,
)
from fdjcas.optimizer import jcas_optimize

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
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_yaml_round_trip(self, tmp_path):
        config = ExperimentConfig(scheme="ris_comm_only", seeds=3, snr_grid_db=(0.0, 5.0))
        path = tmp_path / "config.yaml"
        save_config(config, path)
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

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("bogus_key: 1\n")
        with pytest.raises(ConfigError):
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
            scene, channels, coeffs, jcas = build_cell(config, 0, 10.0)
            assert (jcas.ris_enabled, jcas.sensing_enabled) == scheme_flags(scheme)
            assert jcas.crb_threshold == config.crb_threshold

    @pytest.mark.parametrize("scheme", ["no_ris_with_sensing", "no_ris_comm_only"])
    @pytest.mark.parametrize("seed_index", [0, 1])
    def test_no_ris_equals_zeroed_surface_links(self, scheme, seed_index):
        config = ExperimentConfig(scheme=scheme, **{**FAST, "crb_threshold": 0.05})
        scene, channels, coeffs, jcas = build_cell(config, seed_index, 10.0)
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
        for name in ("iteration", "objective", "rate_bps_hz", "si_power", "crb", "lambda0", "mu_k"):
            np.testing.assert_array_equal(
                getattr(result.trace, name), getattr(expected.trace, name), err_msg=name
            )
