"""In-process tests of the ``crb`` and ``estimate`` commands: each printed
number must equal the same quantity composed from the library functions."""

import dataclasses

import numpy as np
import pytest
import yaml

from fdjcas import cli
from fdjcas.crb import aoa_crb
from fdjcas.estimation import music_estimate, simulate_snapshots
from fdjcas.experiments import ExperimentConfig, build_cell
from fdjcas.optimizer import jcas_optimize
from fdjcas.steering import build_sensing_context

SMALL = dict(
    n_bs_tx=6, n_bs_rx=4, n_user=3, ris_rows=3, ris_cols=3, n_streams=2,
    seeds=2, snr_grid_db=[10.0], mse_trials=0, crb_threshold=0.05,
    snapshots=16, root_seed=3,
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(SMALL))
    return path


@pytest.mark.parametrize(
    "argv",
    [["run", "--snr", "nan"], ["run", "--snr", "0,-inf"], ["crb", "--snr-db", "nan"]],
)
def test_non_finite_snr_is_a_config_error(capsys, monkeypatch, argv):
    monkeypatch.delenv("FDJCAS_CONFIG", raising=False)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _printed(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.strip().splitlines())


def _bound(scene, channels, coeffs, precoder, phi):
    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
    return aoa_crb(precoder, ctx.path_response_deriv, ctx.noise_cov)


@pytest.mark.parametrize("seed, snr_db", [(0, None), (1, 5.0)])
def test_crb_at_initial_point(capsys, config_path, seed, snr_db):
    argv = ["crb", str(config_path), "--seed", str(seed)]
    if snr_db is not None:
        argv += ["--snr-db", str(snr_db)]
    printed = _printed(capsys, argv)
    config = ExperimentConfig(**SMALL)
    snr = config.snr_grid_db[0] if snr_db is None else snr_db
    scene, channels, coeffs, jcas = build_cell(config, seed, snr)
    start = jcas_optimize(scene, channels, dataclasses.replace(jcas, max_outer=0), coeffs=coeffs)
    expected = _bound(scene, channels, coeffs, start.precoder, start.ris_phase)
    assert printed == {
        "target_angle_rad": repr(scene.target_angle),
        "snr_db": repr(snr),
        "crb_rad2": repr(expected),
        "threshold_rad2": repr(config.crb_threshold),
        "satisfied": str(expected <= config.crb_threshold),
    }


def test_crb_at_optimized_point(capsys, config_path):
    printed = _printed(capsys, ["crb", str(config_path), "--optimize"])
    config = ExperimentConfig(**SMALL)
    scene, channels, coeffs, jcas = build_cell(config, 0, 10.0)
    result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
    expected = _bound(scene, channels, coeffs, result.precoder, result.ris_phase)
    assert printed["crb_rad2"] == repr(expected)
    assert printed["satisfied"] == "True"


@pytest.mark.parametrize("scheme", ["ris_comm_only", "no_ris_comm_only"])
@pytest.mark.parametrize("optimize", [[], ["--optimize"]])
def test_crb_of_comm_only_design_has_no_bound(capsys, tmp_path, scheme, optimize):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**SMALL, "scheme": scheme}))
    printed = _printed(capsys, ["crb", str(path), *optimize])
    assert printed["threshold_rad2"] == "inf"
    assert printed["satisfied"] == "True"
    assert 0.0 < float(printed["crb_rad2"]) < float("inf")


def test_estimate_uses_root_seed_snapshots(capsys, config_path):
    printed = _printed(capsys, ["estimate", str(config_path), "--seed", "1"])
    config = ExperimentConfig(**SMALL)
    scene, channels, coeffs, jcas = build_cell(config, 1, 10.0)
    result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
    (batch,) = simulate_snapshots(
        scene, channels, result.precoder, result.ris_phase, coeffs, config.snapshots,
        seeds=[config.root_seed], residual_factor=config.residual_factor,
    )
    estimate = music_estimate(batch, config.n_streams, config.grid_resolution)
    assert printed == {
        "true_angle_rad": repr(scene.target_angle),
        "estimate_rad": repr(estimate),
        "error_rad": repr(estimate - scene.target_angle),
    }
    assert np.isfinite(estimate)


@pytest.mark.parametrize("mse_trials", [0, 4])
@pytest.mark.parametrize(
    "scheme", ["ris_with_sensing", "no_ris_with_sensing", "ris_comm_only", "no_ris_comm_only"]
)
def test_estimate_without_noise_subspace_is_a_config_error(
    capsys, tmp_path, monkeypatch, scheme, mse_trials
):
    path = tmp_path / "config.yaml"
    path.write_text(
        yaml.safe_dump({**SMALL, "n_streams": 4, "scheme": scheme, "mse_trials": mse_trials})
    )
    optimized = []
    monkeypatch.setattr(cli, "jcas_optimize", lambda *a, **k: optimized.append(a))
    assert cli.main(["estimate", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "n_streams" in err
    assert optimized == []


@pytest.mark.parametrize("command", ["crb", "estimate"])
def test_negative_seed_is_a_config_error(capsys, config_path, monkeypatch, command):
    optimized = []
    monkeypatch.setattr(cli, "jcas_optimize", lambda *a, **k: optimized.append(a))
    assert cli.main([command, str(config_path), "--seed", "-1"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "--seed" in err
    assert optimized == []


def test_residual_si_mode_key_is_gone(capsys, tmp_path):
    # none -> residual_factor: 0, full -> residual_factor: 1
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({**SMALL, "residual_si_mode": "none"}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown configuration keys: ['residual_si_mode']\n"


@pytest.mark.parametrize(
    "key, value",
    [
        ("snr_grid_db", ["abc"]),
        ("snr_grid_db", "05"),
        ("seeds", "abc"),
        ("seeds", True),
        ("max_outer", "abc"),
        ("outer_tol", "abc"),
        ("power_budget", [1.0]),
        ("--snr", "abc"),
    ],
)
def test_non_numeric_value_is_a_config_error(capsys, tmp_path, key, value):
    path = tmp_path / "config.yaml"
    argv = ["run", str(path), "--out", str(tmp_path / "out")]
    if key.startswith("--"):
        path.write_text(yaml.safe_dump(SMALL))
        argv += [key, value]
    else:
        path.write_text(yaml.safe_dump({**SMALL, key: value}))
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert key in err
