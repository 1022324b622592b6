import os
from pathlib import Path

import numpy as np
import pytest

from fdjcas.channels import build_channel_set
from fdjcas.geometry import build_scene
from fdjcas.optimizer import JcasConfig
from fdjcas.steering import PathCoefficients

# pytest imports fdjcas from ``src`` (``pythonpath`` in pyproject.toml); the
# tests that run ``python -m fdjcas`` in a subprocess get the same sources
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def reference_scene():
    """Reference scenario dimensions: 15x10 arrays, 10x10 surface."""
    return build_scene(target_angle=np.deg2rad(20.0))


@pytest.fixture(scope="session")
def small_scene():
    """Reduced dimensions for fast optimizer tests."""
    return build_scene(
        n_bs_tx=6,
        n_bs_rx=4,
        ris_rows=3,
        ris_cols=3,
        target_angle=np.deg2rad(15.0),
    )


@pytest.fixture()
def small_channels(small_scene):
    return build_channel_set(
        small_scene, n_user_antennas=3, nlos_si_power=0.01, seed=0,
        noise_user=0.1, noise_radar=0.1,
    )


def random_unit_modulus(n, rng):
    return np.exp(2j * np.pi * rng.random(n))


def central_difference(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def acceptance_fixture_cell(seed):
    """Cell ``seed`` of the acceptance suite's ``reference_runs`` fixture,
    as (scene, channels, config, coeffs): reference dimensions at 12 dB,
    unit power budget and the bound at 0.01."""
    noise = 10.0 ** (-1.2)
    rng = np.random.default_rng([9, seed])
    scene = build_scene(target_angle=rng.uniform(-np.pi / 4, np.pi / 4))
    channels = build_channel_set(
        scene, n_user_antennas=5, nlos_si_power=0.01, seed=[9, seed, 1],
        noise_user=noise, noise_radar=noise,
    )
    config = JcasConfig(crb_threshold=0.01, power_budget=1.0, seed=seed)
    return scene, channels, config, PathCoefficients.random([9, seed, 2])
