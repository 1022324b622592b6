import numpy as np
import pytest

from fdjcas.channels import build_channel_set
from fdjcas.estimation import CovarianceRankError, music_estimate, simulate_snapshots
from fdjcas.experiments import SensingStudyConfig, monte_carlo_mse
from fdjcas.geometry import build_scene
from fdjcas.steering import PathCoefficients, steering_set

from conftest import random_unit_modulus


def direct_only():
    return PathCoefficients(direct=1.0, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0)


@pytest.fixture(scope="module")
def sensing_scene():
    # target angle placed exactly on the default estimation grid
    angle = -np.pi / 2 + 700 * 1e-3
    return build_scene(target_angle=angle)


class TestSimulateSnapshots:
    def test_noiseless_direct_path_spans_receive_steering(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(0)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        batch = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 16, seed=1, residual_si_mode="none"
        )
        a = steering_set(sensing_scene).bs_rx_target
        proj = np.outer(a, a.conj())
        residual = batch.samples - proj @ batch.samples
        assert np.max(np.abs(residual)) < 1e-10

    def test_same_seed_identical(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.01, 0, noise_user=1.0, noise_radar=0.5)
        rng = np.random.default_rng(1)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        coeffs = PathCoefficients.random(2)
        a = simulate_snapshots(sensing_scene, ch, v, phi, coeffs, 8, seed=7)
        b = simulate_snapshots(sensing_scene, ch, v, phi, coeffs, 8, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_covariance_matches_model(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.01, 0, noise_user=1.0, noise_radar=0.3)
        rng = np.random.default_rng(2)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        coeffs = PathCoefficients.random(3)
        snapshots = 100_000
        batch = simulate_snapshots(
            sensing_scene, ch, v, phi, coeffs, snapshots, seed=3, residual_si_mode="full"
        )
        sample_cov = batch.samples @ batch.samples.conj().T / snapshots
        from fdjcas.steering import build_sensing_context

        ctx = build_sensing_context(sensing_scene, phi, coeffs, ch.noise_radar)
        leak = ch.si_los + ch.si_nlos + ch.ris_to_bs @ (phi[:, None] * ch.bs_to_ris)
        mix = (ctx.path_response + leak) @ v
        model_cov = mix @ mix.conj().T + ch.noise_radar * np.eye(10)
        rel = np.linalg.norm(sample_cov - model_cov) / np.linalg.norm(model_cov)
        assert rel < 0.02

    def test_mode_validation(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0)
        v = np.zeros((15, 2), dtype=complex)
        phi = np.ones(100, dtype=complex)
        with pytest.raises(ValueError):
            simulate_snapshots(sensing_scene, ch, v, phi, direct_only(), 8, 0, residual_si_mode="bogus")


class TestMusicEstimate:
    def test_noiseless_on_grid_recovery(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(4)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        batch = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 32, seed=5, residual_si_mode="none"
        )
        result = music_estimate(batch, 1, 1e-3)
        assert result.angle_estimate == sensing_scene.target_angle

    def test_high_snr_within_grid_resolution(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=1e-4)
        rng = np.random.default_rng(6)
        # beam the full budget at the target so the echo dominates
        a_t = steering_set(sensing_scene).bs_tx_target
        v = np.conj(a_t)[:, None]
        phi = random_unit_modulus(100, rng)
        batch = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 64, seed=8, residual_si_mode="none"
        )
        result = music_estimate(batch, 1, 1e-3)
        assert abs(result.angle_estimate - sensing_scene.target_angle) <= 1e-3

    def test_spectrum_nonnegative(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.01, 0, noise_user=1.0, noise_radar=0.5)
        rng = np.random.default_rng(7)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        batch = simulate_snapshots(sensing_scene, ch, v, phi, PathCoefficients.random(1), 16, 9)
        result = music_estimate(batch, 2, 5e-3)
        assert np.all(result.pseudo_spectrum >= 0.0)
        assert result.grid[0] == pytest.approx(-np.pi / 2)
        assert -np.pi / 2 <= result.angle_estimate <= np.pi / 2

    def test_rank_deficiency_suggests_more_snapshots(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(8)
        v = (rng.standard_normal((15, 1)) + 1j * rng.standard_normal((15, 1))) / 4
        phi = random_unit_modulus(100, rng)
        batch = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 4, seed=10, residual_si_mode="none"
        )
        with pytest.raises(CovarianceRankError, match="snapshot"):
            music_estimate(batch, 4, 5e-3)

    def test_subspace_dimension_validated(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0)
        v = np.ones((15, 1), dtype=complex)
        phi = np.ones(100, dtype=complex)
        batch = simulate_snapshots(sensing_scene, ch, v, phi, direct_only(), 16, 0)
        with pytest.raises(ValueError):
            music_estimate(batch, 10, 1e-3)


class TestMonteCarlo:
    def _config(self):
        scene = build_scene(target_angle=np.deg2rad(20.0))
        return SensingStudyConfig(
            scene=scene,
            coeffs=PathCoefficients.random(3),
            crb_threshold=0.01,
            snapshots=32,
            grid_resolution=2e-3,
            root_seed=0,
        )

    def test_single_trial_deterministic(self):
        config = self._config()
        a = monte_carlo_mse(config, [10.0], trials=1)
        b = monte_carlo_mse(config, [10.0], trials=1)
        assert a == b
        assert set(a[0]) == {"snr_db", "mse_rad2", "crb_rad2", "trials"}

    def test_rows_cover_grid(self):
        config = self._config()
        rows = monte_carlo_mse(config, [5.0, 15.0], trials=2)
        assert [r["snr_db"] for r in rows] == [5.0, 15.0]
        assert all(r["trials"] == 2 for r in rows)
        assert all(np.isfinite(r["mse_rad2"]) and np.isfinite(r["crb_rad2"]) for r in rows)
