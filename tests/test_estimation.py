import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdjcas import estimation, experiments
from fdjcas.channels import build_channel_set
from fdjcas.crb import aoa_crb
from fdjcas.estimation import CovarianceRankError, music_estimate, simulate_snapshots
from fdjcas.experiments import (
    ConfigError,
    ExperimentConfig,
    build_cell,
    estimate_angles,
    monte_carlo_mse,
)
from fdjcas.geometry import build_scene
from fdjcas.optimizer import JcasConfig, jcas_optimize
from fdjcas.steering import PathCoefficients, build_sensing_context, steering_set

from conftest import random_unit_modulus


def direct_only():
    return PathCoefficients(direct=1.0, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0)


@pytest.fixture(scope="module")
def sensing_scene():
    # target angle placed exactly on the default estimation grid
    angle = -np.pi / 2 + 700 * 1e-3
    return build_scene(target_angle=angle)


@pytest.fixture(scope="module")
def ris_design():
    """A few outer iterations of a reduced ``ris_with_sensing`` cell:
    ``(config, scene, channels, coeffs, result)``."""
    config = ExperimentConfig(
        n_bs_tx=6, n_bs_rx=4, n_user=3, ris_rows=3, ris_cols=3, n_streams=2,
        seeds=2, snr_grid_db=[10.0], crb_threshold=0.05, snapshots=16,
        grid_resolution=5e-3, mse_trials=0,
    )
    scene, channels, jcas, coeffs = build_cell(config, 1, 10.0)
    result = jcas_optimize(scene, channels, dataclasses.replace(jcas, max_outer=3), coeffs=coeffs)
    return config, scene, channels, coeffs, result


def per_seed_samples(scene, ch, v, phi, coeffs, snapshots, seed, residual_factor):
    """One batch of the echo-plus-leakage model, echo model rebuilt for the seed."""
    ctx = build_sensing_context(scene, phi, coeffs, ch.noise_radar)
    leak = ch.si_los + ch.si_nlos + ch.ris_to_bs @ (phi[:, None] * ch.bs_to_ris)
    mix = (ctx.path_response + residual_factor * leak) @ v
    rng = np.random.default_rng(seed)
    n_streams = v.shape[1]
    symbols = (
        rng.standard_normal((n_streams, snapshots))
        + 1j * rng.standard_normal((n_streams, snapshots))
    ) / np.sqrt(2.0)
    noise = np.sqrt(ch.noise_radar / 2.0) * (
        rng.standard_normal((ch.n_bs_rx, snapshots))
        + 1j * rng.standard_normal((ch.n_bs_rx, snapshots))
    )
    return mix @ symbols + noise


def uncached_music(batch, signal_subspace_dim, grid_resolution):
    """MUSIC with the scan grid and steering matrix built for this call."""
    n_rx, snapshots = batch.samples.shape
    cov = batch.samples @ batch.samples.conj().T / snapshots
    evals, evecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    noise_basis = evecs[:, : n_rx - signal_subspace_dim]
    n_points = int(np.floor(np.pi / grid_resolution)) + 1
    grid = -np.pi / 2 + grid_resolution * np.arange(n_points)
    n = np.arange(n_rx)
    phases = (2.0 * np.pi * batch.spacing / batch.wavelength) * np.outer(n, np.sin(grid))
    steering = np.exp(1j * phases) / np.sqrt(n_rx)
    projected = noise_basis.conj().T @ steering
    power = np.sum(np.abs(projected) ** 2, axis=0)
    spectrum = 1.0 / np.maximum(power, 1e-300)
    return float(grid[int(np.argmax(spectrum))])


class TestSimulateSnapshots:
    def test_noiseless_direct_path_spans_receive_steering(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(0)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 16, seeds=[1], residual_factor=0.0
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
        (a,) = simulate_snapshots(sensing_scene, ch, v, phi, coeffs, 8, seeds=[7])
        (b,) = simulate_snapshots(sensing_scene, ch, v, phi, coeffs, 8, seeds=[7])
        assert np.array_equal(a.samples, b.samples)

    def test_sample_covariance_matches_model(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.01, 0, noise_user=1.0, noise_radar=0.3)
        rng = np.random.default_rng(2)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        coeffs = PathCoefficients.random(3)
        snapshots = 100_000
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, coeffs, snapshots, seeds=[3], residual_factor=1.0
        )
        sample_cov = batch.samples @ batch.samples.conj().T / snapshots
        ctx = build_sensing_context(sensing_scene, phi, coeffs, ch.noise_radar)
        leak = ch.si_los + ch.si_nlos + ch.ris_to_bs @ (phi[:, None] * ch.bs_to_ris)
        mix = (ctx.path_response + leak) @ v
        model_cov = mix @ mix.conj().T + ch.noise_radar * np.eye(10)
        rel = np.linalg.norm(sample_cov - model_cov) / np.linalg.norm(model_cov)
        assert rel < 0.02

    def test_residual_factor_validated(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0)
        v = np.zeros((15, 2), dtype=complex)
        phi = np.ones(100, dtype=complex)
        for factor in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="residual_factor"):
                simulate_snapshots(
                    sensing_scene, ch, v, phi, direct_only(), 8, seeds=[0], residual_factor=factor
                )

    @pytest.mark.parametrize("snapshots", [0, -2, 2.5, 8.0, True, math.nan])
    def test_snapshots_must_be_a_positive_integer(self, sensing_scene, snapshots):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0)
        v = np.zeros((15, 2), dtype=complex)
        with pytest.raises(ValueError, match="snapshots"):
            simulate_snapshots(sensing_scene, ch, v, np.ones(100, dtype=complex), direct_only(), snapshots, seeds=[0])

    @pytest.mark.parametrize("residual_factor", [0.0, 0.1, 1.0])
    def test_batches_equal_per_seed_reference(self, ris_design, residual_factor):
        config, scene, ch, coeffs, result = ris_design
        v, phi = result.precoder, result.ris_phase
        seeds = [3, 0, 11, 3, 7]
        batches = simulate_snapshots(
            scene, ch, v, phi, coeffs, 16, seeds=seeds, residual_factor=residual_factor
        )
        assert len(batches) == len(seeds)
        for seed, batch in zip(seeds, batches):
            expected = per_seed_samples(scene, ch, v, phi, coeffs, 16, seed, residual_factor)
            assert np.array_equal(batch.samples, expected)
            assert (batch.spacing, batch.wavelength) == (scene.spacing, scene.wavelength)

    def test_batches_are_rows_of_one_array(self, ris_design):
        config, scene, ch, coeffs, result = ris_design
        batches = simulate_snapshots(scene, ch, result.precoder, result.ris_phase, coeffs, 8, seeds=[1, 2, 3])
        stack = batches[0].samples.base
        assert stack.shape == (3, 4, 8)
        for row, batch in zip(stack, batches):
            assert batch.samples.base is stack
            assert np.array_equal(batch.samples, row)

    def test_empty_seeds_rejected(self, ris_design):
        config, scene, ch, coeffs, result = ris_design
        with pytest.raises(ValueError, match="seeds"):
            simulate_snapshots(scene, ch, result.precoder, result.ris_phase, coeffs, 8, seeds=[])


class TestEstimateAngles:
    def test_equals_per_trial_uncached_loop(self, ris_design):
        config, scene, ch, coeffs, result = ris_design
        seeds = list(range(5))
        expected = []
        for seed in seeds:
            batch = estimation.SnapshotBatch(
                per_seed_samples(
                    scene, ch, result.precoder, result.ris_phase, coeffs,
                    config.snapshots, seed, config.residual_factor,
                ),
                scene.spacing,
                scene.wavelength,
            )
            expected.append(uncached_music(batch, config.n_streams, config.grid_resolution))
        assert estimate_angles(config, scene, ch, coeffs, result, seeds) == expected

    def test_one_music_call_per_cell(self, ris_design, monkeypatch):
        config, scene, ch, coeffs, result = ris_design
        calls = []

        def counted(batch, *args):
            calls.append(batch.samples.shape)
            return music_estimate(batch, *args)

        monkeypatch.setattr(experiments, "music_estimate", counted)
        assert len(estimate_angles(config, scene, ch, coeffs, result, range(5))) == 5
        assert calls == [(5, 4, config.snapshots)]

    def test_echo_model_built_once_per_cell(self, ris_design, monkeypatch):
        config, scene, ch, coeffs, result = ris_design
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_sensing_context(*args, **kwargs)

        monkeypatch.setattr(estimation, "build_sensing_context", counted)
        estimates = estimate_angles(config, scene, ch, coeffs, result, range(5))
        assert len(estimates) == 5
        assert len(calls) == 1


class TestScanBasis:
    def test_one_miss_per_geometry_and_resolution(self, ris_design):
        config, scene, ch, coeffs, result = ris_design
        (batch,) = simulate_snapshots(
            scene, ch, result.precoder, result.ris_phase, coeffs, 16, seeds=[2]
        )
        estimation._scan_basis.cache_clear()
        first = music_estimate(batch, 2, 5e-3)
        second = music_estimate(batch, 2, 5e-3)
        info = estimation._scan_basis.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first == second == uncached_music(batch, 2, 5e-3)
        music_estimate(batch, 2, 2e-3)
        assert estimation._scan_basis.cache_info().misses == 2

    def test_cached_arrays_are_read_only(self):
        grid, basis = estimation._scan_basis(4, 0.5, 1.0, 5e-3)
        assert basis.shape == (7, grid.size)
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0
        with pytest.raises(ValueError):
            grid[0] = 0.0


class TestLagSumScan:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_rx=st.integers(2, 12),
        snapshots=st.integers(1, 24),
        spacing=st.floats(0.25, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_power_equals_noise_projection(self, n_rx, snapshots, spacing, seed):
        # on the full default grid, for every valid subspace dimension
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((n_rx, snapshots)) + 1j * rng.standard_normal((n_rx, snapshots))
        cov = samples @ samples.conj().T / snapshots
        _, evecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
        grid, basis = estimation._scan_basis(n_rx, spacing, 1.0, 1e-3)
        phases = 2.0 * np.pi * spacing * np.outer(np.arange(n_rx), np.sin(grid))
        steering = np.exp(1j * phases) / np.sqrt(n_rx)
        for dim in range(1, n_rx):
            noise_basis = evecs[:, : n_rx - dim]
            power = (estimation._null_polynomial(noise_basis[None]) @ basis)[0]
            expected = np.sum(np.abs(noise_basis.conj().T @ steering) ** 2, axis=0)
            assert np.max(np.abs(power - expected)) <= 1e-13

    @pytest.mark.parametrize("grid_resolution", [1e-3, 5e-3])
    @pytest.mark.parametrize("residual_factor", [0.0, 0.1, 1.0])
    def test_stack_equals_per_batch_reference(self, ris_design, residual_factor, grid_resolution):
        # 12 trials at 1e-3 scan in chunks of 5, 5 and 2; at 5e-3 in one chunk
        config, scene, ch, coeffs, result = ris_design
        batches = simulate_snapshots(
            scene, ch, result.precoder, result.ris_phase, coeffs, config.snapshots,
            seeds=range(12), residual_factor=residual_factor,
        )
        stack = estimation.SnapshotBatch(
            np.stack([b.samples for b in batches]), scene.spacing, scene.wavelength
        )
        expected = [uncached_music(b, config.n_streams, grid_resolution) for b in batches]
        assert music_estimate(stack, config.n_streams, grid_resolution) == expected

    def test_scan_memory_is_flat_in_the_trials(self):
        trials, n_points = 200, int(np.floor(np.pi / 1e-3)) + 1
        rng = np.random.default_rng(12)
        samples = rng.standard_normal((trials, 4, 8)) + 1j * rng.standard_normal((trials, 4, 8))
        batch = estimation.SnapshotBatch(samples, 0.5, 1.0)
        music_estimate(batch, 1)  # builds the cached basis
        tracemalloc.start()
        try:
            music_estimate(batch, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trials * n_points * 8 / 4


class TestMusicEstimate:
    def test_noiseless_on_grid_recovery(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(4)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 32, seeds=[5], residual_factor=0.0
        )
        assert music_estimate(batch, 1, 1e-3) == sensing_scene.target_angle

    def test_high_snr_within_grid_resolution(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=1e-4)
        rng = np.random.default_rng(6)
        # beam the full budget at the target so the echo dominates
        a_t = steering_set(sensing_scene).bs_tx_target
        v = np.conj(a_t)[:, None]
        phi = random_unit_modulus(100, rng)
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 64, seeds=[8], residual_factor=0.0
        )
        assert abs(music_estimate(batch, 1, 1e-3) - sensing_scene.target_angle) <= 1e-3

    def test_estimate_on_scan_grid(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.01, 0, noise_user=1.0, noise_radar=0.5)
        rng = np.random.default_rng(7)
        v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))) / 4
        phi = random_unit_modulus(100, rng)
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, PathCoefficients.random(1), 16, seeds=[9]
        )
        estimate = music_estimate(batch, 2, 5e-3)
        steps = (estimate + np.pi / 2) / 5e-3
        assert steps == pytest.approx(round(steps), abs=1e-9)
        assert -np.pi / 2 <= estimate <= np.pi / 2

    def test_rank_deficiency_suggests_more_snapshots(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0, noise_user=1.0, noise_radar=0.0)
        rng = np.random.default_rng(8)
        v = (rng.standard_normal((15, 1)) + 1j * rng.standard_normal((15, 1))) / 4
        phi = random_unit_modulus(100, rng)
        (batch,) = simulate_snapshots(
            sensing_scene, ch, v, phi, direct_only(), 4, seeds=[10], residual_factor=0.0
        )
        with pytest.raises(CovarianceRankError, match="snapshot"):
            music_estimate(batch, 4, 5e-3)

    def test_subspace_dimension_validated(self, sensing_scene):
        ch = build_channel_set(sensing_scene, 5, 0.0, 0)
        v = np.ones((15, 1), dtype=complex)
        phi = np.ones(100, dtype=complex)
        (batch,) = simulate_snapshots(sensing_scene, ch, v, phi, direct_only(), 16, seeds=[0])
        with pytest.raises(ValueError):
            music_estimate(batch, 10, 1e-3)

    @pytest.mark.parametrize("n_rx", [2, 3, 4])
    def test_noiseless_sources_on_grid_recovered(self, n_rx):
        # the null spectrum at a noiseless source rounds to about +-1e-16; the
        # 1e-300 floor keeps a null that rounds below zero the spectrum's peak
        steps = np.arange(0, 3142, 37)
        grid, _ = estimation._scan_basis(n_rx, 0.5, 1.0, 1e-3)
        steering = np.exp(1j * np.pi * np.outer(np.sin(grid[steps]), np.arange(n_rx)))
        symbols = np.random.default_rng(n_rx).standard_normal((len(steps), 1, 8))
        batch = estimation.SnapshotBatch(steering[:, :, None] * symbols, 0.5, 1.0)
        assert music_estimate(batch, 1, 1e-3) == grid[steps].tolist()

    def test_single_batch_returns_a_float_and_a_stack_a_list(self, ris_design):
        config, scene, ch, coeffs, result = ris_design
        batches = simulate_snapshots(
            scene, ch, result.precoder, result.ris_phase, coeffs, 16, seeds=[4, 5]
        )
        single = music_estimate(batches[0], 2, 5e-3)
        assert type(single) is float
        geometry = scene.spacing, scene.wavelength
        stacked = music_estimate(estimation.SnapshotBatch(batches[0].samples.base, *geometry), 2, 5e-3)
        one = music_estimate(estimation.SnapshotBatch(batches[0].samples[None], *geometry), 2, 5e-3)
        assert [type(e) for e in stacked] == [float, float]
        assert stacked == [single, music_estimate(batches[1], 2, 5e-3)]
        assert one == [single]

    def test_one_rank_deficient_trial_fails_the_stack(self):
        rng = np.random.default_rng(13)
        samples = rng.standard_normal((3, 4, 8)) + 1j * rng.standard_normal((3, 4, 8))
        samples[1] = np.outer(samples[1, :, 0], samples[1, 0])  # rank 1
        batch = estimation.SnapshotBatch(samples, 0.5, 1.0)
        with pytest.raises(CovarianceRankError, match="rank 1 below the signal subspace dimension 2"):
            music_estimate(batch, 2, 5e-3)
        assert len(music_estimate(batch, 1, 5e-3)) == 3

    @pytest.mark.parametrize("shape", [(16,), (2, 2, 4, 16)])
    def test_samples_of_other_ranks_rejected(self, shape):
        batch = estimation.SnapshotBatch(np.ones(shape, dtype=complex), 0.5, 1.0)
        with pytest.raises(ValueError, match="samples must be"):
            music_estimate(batch, 1, 5e-3)

    @pytest.mark.parametrize("bad", [0.0, np.nan, -0.01, np.inf])
    def test_bad_grid_resolution_rejected(self, bad):
        samples = random_unit_modulus(4 * 16, np.random.default_rng(11)).reshape(4, 16)
        batch = estimation.SnapshotBatch(samples=samples, spacing=0.5, wavelength=1.0)
        with pytest.raises(ValueError, match="grid_resolution"):
            music_estimate(batch, 1, bad)


class TestMonteCarlo:
    ANGLE = np.deg2rad(20.0)

    def _config(self, **overrides):
        settings = dict(crb_threshold=0.01, snapshots=32, grid_resolution=2e-3, root_seed=0)
        return ExperimentConfig(**{**settings, **overrides})

    def test_single_trial_deterministic(self):
        config = self._config(snr_grid_db=[10.0], mse_trials=1)
        a = monte_carlo_mse(config, self.ANGLE, PathCoefficients.random(3))
        b = monte_carlo_mse(config, self.ANGLE, PathCoefficients.random(3))
        assert a == b
        assert set(a[0]) == {"snr_db", "mse_rad2", "crb_rad2", "trials"}

    def test_rows_cover_grid(self):
        config = self._config(snr_grid_db=[5.0, 15.0], mse_trials=2)
        rows = monte_carlo_mse(config, self.ANGLE, PathCoefficients.random(3))
        assert [r["snr_db"] for r in rows] == [5.0, 15.0]
        assert all(r["trials"] == 2 for r in rows)
        assert all(np.isfinite(r["mse_rad2"]) and np.isfinite(r["crb_rad2"]) for r in rows)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="mse_trials"):
            monte_carlo_mse(self._config(mse_trials=0), self.ANGLE, PathCoefficients.random(3))

    def test_streams_without_noise_subspace_rejected_before_optimizing(self, monkeypatch):
        # MUSIC runs for every scheme in the study, not only the sensing ones
        config = self._config(
            n_bs_tx=6, n_bs_rx=4, ris_rows=2, ris_cols=2, n_streams=4,
            scheme="ris_comm_only", mse_trials=2, snr_grid_db=[10.0],
        )
        optimized = []
        monkeypatch.setattr(experiments, "jcas_optimize", lambda *a, **k: optimized.append(a))
        with pytest.raises(ConfigError, match="n_streams"):
            monte_carlo_mse(config, self.ANGLE, PathCoefficients.random(3))
        assert optimized == []

    def test_fewer_snapshots_than_streams_rejected_before_optimizing(self, monkeypatch):
        # a one-snapshot sample covariance cannot span two signal directions
        config = self._config(scheme="ris_comm_only", snapshots=1, mse_trials=2, snr_grid_db=[10.0])
        optimized = []
        monkeypatch.setattr(experiments, "jcas_optimize", lambda *a, **k: optimized.append(a))
        with pytest.raises(ConfigError, match="snapshots 1 must be at least n_streams 2"):
            monte_carlo_mse(config, self.ANGLE, PathCoefficients.random(3))
        assert optimized == []

    @pytest.mark.parametrize("scene_fields", [{}, {"n_bs_rx": 8}])
    def test_rows_equal_the_composed_study(self, scene_fields):
        # seed streams: channels [root_seed, 100], phase start root_seed,
        # snapshot seeds root_seed + trial
        root_seed, snr_db, coeffs = 7, 10.0, PathCoefficients.random(3)
        config = self._config(snr_grid_db=[snr_db], mse_trials=2, root_seed=root_seed, **scene_fields)
        scene = build_scene(target_angle=self.ANGLE, **scene_fields)
        channels = experiments._channel_set(config, scene, [root_seed, 100], snr_db)
        result = jcas_optimize(
            scene, channels, JcasConfig(crb_threshold=0.01, seed=root_seed), coeffs=coeffs
        )
        ctx = build_sensing_context(scene, result.ris_phase, coeffs, channels.noise_radar)
        bound = aoa_crb(result.precoder, ctx.path_response_deriv, ctx.noise_cov, snapshots=32)
        estimates = estimate_angles(config, scene, channels, coeffs, result, [root_seed, root_seed + 1])
        mse = float(np.mean([(e - self.ANGLE) ** 2 for e in estimates]))
        assert monte_carlo_mse(config, self.ANGLE, coeffs) == [
            {"snr_db": snr_db, "mse_rad2": mse, "crb_rad2": float(bound), "trials": 2}
        ]
