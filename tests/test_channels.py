import numpy as np
import pytest

from fdjcas.channels import build_channel_set, farfield_los, nearfield_los
from fdjcas.geometry import build_scene


class TestNearfieldLos:
    def test_single_pair_at_one_wavelength(self):
        h = nearfield_los([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.1]], wavelength=0.1)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_frobenius_normalization(self, reference_scene):
        h = nearfield_los(
            reference_scene.bs_tx_positions, reference_scene.bs_rx_positions, reference_scene.wavelength
        )
        total = np.sum(np.abs(h) ** 2)
        assert abs(total - h.size) <= 1e-10 * h.size

    def test_equidistant_square_layout(self):
        tx = [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        rx = [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
        h = nearfield_los(tx, rx, wavelength=0.1)
        assert np.allclose(np.abs(h), np.abs(h[0, 0]), atol=1e-12)
        assert np.allclose(np.angle(h), np.angle(h[0, 0]), atol=1e-12)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            nearfield_los([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], 0.1)


class TestFarfieldLos:
    def test_uniform_vectors(self):
        n = 5
        a = np.ones(n) / np.sqrt(n)
        h = farfield_los(a, a)
        assert np.allclose(h, 1.0 / n, atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        svals = np.linalg.svd(farfield_los(a, b), compute_uv=False)
        assert svals[1] < 1e-10 * svals[0]


class TestBuildChannelSet:
    def test_zero_nlos_power_gives_exact_zeros(self, reference_scene):
        ch = build_channel_set(reference_scene, nlos_si_power=0.0, seed=1)
        assert np.all(ch.si_nlos == 0.0)

    def test_same_seed_bit_identical(self, reference_scene):
        a = build_channel_set(reference_scene, seed=42)
        b = build_channel_set(reference_scene, seed=42)
        for name in ("bs_to_user", "ris_to_user", "bs_to_ris", "ris_to_bs", "si_los", "si_nlos"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_nlos_scaling_law(self, small_scene):
        kappa = 0.01
        entries = small_scene.n_bs_rx * 6
        ratios = []
        for seed in range(1000):
            ch = build_channel_set(small_scene, n_user_antennas=3, nlos_si_power=kappa, seed=seed)
            ratios.append(np.sum(np.abs(ch.si_nlos) ** 2) / ch.si_nlos.size)
        mean = float(np.mean(ratios))
        assert 0.009 <= mean <= 0.011

    def test_shapes(self, reference_scene):
        ch = build_channel_set(reference_scene, n_user_antennas=5)
        assert ch.bs_to_user.shape == (5, 15)
        assert ch.ris_to_user.shape == (5, 100)
        assert ch.bs_to_ris.shape == (100, 15)
        assert ch.ris_to_bs.shape == (10, 100)
        assert ch.si_los.shape == (10, 15)

    @pytest.mark.parametrize(
        "noise",
        [
            {"noise_user": np.nan},
            {"noise_user": np.inf},
            {"noise_user": 0.0},
            {"noise_radar": np.nan},
            {"noise_radar": np.inf},
            {"noise_radar": -1.0},
        ],
    )
    def test_bad_noise_rejected(self, small_scene, noise):
        with pytest.raises(ValueError, match="noise"):
            build_channel_set(small_scene, n_user_antennas=3, **noise)

