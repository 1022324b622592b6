import math

import numpy as np
import pytest

from fdjcas.crb import (
    UnobservableError,
    aoa_crb,
    fisher_core,
    fisher_information,
)


def random_instance(rng, n_rx=4, n_tx=4, streams=2):
    deriv = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    precoder = rng.standard_normal((n_tx, streams)) + 1j * rng.standard_normal((n_tx, streams))
    noise = np.eye(n_rx) * rng.uniform(0.5, 2.0)
    return precoder, deriv, noise


class TestAoaCrb:
    def test_precoder_scaling(self):
        rng = np.random.default_rng(0)
        precoder, deriv, noise = random_instance(rng)
        base = aoa_crb(precoder, deriv, noise)
        scaled = aoa_crb(3.0 * precoder, deriv, noise)
        assert scaled == pytest.approx(base / 9.0, rel=1e-10)

    def test_noise_scaling(self):
        rng = np.random.default_rng(1)
        precoder, deriv, _ = random_instance(rng)
        sigma = 0.7
        base = aoa_crb(precoder, deriv, sigma * np.eye(4))
        doubled = aoa_crb(precoder, deriv, 2.0 * sigma * np.eye(4))
        assert doubled == pytest.approx(2.0 * base, rel=1e-10)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        precoder, deriv, noise = random_instance(rng, n_rx=2, n_tx=2, streams=1)
        got = aoa_crb(precoder, deriv, noise)
        # elementwise trace of V^H D^H S^-1 D V
        dv = deriv @ precoder
        s_inv = np.linalg.inv(noise)
        trace = sum(
            np.conj(dv[k, j]) * s_inv[k, i] * dv[i, j]
            for i in range(2)
            for k in range(2)
            for j in range(1)
        )
        expect = 1.0 / (2.0 * trace.real)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_random_instances_match_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            precoder, deriv, noise = random_instance(rng)
            dv = deriv @ precoder
            s_inv = np.linalg.inv(noise)
            trace = sum(
                (np.conj(dv[k, j]) * s_inv[k, i] * dv[i, j]).real
                for i in range(4)
                for k in range(4)
                for j in range(2)
            )
            assert aoa_crb(precoder, deriv, noise) == pytest.approx(1.0 / (2 * trace), rel=1e-10)

    def test_extra_stream_never_increases(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            precoder, deriv, noise = random_instance(rng, streams=2)
            extra = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            wider = np.hstack([precoder, extra])
            assert aoa_crb(wider, deriv, noise) <= aoa_crb(precoder, deriv, noise) * (1 + 1e-12)

    def test_unobservable_raises(self):
        deriv = np.zeros((3, 3), dtype=complex)
        precoder = np.ones((3, 1), dtype=complex)
        with pytest.raises(UnobservableError):
            aoa_crb(precoder, deriv, np.eye(3))

    def test_fisher_core_quadratic_form_matches_fisher_information(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            precoder, deriv, _ = random_instance(rng, n_rx=5, n_tx=4, streams=3)
            half = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            noise = half @ half.conj().T + np.eye(5)
            core = fisher_core(deriv, noise)
            assert np.array_equal(core, core.conj().T)
            via_core = 2.0 * np.real(np.trace(precoder.conj().T @ core @ precoder))
            assert via_core == pytest.approx(fisher_information(precoder, deriv, noise), rel=1e-12)

    @pytest.mark.parametrize("snapshots", [0, -2, 1.5, 2.0, True, math.nan])
    def test_snapshots_must_be_a_positive_integer(self, snapshots):
        precoder, deriv, noise = random_instance(np.random.default_rng(5))
        with pytest.raises(ValueError, match="snapshots"):
            aoa_crb(precoder, deriv, noise, snapshots=snapshots)

    def test_snapshots_divide(self):
        rng = np.random.default_rng(5)
        precoder, deriv, noise = random_instance(rng)
        assert aoa_crb(precoder, deriv, noise, snapshots=8) == pytest.approx(
            aoa_crb(precoder, deriv, noise) / 8.0, rel=1e-12
        )

