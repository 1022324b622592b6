import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdjcas.channels import ChannelSet, build_channel_set
from fdjcas.experiments import SCHEMES, ExperimentConfig, build_cell, scheme_flags
from fdjcas.geometry import build_scene
import fdjcas.optimizer as optimizer
from fdjcas.optimizer import (
    CrbInfeasibleError,
    JcasConfig,
    dl_rate,
    dominant_precoder,
    effective_channel,
    jcas_optimize,
    mm_step,
    mmse_combiner,
    mse_matrix,
    precoder_update,
    ris_objective_value,
    ris_optimize,
    ris_quadratics,
    si_channel,
    si_matrix,
    weight_matrix,
)
from fdjcas.steering import PathCoefficients, build_sensing_context

from conftest import random_unit_modulus

LN2 = math.log(2.0)


def scalar_channelset(direct, ris_rx, ris_tx, user=1.0):
    """1x1x1 system for closed-form checks."""
    one = np.array([[user]], dtype=complex)
    return ChannelSet(
        bs_to_user=one,
        ris_to_user=np.array([[0.0]], dtype=complex),
        bs_to_ris=np.array([[ris_tx]], dtype=complex),
        ris_to_bs=np.array([[ris_rx]], dtype=complex),
        si_los=np.array([[direct]], dtype=complex),
        si_nlos=np.zeros((1, 1), dtype=complex),
        noise_user=1.0,
        noise_radar=1.0,
    )


def random_state(rng, n_user=3, n_tx=6, n_ris=9, n_rx=4, streams=2, noise=0.1):
    h_eff = rng.standard_normal((n_user, n_tx)) + 1j * rng.standard_normal((n_user, n_tx))
    precoder = (rng.standard_normal((n_tx, streams)) + 1j * rng.standard_normal((n_tx, streams))) / np.sqrt(
        2 * n_tx
    )
    return h_eff, precoder, noise


class TestMmseCombiner:
    def test_zero_precoder(self):
        h = np.eye(3, dtype=complex)
        v = np.zeros((3, 2), dtype=complex)
        assert np.all(mmse_combiner(h, v, 1.0) == 0.0)

    def test_scalar_case(self):
        h = np.array([[1.0 + 0.0j]])
        v = np.array([[1.0 + 0.0j]])
        f = mmse_combiner(h, v, 1.0)
        assert f[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_matched_filter_limit(self):
        rng = np.random.default_rng(0)
        h_eff, precoder, _ = random_state(rng)
        sigma = 1e6
        f = mmse_combiner(h_eff, precoder, sigma)
        matched = precoder.conj().T @ h_eff.conj().T / sigma
        assert np.max(np.abs(f - matched)) / np.max(np.abs(matched)) < 1e-4


class TestMseMatrix:
    def test_zero_precoder_identity(self):
        h = np.eye(3, dtype=complex)
        e = mse_matrix(h, np.zeros((3, 2), dtype=complex), 0.5)
        assert np.allclose(e, np.eye(2), atol=1e-14)

    def test_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h_eff, precoder, noise = random_state(rng)
            evals = np.linalg.eigvalsh(mse_matrix(h_eff, precoder, noise))
            assert np.all(evals > 0.0)
            assert np.all(evals <= 1.0 + 1e-12)

    def test_scalar_case(self):
        h = np.array([[1.0 + 0.0j]])
        v = np.array([[1.0 + 0.0j]])
        assert mse_matrix(h, v, 1.0)[0, 0] == pytest.approx(0.5, abs=1e-14)


class TestWeightMatrix:
    def test_identity_at_log2_priority(self):
        w = weight_matrix(np.eye(3, dtype=complex), priority=LN2)
        assert np.allclose(w, np.eye(3), atol=1e-14)

    def test_scalar(self):
        w = weight_matrix(np.array([[0.5 + 0.0j]]), priority=LN2)
        assert w[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_product_is_scaled_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        e = x @ x.conj().T + np.eye(3)
        w = weight_matrix(e, priority=1.0)
        assert np.allclose(w @ e, np.eye(3) / LN2, atol=1e-10)


class TestSiMatrix:
    def test_zero_precoder(self, small_channels):
        phi = np.ones(small_channels.n_ris, dtype=complex)
        v = np.zeros((small_channels.n_bs_tx, 2), dtype=complex)
        assert np.all(si_matrix(v, phi, small_channels) == 0.0)

    def test_perfect_cancellation_toy(self):
        ch = scalar_channelset(direct=1.0, ris_rx=1.0, ris_tx=1.0)
        phi = np.array([-1.0 + 0.0j])
        v = np.array([[1.0 + 0.0j]])
        assert np.max(np.abs(si_matrix(v, phi, ch))) < 1e-15

    def test_trace_is_squared_frobenius_norm(self, small_channels):
        rng = np.random.default_rng(3)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        v = rng.standard_normal((small_channels.n_bs_tx, 2)) + 1j * rng.standard_normal(
            (small_channels.n_bs_tx, 2)
        )
        tr = np.real(np.trace(si_matrix(v, phi, small_channels)))
        norm2 = np.linalg.norm(si_channel(small_channels, phi) @ v) ** 2
        assert tr == pytest.approx(norm2, rel=1e-10)


class TestDlRate:
    def test_zero_precoder(self):
        assert dl_rate(np.eye(3, dtype=complex), np.zeros((3, 2), dtype=complex), 1.0) == 0.0

    def test_scalar_unit_snr(self):
        h = np.array([[1.0 + 0.0j]])
        v = np.array([[1.0 + 0.0j]])
        assert dl_rate(h, v, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_wmmse_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h_eff, precoder, noise = random_state(rng)
            rate = dl_rate(h_eff, precoder, noise)
            mse = mse_matrix(h_eff, precoder, noise)
            sign, logdet = np.linalg.slogdet(mse)
            assert abs(rate + logdet / LN2) < 1e-10


class TestPrecoderUpdate:
    def test_unconstrained_stationarity(self, small_channels):
        rng = np.random.default_rng(5)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        v, lam, mu = precoder_update(f, w, small_channels, phi, power_budget=1e9)
        assert lam == 0.0
        assert mu == 0.0
        leak = si_channel(small_channels, phi)
        gram = (f @ h_eff).conj().T @ w @ (f @ h_eff) + leak.conj().T @ leak
        rhs = h_eff.conj().T @ f.conj().T @ w
        assert np.linalg.norm(gram @ v - rhs) < 1e-8

    def test_power_bisection_hits_budget(self, small_channels):
        rng = np.random.default_rng(6)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        budget = 1.0
        v, lam, _ = precoder_update(f, w, small_channels, phi, power_budget=budget)
        power = float(np.sum(np.abs(v) ** 2))
        assert lam > 0.0
        assert abs(power - budget) / budget < 1e-6

    def test_power_monotone_in_multiplier(self, small_channels):
        rng = np.random.default_rng(7)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        leak = si_channel(small_channels, phi)
        gram = (f @ h_eff).conj().T @ w @ (f @ h_eff) + leak.conj().T @ leak
        rhs = h_eff.conj().T @ f.conj().T @ w
        evals, evecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        rotated = evecs.conj().T @ rhs
        powers = [
            float(np.sum(np.sum(np.abs(rotated) ** 2, axis=1) / (evals + lam) ** 2))
            for lam in np.linspace(0.05, 5.0, 25)
        ]
        assert np.all(np.diff(powers) < 0.0)

    def test_crb_satisfied_at_zero_multiplier(self, small_scene, small_channels):
        rng = np.random.default_rng(8)
        coeffs = PathCoefficients.random(1)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        ctx = build_sensing_context(small_scene, phi, coeffs, small_channels.noise_radar)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        v, lam, mu = precoder_update(
            f, w, small_channels, phi, 1.0,
            crb_threshold=1e6,
            path_response_deriv=ctx.path_response_deriv,
            noise_cov=ctx.noise_cov,
        )
        assert mu == 0.0

    def test_infeasible_reports_achieved_crb(self, small_scene, small_channels):
        rng = np.random.default_rng(9)
        coeffs = PathCoefficients.random(1)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        ctx = build_sensing_context(small_scene, phi, coeffs, small_channels.noise_radar)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        with pytest.raises(CrbInfeasibleError) as err:
            precoder_update(
                f, w, small_channels, phi, 1.0,
                crb_threshold=1e-30,
                path_response_deriv=ctx.path_response_deriv,
                noise_cov=ctx.noise_cov,
            )
        assert err.value.achieved > err.value.threshold
        assert "rad^2" in str(err.value)


class TestRisQuadratics:
    def test_zero_precoder_and_weight(self, small_channels):
        n_tx = small_channels.n_bs_tx
        v = np.zeros((n_tx, 2), dtype=complex)
        f = np.zeros((2, small_channels.n_user), dtype=complex)
        w = np.zeros((2, 2), dtype=complex)
        quad, lin, _ = ris_quadratics(v, f, w, small_channels)
        assert np.all(quad == 0.0)
        assert np.all(lin == 0.0)

    def test_identity_toy_hand_computed(self):
        eye = np.eye(3, dtype=complex)
        ch = ChannelSet(
            bs_to_user=eye, ris_to_user=eye, bs_to_ris=eye, ris_to_bs=eye,
            si_los=eye, si_nlos=np.zeros((3, 3), dtype=complex),
        )
        quad, lin, _ = ris_quadratics(eye, eye, eye, ch)
        assert np.allclose(quad, 2.0 * np.eye(3), atol=1e-14)
        assert np.allclose(lin, 2.0 * np.ones(3), atol=1e-14)

    def test_objective_equivalence_sweep(self, small_channels):
        rng = np.random.default_rng(10)
        v = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        phi0 = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi0)
        f = mmse_combiner(h_eff, v, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v, small_channels.noise_user))
        quad, lin, _ = ris_quadratics(v, f, w, small_channels)
        assert np.allclose(quad, quad.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(quad).min() > -1e-10

        def restricted(phi):
            he = effective_channel(small_channels, phi)
            si = np.real(np.trace(si_matrix(v, phi, small_channels)))
            sig = np.real(np.trace(w @ f @ he @ v @ v.conj().T @ he.conj().T @ f.conj().T))
            return si + sig

        devs = [
            restricted(p) - ris_objective_value(p, quad, lin)
            for p in (random_unit_modulus(small_channels.n_ris, rng) for _ in range(100))
        ]
        assert np.max(np.abs(np.array(devs) - devs[0])) < 1e-8

    def test_rate_objective_matches_weighted_mse_restriction(self, small_channels):
        rng = np.random.default_rng(11)
        v = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        phi0 = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi0)
        f = mmse_combiner(h_eff, v, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v, small_channels.noise_user))
        quad, lin, _ = ris_quadratics(v, f, w, small_channels, objective="rate")

        def weighted_mse(phi):
            he = effective_channel(small_channels, phi)
            err = np.eye(2) - f @ he @ v
            e_hat = err @ err.conj().T + small_channels.noise_user * f @ f.conj().T
            return float(np.real(np.trace(w @ e_hat)))

        devs = [
            weighted_mse(p) - ris_objective_value(p, quad, lin)
            for p in (random_unit_modulus(small_channels.n_ris, rng) for _ in range(50))
        ]
        assert np.max(np.abs(np.array(devs) - devs[0])) < 1e-8

    def test_unknown_objective_rejected(self, small_channels):
        v = np.zeros((6, 2), dtype=complex)
        with pytest.raises(ValueError):
            ris_quadratics(v, np.zeros((2, 3)), np.zeros((2, 2)), small_channels, objective="bogus")


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_channelset(rng, n_user=3, n_tx=6, n_ris=12, n_rx=4):
    return ChannelSet(
        bs_to_user=complex_normal(rng, (n_user, n_tx)),
        ris_to_user=complex_normal(rng, (n_user, n_ris)),
        bs_to_ris=complex_normal(rng, (n_ris, n_tx)),
        ris_to_bs=complex_normal(rng, (n_rx, n_ris)),
        si_los=complex_normal(rng, (n_rx, n_tx)),
        si_nlos=np.zeros((n_rx, n_tx), dtype=complex),
    )


def low_rank(rng, rows, cols, rank):
    """Complex ``rows x cols`` matrix of the given rank (zero at rank 0)."""
    return complex_normal(rng, (rows, rank)) @ complex_normal(rng, (rank, cols))


def hadamard_quadratics(precoder, combiner, weight, channels, objective):
    """(M, d) of the phase objective written out term by term: each Gram
    pairing times the transposed surface Gram, and each cross term against
    a direct link as a row-wise contraction with ``u``."""
    u = channels.bs_to_ris @ precoder
    fj = combiner @ channels.ris_to_user
    quad = fj.conj().T @ weight @ fj
    right_user = (
        precoder.conj().T @ channels.bs_to_user.conj().T @ combiner.conj().T @ weight @ fj
    )
    lin = np.einsum("ij,ji->i", u, right_user)
    if objective == "jcas":
        quad = quad + channels.ris_to_bs.conj().T @ channels.ris_to_bs
        right_si = precoder.conj().T @ channels.si_los.conj().T @ channels.ris_to_bs
        lin = lin + np.einsum("ij,ji->i", u, right_si)
    else:
        lin = lin - np.einsum("ij,ji->i", u, weight @ fj)
    return quad * (u @ u.conj().T).T, lin


class TestRisLamMax:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_streams=st.integers(1, 3),
        objective=st.sampled_from(["jcas", "rate"]),
        data=st.data(),
    )
    def test_matches_dense_eigenvalue(self, seed, n_streams, objective, data):
        # precoder and weight of any rank from zero to full
        precoder_rank = data.draw(st.integers(0, n_streams), label="precoder_rank")
        weight_rank = data.draw(st.integers(0, n_streams), label="weight_rank")
        rng = np.random.default_rng(seed)
        channels = random_channelset(rng)
        precoder = low_rank(rng, channels.n_bs_tx, n_streams, precoder_rank)
        combiner = complex_normal(rng, (n_streams, channels.n_user))
        root = low_rank(rng, n_streams, n_streams, weight_rank)
        weight = root @ root.conj().T
        quad, lin, factored = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
        dense = np.linalg.eigvalsh(0.5 * (quad + quad.conj().T))[-1]
        assert abs(factored - dense) <= 1e-12 * abs(dense)
        if precoder_rank == 0:
            assert factored == 0.0
        hadamard_quad, hadamard_lin = hadamard_quadratics(precoder, combiner, weight, channels, objective)
        assert np.linalg.norm(quad - hadamard_quad) <= 1e-12 * np.linalg.norm(hadamard_quad)
        assert np.linalg.norm(lin - hadamard_lin) <= 1e-12 * np.linalg.norm(hadamard_lin)

    def test_zero_precoder_and_weight(self, small_channels):
        v = np.zeros((small_channels.n_bs_tx, 2), dtype=complex)
        f = np.zeros((2, small_channels.n_user), dtype=complex)
        w = np.zeros((2, 2), dtype=complex)
        for objective in ("jcas", "rate"):
            assert ris_quadratics(v, f, w, small_channels, objective=objective)[2] == 0.0


def random_quadratic(rng, n=16):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    quad = x @ x.conj().T / n
    lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return quad, lin


class TestMmStep:
    def test_scaled_identity_jumps_to_linear_optimum(self):
        rng = np.random.default_rng(12)
        n = 8
        quad = 2.5 * np.eye(n, dtype=complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = random_unit_modulus(n, rng)
        out = mm_step(phi, quad, lin)
        expect = np.exp(1j * np.angle(-np.conj(lin)))
        assert np.allclose(out, expect, atol=1e-12)

    def test_zero_direction_keeps_previous_phase(self):
        n = 5
        phi = random_unit_modulus(n, np.random.default_rng(13))
        out = mm_step(phi, np.zeros((n, n), dtype=complex), np.zeros(n, dtype=complex))
        assert np.array_equal(out, phi)

    def test_descent_over_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            quad, lin = random_quadratic(rng, n=8)
            phi = random_unit_modulus(8, rng)
            nxt = mm_step(phi, quad, lin)
            assert ris_objective_value(nxt, quad, lin) <= ris_objective_value(phi, quad, lin) + 1e-9

    def test_preserves_unit_modulus(self):
        rng = np.random.default_rng(15)
        quad, lin = random_quadratic(rng, n=12)
        phi = random_unit_modulus(12, rng)
        out = mm_step(phi, quad, lin)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_majorizer_upper_bounds_objective(self):
        rng = np.random.default_rng(16)
        quad, lin = random_quadratic(rng, n=10)
        lam_max = float(np.linalg.eigvalsh(quad)[-1])
        phi_n = random_unit_modulus(10, rng)

        def bound(phi):
            gap = lam_max * np.eye(10) - quad
            return (
                lam_max * 10
                - 2.0 * np.real(np.vdot(phi, gap @ phi_n))
                + np.real(np.vdot(phi_n, gap @ phi_n))
                + 2.0 * np.real(lin @ phi)
            )

        assert abs(bound(phi_n) - ris_objective_value(phi_n, quad, lin)) < 1e-8
        for _ in range(200):
            phi = random_unit_modulus(10, rng)
            assert bound(phi) >= ris_objective_value(phi, quad, lin) - 1e-8


class TestRisOptimize:
    def test_loose_tolerance_returns_after_first_step(self):
        rng = np.random.default_rng(17)
        n = 8
        quad = 50.0 * np.eye(n, dtype=complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi0 = random_unit_modulus(n, rng)
        _, values = ris_optimize(phi0, quad, lin, tol=1.0, max_iter=100)
        assert len(values) == 2

    def test_converged_point_is_fixed(self):
        rng = np.random.default_rng(18)
        quad, lin = random_quadratic(rng, n=16)
        phi0 = random_unit_modulus(16, rng)
        phi, _ = ris_optimize(phi0, quad, lin, tol=1e-12, max_iter=3000)
        again = mm_step(phi, quad, lin)
        assert np.max(np.abs(again - phi)) < 1e-6

    def test_monotone_over_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            quad, lin = random_quadratic(rng, n=10)
            phi0 = random_unit_modulus(10, rng)
            _, values = ris_optimize(phi0, quad, lin, tol=1e-8, max_iter=200)
            assert np.all(np.diff(values) <= 1e-9)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            ris_optimize(np.ones(3, dtype=complex), np.eye(3, dtype=complex), np.zeros(3), tol=0.0)

    @pytest.mark.parametrize(
        "quad, phi0, lin",
        [
            (np.ones((3, 4), dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.ones(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(4, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(4)),
        ],
        ids=["non-square", "one-dimensional", "phi0-length", "linear-length"],
    )
    def test_rejects_mismatched_shapes(self, quad, phi0, lin):
        with pytest.raises(ValueError, match="quad_matrix"):
            ris_optimize(phi0, quad, lin)

    @pytest.mark.parametrize("which", ["quad_matrix", "phi0", "linear"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_inputs(self, which, bad):
        args = {
            "quad_matrix": np.eye(4, dtype=complex),
            "phi0": np.ones(4, dtype=complex),
            "linear": np.ones(4, dtype=complex),
        }
        args[which][-1] = bad
        with pytest.raises(ValueError, match=which):
            ris_optimize(args["phi0"], args["quad_matrix"], args["linear"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_lam_max(self, bad):
        with pytest.raises(ValueError, match="lam_max"):
            ris_optimize(np.ones(4, dtype=complex), np.eye(4, dtype=complex), np.ones(4), lam_max=bad)


def iterate_mm_steps(phi0, quad, lin, tol, max_iter):
    """Reference solver: :func:`mm_step` and :func:`ris_objective_value`
    iterated by hand under the stopping rule of :func:`ris_optimize`."""
    lam_max = float(np.linalg.eigvalsh(0.5 * (quad + quad.conj().T))[-1])
    phi = np.asarray(phi0, dtype=complex)
    values = [ris_objective_value(phi, quad, lin)]
    for _ in range(max_iter):
        phi = mm_step(phi, quad, lin, lam_max)
        values.append(ris_objective_value(phi, quad, lin))
        delta = abs(values[-1] - values[-2])
        scale = abs(values[-1])
        if (delta <= tol * scale) if scale > 0.0 else (delta <= tol):
            break
    return phi, np.asarray(values)


def assert_matches_iterated_steps(phi0, quad, lin, tol, max_iter):
    """ris_optimize equals the hand-iterated steps bit for bit and leaves
    phi0 untouched; returns the number of steps taken."""
    before = phi0.copy()
    phi, values = ris_optimize(phi0, quad, lin, tol=tol, max_iter=max_iter)
    expect_phi, expect_values = iterate_mm_steps(phi0, quad, lin, tol, max_iter)
    assert np.array_equal(phi, expect_phi)
    assert np.array_equal(values, expect_values)
    assert np.array_equal(phi0, before)
    return len(values) - 1


class TestRisOptimizeMatchesMmStep:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_tol_stopped_run(self, seed, n):
        rng = np.random.default_rng(seed)
        quad, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        steps = assert_matches_iterated_steps(phi0, quad, lin, tol=1e-6, max_iter=10000)
        assert steps < 10000

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), max_iter=st.integers(0, 30))
    def test_run_capped_at_max_iter(self, seed, n, max_iter):
        rng = np.random.default_rng(seed)
        quad, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        steps = assert_matches_iterated_steps(phi0, quad, lin, tol=1e-300, max_iter=max_iter)
        assert steps == max_iter

    def test_given_lam_max_replaces_the_eigensolve(self):
        rng = np.random.default_rng(22)
        quad, lin = random_quadratic(rng, n=12)
        phi0 = random_unit_modulus(12, rng)
        lam_max = 2.0 * float(np.linalg.eigvalsh(quad)[-1])
        phi, _ = ris_optimize(phi0, quad, lin, tol=1e-300, max_iter=10, lam_max=lam_max)
        expect = phi0
        for _ in range(10):
            expect = mm_step(expect, quad, lin, lam_max)
        assert np.array_equal(phi, expect)

    def test_zero_quad_and_linear_keep_every_phase(self):
        n = 6
        phi0 = random_unit_modulus(n, np.random.default_rng(20))
        quad = np.zeros((n, n), dtype=complex)
        lin = np.zeros(n, dtype=complex)
        assert assert_matches_iterated_steps(phi0, quad, lin, tol=1e-5, max_iter=50) == 1
        phi, _ = ris_optimize(phi0, quad, lin)
        assert np.array_equal(phi, phi0)

    def test_zero_direction_on_some_elements_keeps_their_phase(self):
        # lam_max = 0 and a zero row/column with zero linear term make the
        # first element's direction exactly zero at every step.
        rng = np.random.default_rng(21)
        n = 7
        quad = -np.diag(np.arange(n, dtype=float)).astype(complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lin[0] = 0.0
        phi0 = random_unit_modulus(n, rng)
        assert_matches_iterated_steps(phi0, quad, lin, tol=1e-300, max_iter=10)
        phi, _ = ris_optimize(phi0, quad, lin, tol=1e-300, max_iter=10)
        assert phi[0] == phi0[0]
        assert not np.array_equal(phi[1:], phi0[1:])


def separate_product_step(phi, quad, lin, lam_max):
    """The MM step with its own ``quad @ phi`` product: the sequence of
    operations the solver's phase iterates (and so every ``fdjcas run``
    CSV) are pinned to, independently of :func:`mm_step`."""
    q = lam_max * phi - quad @ phi - np.conj(lin)
    return q / np.abs(q)


class TestRisOptimizeMatchesSeparateProducts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        rank=st.integers(1, 24),
        max_iter=st.integers(0, 30),
    )
    def test_capped_run(self, seed, n, rank, max_iter):
        """The bit-for-bit phase assertion pins a platform property: that the
        first n entries of the (n+1) x n augmented product ``A p`` sum in
        the order of the n x n ``quad @ phi``.  It holds for the SkylakeX
        gemv kernels of OpenBLAS 0.3.31 (numpy 2.4.6) at every n >= 2 and
        is known to fail there at n = 1, hence the range of ``n``.  A
        failure on another CPU or BLAS build can be a change of summation
        order there, not a solver fault; the values check below is a
        tolerance and holds either way."""
        # low-rank M like the ris_quadratics forms, plus a linear term
        rng = np.random.default_rng(seed)
        factor = complex_normal(rng, (n, min(rank, n)))
        quad = factor @ factor.conj().T
        lin = complex_normal(rng, n)
        phi0 = random_unit_modulus(n, rng)
        lam_max = float(np.linalg.eigvalsh(quad)[-1])
        phi, values = ris_optimize(phi0, quad, lin, tol=1e-300, max_iter=max_iter, lam_max=lam_max)
        expect_phi = phi0
        quad_terms, lin_terms = [], []
        for step in range(len(values)):
            if step:
                expect_phi = separate_product_step(expect_phi, quad, lin, lam_max)
            quad_terms.append(np.vdot(expect_phi, quad @ expect_phi).real)
            lin_terms.append(2.0 * (lin @ expect_phi).real)
        assert np.array_equal(phi, expect_phi)
        # relative to the two terms the value adds up, which may cancel
        quad_terms, lin_terms = np.array(quad_terms), np.array(lin_terms)
        error = np.abs(values - (quad_terms + lin_terms))
        assert np.all(error <= 1e-12 * (np.abs(quad_terms) + np.abs(lin_terms)))
        # a run stops before its cap only where the values repeat exactly
        assert len(values) == max_iter + 1 or values[-1] == values[-2]

    def test_returned_phase_is_its_own_array(self):
        rng = np.random.default_rng(23)
        quad, lin = random_quadratic(rng, n=12)
        phi0 = random_unit_modulus(12, rng)
        before = phi0.copy()
        for max_iter in (6, 7):
            phi, _ = ris_optimize(phi0, quad, lin, tol=1e-300, max_iter=max_iter)
            kept = phi.copy()
            again, _ = ris_optimize(phi, quad, lin, tol=1e-300, max_iter=max_iter)
            other, _ = ris_optimize(phi0, quad, lin, tol=1e-300, max_iter=max_iter)
            assert np.array_equal(phi, kept)
            assert np.array_equal(other, kept)
            assert np.array_equal(phi0, before)
            assert not np.shares_memory(phi, phi0)
            assert not np.shares_memory(phi, again)
            assert not np.shares_memory(phi, other)


class TestJcasConfig:
    @pytest.mark.parametrize(
        "value, name",
        [(bad, "power_budget") for bad in (math.nan, math.inf, 0.0, -1.0)]
        + [(bad, "crb_threshold") for bad in (math.nan, 0.0, -1.0)]
        + [(-3, "max_outer")],
    )
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            JcasConfig(**{name: value})


class TestSolverInvariants:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        snr_db=st.floats(0.0, 30.0),
        scheme=st.sampled_from(SCHEMES),
        threshold=st.sampled_from([0.002, 0.01, 0.05]),
    )
    def test_unit_modulus_power_and_bound(self, small_scene, seed, snr_db, scheme, threshold):
        ris_enabled, sensing_enabled = scheme_flags(scheme)
        noise = 10.0 ** (-snr_db / 10.0)
        channels = build_channel_set(
            small_scene, n_user_antennas=3, seed=seed, noise_user=noise, noise_radar=noise
        )
        config = JcasConfig(
            crb_threshold=threshold,
            ris_enabled=ris_enabled,
            sensing_enabled=sensing_enabled,
            seed=seed,
        )
        try:
            result = jcas_optimize(small_scene, channels, config, PathCoefficients.random(seed))
        except CrbInfeasibleError:
            assert sensing_enabled
            return
        if ris_enabled:
            assert np.max(np.abs(np.abs(result.ris_phase) - 1.0)) <= 1e-12
        else:
            assert np.all(result.ris_phase == 0.0)
        assert np.sum(np.abs(result.precoder) ** 2) <= config.power_budget * (1 + 1e-6)
        if sensing_enabled:
            assert result.trace.crb[-1] <= threshold * (1 + 1e-9)
        merit = np.array(result.trace.objective)
        assert np.all(np.diff(merit) <= 1e-6 * np.abs(merit[:-1]))

    def test_dominant_precoder_rejects_more_streams_than_antennas(self):
        h = np.ones((3, 4), dtype=complex)
        assert dominant_precoder(h, 4, 1.0).shape == (4, 4)
        for n_streams in (0, 5):
            with pytest.raises(ValueError, match="n_streams"):
                dominant_precoder(h, n_streams, 1.0)


class TestJcasOptimize:
    def test_no_ris_monotone_at_zero_profile(self, small_scene, small_channels):
        config = JcasConfig(
            ris_enabled=False, sensing_enabled=False, n_streams=2, seed=1, max_outer=40
        )
        result = jcas_optimize(small_scene, small_channels, config, PathCoefficients.random(1))
        obj = np.array(result.trace.objective)
        assert np.all(np.diff(obj) <= 1e-6 * np.maximum(np.abs(obj[:-1]), 1e-12))
        # without the surface the reflection profile is zero throughout
        assert result.ris_phase.shape == (small_channels.n_ris,)
        assert np.all(result.ris_phase == 0.0)

    def test_monotone_and_si_reduction_small(self, small_scene, small_channels):
        coeffs = PathCoefficients.random(2)
        config = JcasConfig(crb_threshold=math.inf, n_streams=2, seed=2, max_outer=60)
        result = jcas_optimize(small_scene, small_channels, config, coeffs=coeffs)
        trace = result.trace
        obj = np.array(trace.objective)
        rel = np.diff(obj) / np.maximum(np.abs(obj[:-1]), 1e-12)
        assert rel.max() <= 1e-6
        assert trace.si_power[-1] < trace.si_power[0]
        assert abs(np.sum(np.abs(result.precoder) ** 2)) <= config.power_budget * (1 + 1e-6)

    def test_crb_constraint_enforced_when_feasible(self, small_scene):
        channels = build_channel_set(
            small_scene, n_user_antennas=3, nlos_si_power=0.01, seed=4,
            noise_user=0.01, noise_radar=0.01,
        )
        coeffs = PathCoefficients.random(5)
        config = JcasConfig(crb_threshold=0.01, n_streams=2, seed=3)
        result = jcas_optimize(small_scene, channels, config, coeffs=coeffs)
        assert result.trace.crb[-1] <= 0.01 * (1 + 1e-3)

    def test_infeasible_propagates_with_iteration_context(self, small_scene, small_channels):
        coeffs = PathCoefficients.random(6)
        config = JcasConfig(crb_threshold=1e-30, n_streams=2, seed=4)
        with pytest.raises(CrbInfeasibleError) as err:
            jcas_optimize(small_scene, small_channels, config, coeffs=coeffs)
        assert "outer iteration" in str(err.value)

    def test_rate_evaluated_once_per_state(self, small_scene, small_channels, monkeypatch):
        calls = []

        def counting_dl_rate(*args):
            calls.append(1)
            return dl_rate(*args)

        monkeypatch.setattr(optimizer, "dl_rate", counting_dl_rate)
        for ris_enabled, per_iteration in ((True, 2), (False, 1)):
            calls.clear()
            config = JcasConfig(ris_enabled=ris_enabled, n_streams=2, seed=7, max_outer=5)
            result = jcas_optimize(
                small_scene, small_channels, config, coeffs=PathCoefficients.random(7)
            )
            iterations = len(result.trace) - 1
            # the initial state, then the proposal and the current phase
            # (RIS schemes) or the current state alone (no-RIS schemes)
            assert len(calls) == 1 + per_iteration * iterations

    @staticmethod
    def run_reference_cells(max_outer):
        """``jcas_optimize`` on reference-dimension cells of both surface
        schemes at 0 and 30 dB, yielding (cell, solver options) after each.
        Seed indices 0 and 2 meet the sensing bound at 0 dB."""
        for scheme in ("ris_comm_only", "ris_with_sensing"):
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=max_outer)
            for snr_db in (0.0, 30.0):
                for seed_index in (0, 2):
                    scene, channels, coeffs, jcas = build_cell(config, seed_index, snr_db)
                    jcas_optimize(scene, channels, jcas, coeffs)
                    yield (scheme, snr_db, seed_index), jcas

    def test_phase_steps_descend_on_reference_cells(self, monkeypatch):
        # the factored lam_max is exact to rounding, with no safety factor,
        # so the MM majorizer must still give a non-increasing objective
        calls = []

        def recording(*args, **kwargs):
            phi, values = ris_optimize(*args, **kwargs)
            calls.append((kwargs.get("lam_max"), values))
            return phi, values

        monkeypatch.setattr(optimizer, "ris_optimize", recording)
        for cell, _ in self.run_reference_cells(max_outer=30):
            assert calls, cell
            for lam_max, values in calls:
                assert lam_max is not None
                assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1])), cell
            calls.clear()

    def test_no_surface_sized_eigensolve(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        bound = None
        for cell, jcas in self.run_reference_cells(max_outer=3):
            bound = jcas.n_streams * (jcas.n_streams + ExperimentConfig().n_bs_rx)
            assert shapes, cell
            assert max(max(shape) for shape in shapes) <= bound, (cell, shapes)
            shapes.clear()
        # the bound is smaller than the surface, so a dense eigensolve would fail it
        assert bound < ExperimentConfig().ris_rows * ExperimentConfig().ris_cols
