import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fdjcas.channels import ChannelSet, build_channel_set
from fdjcas.crb import fisher_core
from fdjcas.experiments import SCHEMES, ExperimentConfig, build_cell, scheme_flags
from fdjcas.geometry import InfeasibleGeometryError, build_scene
import fdjcas.optimizer as optimizer
from fdjcas.optimizer import (
    CrbInfeasibleError,
    JcasConfig,
    dl_rate,
    dominant_precoder,
    effective_channel,
    jcas_optimize,
    jcas_optimize_batch,
    mm_step,
    mmse_combiner,
    mse_matrix,
    precoder_update,
    ris_objective_value,
    ris_optimize,
    ris_quadratics,
    si_channel,
    weight_matrix,
)
from fdjcas.steering import PathCoefficients, build_sensing_context

from conftest import random_unit_modulus

LN2 = math.log(2.0)


def si_matrix(precoder, phi, channels):
    """Covariance of the self-interference hitting the radar array: the
    reference the SI power and the ``"jcas"`` phase form are checked
    against."""
    leak = si_channel(channels, phi) @ precoder
    cov = leak @ leak.conj().T
    return 0.5 * (cov + cov.conj().T)


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
        w = LN2 * weight_matrix(np.eye(3, dtype=complex))
        assert np.allclose(w, np.eye(3), atol=1e-14)

    def test_scalar(self):
        w = LN2 * weight_matrix(np.array([[0.5 + 0.0j]]))
        assert w[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_product_is_scaled_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        e = x @ x.conj().T + np.eye(3)
        w = weight_matrix(e)
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

    @staticmethod
    def sensing_state(scene, seed, snr_db):
        """Combiner, weight, channels, phase and sensing context of a
        random precoder-update input on ``scene``, drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        noise = 10.0 ** (-snr_db / 10.0)
        scene = scene.with_target_angle(rng.uniform(-1.0, 1.0))
        channels = build_channel_set(
            scene, n_user_antennas=3, nlos_si_power=0.01, seed=seed, noise_user=noise, noise_radar=noise
        )
        phi = random_unit_modulus(channels.n_ris, rng)
        h_eff = effective_channel(channels, phi)
        v0 = complex_normal(rng, (channels.n_bs_tx, 2)) / 4
        f = mmse_combiner(h_eff, v0, noise)
        w = weight_matrix(mse_matrix(h_eff, v0, noise))
        ctx = build_sensing_context(scene, phi, PathCoefficients.random(seed), noise)
        return f, w, channels, phi, ctx

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        snr_db=st.sampled_from([0.0, 10.0, 20.0, 30.0]),
        budget=st.sampled_from([0.1, 1.0, 10.0]),
        pick=st.integers(0, 3),
    )
    def test_infeasible_iff_zero_multiplier_bound_misses(self, small_scene, seeds, snr_db, budget, pick):
        # a larger sensing multiplier never lowers the bound, so a design is
        # infeasible exactly when its zero-multiplier precoder misses the
        # threshold, and that precoder is what the update returns
        states = [self.sensing_state(small_scene, seed, snr_db) for seed in seeds]
        solves, solve = [], optimizer._solve_power_constrained

        def counting(*args):
            solves.append(1)
            return solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_solve_power_constrained", counting)
            zero = []
            for f, w, channels, phi, ctx in states:
                v, lam, mu = precoder_update(f, w, channels, phi, budget)
                assert mu == 0.0
                fisher = fisher_core(ctx.path_response_deriv, ctx.noise_cov)
                (bound,) = optimizer._bound(v[None], fisher[None])
                assert 0.0 < bound < math.inf
                zero.append((v, lam, bound))
            for (f, w, channels, phi, ctx), (v0, lam0, bound) in zip(states, zero):
                for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                    threshold = bound * factor
                    solves.clear()
                    args = (f, w, channels, phi, budget, threshold, ctx.path_response_deriv, ctx.noise_cov)
                    if bound > threshold:
                        with pytest.raises(CrbInfeasibleError) as err:
                            precoder_update(*args)
                        assert err.value.achieved.hex() == bound.hex()
                        assert err.value.threshold == threshold
                    else:
                        v, lam, mu = precoder_update(*args)
                        assert (v.tobytes(), lam, mu) == (v0.tobytes(), lam0, 0.0)
                    assert len(solves) == 1
            # the stacked form: every row checked against one threshold
            bounds = np.array([bound for _, _, bound in zero])
            terms = optimizer._phase_terms(
                np.stack([effective_channel(channels, phi) for _, _, channels, phi, _ in states]),
                np.stack([si_channel(channels, phi) for _, _, channels, phi, _ in states]),
                np.stack([ctx.path_response_deriv for *_, ctx in states]),
                np.stack([ctx.noise_cov for *_, ctx in states]),
            )
            combiner, weight = np.stack([s[0] for s in states]), np.stack([s[1] for s in states])
            for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                threshold = bounds[pick % len(states)] * factor
                solves.clear()
                v, lam, mu = precoder_update(
                    combiner, weight, None, None, budget, threshold, phase_terms=terms
                )
                assert len(solves) == 1
                assert (mu == math.inf).tolist() == (bounds > threshold).tolist()
                assert np.all((mu == 0.0) | (mu == math.inf))
                for row, (v0, lam0, _) in enumerate(zero):
                    assert (v[row].tobytes(), lam[row]) == (v0.tobytes(), lam0)


class TestSolvePowerConstrained:
    @staticmethod
    def problem(rank, n=6, streams=2, seed=0):
        """Hermitian PSD core of the given rank and a right-hand side in its range."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        core = a @ a.conj().T
        rhs = core @ (rng.standard_normal((n, streams)) + 1j * rng.standard_normal((n, streams)))
        return core, rhs

    def test_zero_rhs_gives_zero_precoder(self):
        core, rhs = self.problem(rank=6)
        (v,), (lam,) = optimizer._solve_power_constrained(core[None], np.zeros_like(rhs)[None], 1.0)
        assert lam == 0.0
        assert v.shape == rhs.shape and np.all(v == 0.0)

    @pytest.mark.parametrize("rank", [6, 3])
    def test_slack_budget_gives_min_norm_solution(self, rank):
        core, rhs = self.problem(rank)
        expected = np.linalg.pinv(core, rcond=1e-10, hermitian=True) @ rhs
        power = float(np.sum(np.abs(expected) ** 2))
        (v,), (lam,) = optimizer._solve_power_constrained(core[None], rhs[None], 2.0 * power)
        assert lam == 0.0
        assert np.linalg.norm(v - expected) <= 1e-8 * np.linalg.norm(expected)

    @pytest.mark.parametrize("rank", [6, 3])
    def test_binding_budget_is_met(self, rank):
        core, rhs = self.problem(rank)
        expected = np.linalg.pinv(core, rcond=1e-10, hermitian=True) @ rhs
        budget = 0.25 * float(np.sum(np.abs(expected) ** 2))
        (v,), (lam,) = optimizer._solve_power_constrained(core[None], rhs[None], budget)
        assert lam > 0.0
        assert abs(float(np.sum(np.abs(v) ** 2)) - budget) < 1e-6 * budget

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        log_lam=st.floats(-12.0, 12.0),
        log_scale=st.floats(-8.0, 8.0),
    )
    def test_buffered_probe_matches_expression_bit_for_bit(self, seed, n, log_lam, log_scale):
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.exponential(10.0**log_scale, n))
        evals[: rng.integers(0, n + 1)] = 0.0  # a rank-deficient core
        row_power = rng.exponential(1.0, n)
        lam = 10.0**log_lam
        out = np.empty_like(evals)
        buffered = optimizer._probe_power(lam, evals, row_power, out)
        expected = float(np.sum(row_power / (evals + lam) ** 2))
        assert buffered.hex() == expected.hex()


    @staticmethod
    def one_probe_at_a_time(evals, row_power, budget):
        """The power multiplier of one row, probing one value at a time:
        the reference the stacked tree walk must match bit for bit."""

        def power(lam):
            return float(np.sum(row_power / (evals + lam) ** 2))

        lo, hi, guard = 0.0, 1.0, 0
        while power(hi) >= budget and guard < 200:
            hi *= 2.0
            guard += 1
        for _ in range(optimizer.MAX_BISECT):
            lam = 0.5 * (lo + hi)
            value = power(lam)
            if abs(value - budget) < optimizer.BISECT_TOL * budget:
                return lam
            if value > budget:
                lo = lam
            else:
                hi = lam
        return hi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        n=st.integers(1, 20),
        log_power=st.floats(-150.0, 8.0),
        log_budget=st.floats(-4.0, 4.0),
    )
    # deep bisections: from (0, 1) toward 1e-50 (about 190 steps) and
    # toward 1e-70, which 200 steps do not reach
    @example(seed=0, rows=1, n=1, log_power=-100.0, log_budget=0.0)
    @example(seed=0, rows=2, n=1, log_power=-140.0, log_budget=0.0)
    def test_tree_walk_matches_one_probe_at_a_time(self, seed, rows, n, log_power, log_budget):
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.exponential(1.0, (rows, n)), axis=1)
        evals[:, : rng.integers(0, n + 1)] = 0.0  # rank-deficient cores
        row_power = 10.0**log_power * rng.exponential(1.0, (rows, n))
        budget = 10.0**log_budget
        expected = [self.one_probe_at_a_time(e, r, budget) for e, r in zip(evals, row_power)]
        assert optimizer._bisect_power(evals, row_power, budget).tolist() == expected


class TestRisQuadratics:
    def test_zero_precoder_and_weight(self, small_channels):
        n_tx = small_channels.n_bs_tx
        v = np.zeros((n_tx, 2), dtype=complex)
        f = np.zeros((2, small_channels.n_user), dtype=complex)
        w = np.zeros((2, 2), dtype=complex)
        factor, lin = ris_quadratics(v, f, w, small_channels)
        assert np.all(factor == 0.0)
        assert np.all(lin == 0.0)

    def test_identity_toy_hand_computed(self):
        eye = np.eye(3, dtype=complex)
        ch = ChannelSet(
            bs_to_user=eye, ris_to_user=eye, bs_to_ris=eye, ris_to_bs=eye,
            si_los=eye, si_nlos=np.zeros((3, 3), dtype=complex),
        )
        factor, lin = ris_quadratics(eye, eye, eye, ch)
        assert np.allclose(factor @ factor.conj().T, 2.0 * np.eye(3), atol=1e-14)
        assert np.allclose(lin, 2.0 * np.ones(3), atol=1e-14)

    def test_objective_equivalence_sweep(self, small_channels):
        rng = np.random.default_rng(10)
        v = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        phi0 = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi0)
        f = mmse_combiner(h_eff, v, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v, small_channels.noise_user))
        factor, lin = ris_quadratics(v, f, w, small_channels)

        def restricted(phi):
            he = effective_channel(small_channels, phi)
            si = np.real(np.trace(si_matrix(v, phi, small_channels)))
            sig = np.real(np.trace(w @ f @ he @ v @ v.conj().T @ he.conj().T @ f.conj().T))
            return si + sig

        devs = [
            restricted(p) - ris_objective_value(p, factor, lin)
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
        factor, lin = ris_quadratics(v, f, w, small_channels, objective="rate")

        def weighted_mse(phi):
            he = effective_channel(small_channels, phi)
            err = np.eye(2) - f @ he @ v
            e_hat = err @ err.conj().T + small_channels.noise_user * f @ f.conj().T
            return float(np.real(np.trace(w @ e_hat)))

        devs = [
            weighted_mse(p) - ris_objective_value(p, factor, lin)
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
        """One solver step is the dense MM step ``(lam p - M p - conj(d))/|.|``
        with ``lam`` the top eigenvalue of the dense ``M``, and ``(F, d)`` is
        the term-by-term ``(M, d)``."""
        # precoder and weight of any rank from zero to full
        precoder_rank = data.draw(st.integers(0, n_streams), label="precoder_rank")
        weight_rank = data.draw(st.integers(0, n_streams), label="weight_rank")
        rng = np.random.default_rng(seed)
        channels = random_channelset(rng)
        precoder = low_rank(rng, channels.n_bs_tx, n_streams, precoder_rank)
        combiner = complex_normal(rng, (n_streams, channels.n_user))
        root = low_rank(rng, n_streams, n_streams, weight_rank)
        weight = root @ root.conj().T
        factor, lin = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
        # one row per element; columns sized by the streams, not the surface
        columns = n_streams * (n_streams + channels.n_bs_rx) if objective == "jcas" else n_streams**2
        assert factor.shape == (channels.n_ris, columns)
        quad = factor @ factor.conj().T
        # the solver's step size is the dense top eigenvalue of M = F F^H
        lam = np.linalg.eigvalsh(0.5 * (quad + quad.conj().T))[-1]
        phi = random_unit_modulus(channels.n_ris, rng)
        q = lam * phi - quad @ phi - np.conj(lin)
        mag = np.abs(q)
        moved = mag > 0.0
        expect = phi.copy()
        expect[moved] = q[moved] / mag[moved]
        assert np.max(np.abs(mm_step(phi, factor, lin) - expect)) <= 1e-12
        hadamard_quad, hadamard_lin = hadamard_quadratics(precoder, combiner, weight, channels, objective)
        assert np.linalg.norm(quad - hadamard_quad) <= 1e-12 * np.linalg.norm(hadamard_quad)
        assert np.linalg.norm(lin - hadamard_lin) <= 1e-12 * np.linalg.norm(hadamard_lin)

    def test_zero_precoder_and_weight(self, small_channels):
        # F = 0, so the step size is zero and every direction is zero
        v = np.zeros((small_channels.n_bs_tx, 2), dtype=complex)
        f = np.zeros((2, small_channels.n_user), dtype=complex)
        w = np.zeros((2, 2), dtype=complex)
        phi = random_unit_modulus(small_channels.n_ris, np.random.default_rng(25))
        for objective in ("jcas", "rate"):
            factor, lin = ris_quadratics(v, f, w, small_channels, objective=objective)
            assert np.all(factor == 0.0)
            assert np.array_equal(mm_step(phi, factor, lin), phi)


def random_quadratic(rng, n=16):
    """A random phase objective as (F, d): full-rank ``M = F F^H``."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.sqrt(n), lin


def top_eigenvalue(factor):
    """Largest eigenvalue of ``F F^H`` from the Gram ``F^H F``, as the solver
    computes its step size."""
    gram = factor.conj().T @ factor
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1])


class TestMmStep:
    def test_scaled_identity_jumps_to_linear_optimum(self):
        rng = np.random.default_rng(12)
        n = 8
        factor = np.sqrt(2.5) * np.eye(n, dtype=complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi = random_unit_modulus(n, rng)
        out = mm_step(phi, factor, lin)
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
            factor, lin = random_quadratic(rng, n=8)
            phi = random_unit_modulus(8, rng)
            nxt = mm_step(phi, factor, lin)
            assert ris_objective_value(nxt, factor, lin) <= ris_objective_value(phi, factor, lin) + 1e-9

    def test_preserves_unit_modulus(self):
        rng = np.random.default_rng(15)
        factor, lin = random_quadratic(rng, n=12)
        phi = random_unit_modulus(12, rng)
        out = mm_step(phi, factor, lin)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_majorizer_upper_bounds_objective(self):
        rng = np.random.default_rng(16)
        factor, lin = random_quadratic(rng, n=10)
        quad = factor @ factor.conj().T
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

        assert abs(bound(phi_n) - ris_objective_value(phi_n, factor, lin)) < 1e-8
        for _ in range(200):
            phi = random_unit_modulus(10, rng)
            assert bound(phi) >= ris_objective_value(phi, factor, lin) - 1e-8


class TestRisOptimize:
    def test_loose_tolerance_returns_after_first_step(self):
        rng = np.random.default_rng(17)
        n = 8
        factor = np.sqrt(50.0) * np.eye(n, dtype=complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi0 = random_unit_modulus(n, rng)
        _, values = ris_optimize(phi0, factor, lin, tol=1.0, max_iter=100)
        assert len(values) == 2

    def test_converged_point_is_fixed(self):
        rng = np.random.default_rng(18)
        factor, lin = random_quadratic(rng, n=16)
        phi0 = random_unit_modulus(16, rng)
        phi, _ = ris_optimize(phi0, factor, lin, tol=1e-12, max_iter=3000)
        again = mm_step(phi, factor, lin)
        assert np.max(np.abs(again - phi)) < 1e-6

    def test_monotone_over_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            factor, lin = random_quadratic(rng, n=10)
            phi0 = random_unit_modulus(10, rng)
            _, values = ris_optimize(phi0, factor, lin, tol=1e-8, max_iter=200)
            assert np.all(np.diff(values) <= 1e-9)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            ris_optimize(np.ones(3, dtype=complex), np.eye(3, dtype=complex), np.zeros(3), tol=0.0)

    @pytest.mark.parametrize(
        "factor, phi0, lin",
        [
            (np.ones((3, 4, 1), dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.ones(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.ones((3, 0), dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(4, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(4)),
        ],
        ids=["three-dimensional", "one-dimensional", "no-columns", "phi0-length", "linear-length"],
    )
    def test_rejects_mismatched_shapes(self, factor, phi0, lin):
        with pytest.raises(ValueError, match="factor"):
            ris_optimize(phi0, factor, lin)

    @pytest.mark.parametrize("which", ["factor", "phi0", "linear"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_inputs(self, which, bad):
        args = {
            "factor": np.eye(4, dtype=complex),
            "phi0": np.ones(4, dtype=complex),
            "linear": np.ones(4, dtype=complex),
        }
        args[which][-1] = bad
        with pytest.raises(ValueError, match=which):
            ris_optimize(args["phi0"], args["factor"], args["linear"])

    @pytest.mark.parametrize("max_iter", [-1, -3])
    def test_rejects_negative_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            ris_optimize(np.ones(4, dtype=complex), np.eye(4, dtype=complex), np.ones(4), max_iter=max_iter)


def iterate_mm_steps(phi0, factor, lin, tol, max_iter):
    """Reference solver: fresh single steps (:func:`mm_step`) and values
    (:func:`ris_objective_value`), iterated by hand under the stopping rule
    of :func:`ris_optimize`."""
    phi = np.asarray(phi0, dtype=complex)
    values = [ris_objective_value(phi, factor, lin)]
    for _ in range(max_iter):
        phi = mm_step(phi, factor, lin)
        values.append(ris_objective_value(phi, factor, lin))
        delta = abs(values[-1] - values[-2])
        scale = abs(values[-1])
        if (delta <= tol * scale) if scale > 0.0 else (delta <= tol):
            break
    return phi, np.asarray(values)


def assert_matches_iterated_steps(phi0, factor, lin, tol, max_iter):
    """ris_optimize, which carries its state from step to step, equals the
    hand-iterated fresh single steps bit for bit and leaves phi0 untouched;
    returns the number of steps taken."""
    before = phi0.copy()
    phi, values = ris_optimize(phi0, factor, lin, tol=tol, max_iter=max_iter)
    expect_phi, expect_values = iterate_mm_steps(phi0, factor, lin, tol, max_iter)
    assert np.array_equal(phi, expect_phi)
    assert np.array_equal(values, expect_values)
    assert np.array_equal(phi0, before)
    return len(values) - 1


class TestRisOptimizeMatchesMmStep:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_tol_stopped_run(self, seed, n):
        rng = np.random.default_rng(seed)
        factor, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        steps = assert_matches_iterated_steps(phi0, factor, lin, tol=1e-6, max_iter=10000)
        assert steps < 10000

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), max_iter=st.integers(0, 30))
    def test_run_capped_at_max_iter(self, seed, n, max_iter):
        rng = np.random.default_rng(seed)
        factor, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        steps = assert_matches_iterated_steps(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
        assert steps == max_iter

    def test_zero_quad_and_linear_keep_every_phase(self):
        n = 6
        phi0 = random_unit_modulus(n, np.random.default_rng(20))
        factor = np.zeros((n, n), dtype=complex)
        lin = np.zeros(n, dtype=complex)
        assert assert_matches_iterated_steps(phi0, factor, lin, tol=1e-5, max_iter=50) == 1
        phi, _ = ris_optimize(phi0, factor, lin)
        assert np.array_equal(phi, phi0)

    def test_zero_direction_on_some_elements_keeps_their_phase(self):
        # F = 0 (so lam_max = 0) and a zero linear term make the first
        # element's direction exactly zero at every step; the others jump
        # to the optimum of the linear term.
        rng = np.random.default_rng(21)
        n = 7
        factor = np.zeros((n, 3), dtype=complex)
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lin[0] = 0.0
        phi0 = random_unit_modulus(n, rng)
        assert_matches_iterated_steps(phi0, factor, lin, tol=1e-300, max_iter=10)
        phi, _ = ris_optimize(phi0, factor, lin, tol=1e-300, max_iter=10)
        assert phi[0] == phi0[0]
        assert np.allclose(phi[1:], -np.conj(lin[1:]) / np.abs(lin[1:]), rtol=0.0, atol=1e-15)


def factored_reference_step(phi, factor, lin, lam_max):
    """The MM step on the solver's two products, written out independently
    of :func:`mm_step` on arrays of the same shapes and row-major layout:
    ``[F^H; 2 d^T] p``, then ``[F | conj(d)] / lam_max`` times
    ``[F^H p; 1]``.  The products go through ``ndarray.dot`` like the
    solver's; ``@`` takes another path for some shapes (a one-element
    surface)."""
    lead = np.ascontiguousarray(np.vstack((factor.conj().T, 2.0 * lin)))
    back = np.hstack((factor, np.conj(lin)[:, None])) * (1.0 / lam_max)
    q = phi - back.dot(np.append(lead.dot(phi)[:-1], 1.0))
    return q / np.abs(q)


class TestRisOptimizeMatchesSeparateProducts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        rank=st.integers(1, 24),
        max_iter=st.integers(0, 30),
    )
    def test_capped_run(self, seed, n, rank, max_iter):
        """The phase equals the factored reference step's bit for bit; both
        run the same products on arrays of the same shapes.  The values
        agree with ``vdot(p, M p) + 2 Re(d^T p)`` on the dense ``M = F F^H``
        to a tolerance, since they are summed in another order."""
        # low-rank M like the ris_quadratics forms, plus a linear term
        rng = np.random.default_rng(seed)
        factor = complex_normal(rng, (n, rank))
        quad = factor @ factor.conj().T
        lin = complex_normal(rng, n)
        phi0 = random_unit_modulus(n, rng)
        lam_max = top_eigenvalue(factor)
        phi, values = ris_optimize(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
        expect_phi = phi0
        quad_terms, lin_terms = [], []
        for step in range(len(values)):
            if step:
                expect_phi = factored_reference_step(expect_phi, factor, lin, lam_max)
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
        factor, lin = random_quadratic(rng, n=12)
        phi0 = random_unit_modulus(12, rng)
        before = phi0.copy()
        for max_iter in (6, 7):
            phi, _ = ris_optimize(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
            kept = phi.copy()
            again, _ = ris_optimize(phi, factor, lin, tol=1e-300, max_iter=max_iter)
            other, _ = ris_optimize(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
            assert np.array_equal(phi, kept)
            assert np.array_equal(other, kept)
            assert np.array_equal(phi0, before)
            assert not np.shares_memory(phi, phi0)
            assert not np.shares_memory(phi, again)
            assert not np.shares_memory(phi, other)


def dense_reference_solve(phi0, factor, lin, lam_max, tol, max_iter):
    """The MM solver on the dense ``M = F F^H``: ``q = lam_max p - M p -
    conj(d)``, ``q/|q|``, under the stopping rule of :func:`ris_optimize`."""
    quad = factor @ factor.conj().T

    def value(p):
        return np.vdot(p, quad @ p).real + 2.0 * (lin @ p).real

    phi, values = phi0, [value(phi0)]
    for _ in range(max_iter):
        q = lam_max * phi - quad @ phi - np.conj(lin)
        phi = q / np.abs(q)
        values.append(value(phi))
        delta = abs(values[-1] - values[-2])
        scale = abs(values[-1])
        if (delta <= tol * scale) if scale > 0.0 else (delta <= tol):
            break
    return phi, np.asarray(values)


def reference_phase_problem(objective, snr_db, seed_index, zero_state=False):
    """Start phase, then ``ris_quadratics`` output and the top eigenvalue of
    the dense ``M = F F^H``, of a reference-dimension cell at the initial
    point of :func:`jcas_optimize`; with ``zero_state`` the precoder,
    combiner and weight are zero."""
    scheme = "ris_with_sensing" if objective == "jcas" else "ris_comm_only"
    _, channels, _, jcas = build_cell(ExperimentConfig(scheme=scheme, seeds=2), seed_index, snr_db)
    phi = random_unit_modulus(channels.n_ris, np.random.default_rng([jcas.seed, 0]))
    h_eff = effective_channel(channels, phi)
    precoder = dominant_precoder(h_eff, jcas.n_streams, jcas.power_budget)
    combiner = mmse_combiner(h_eff, precoder, channels.noise_user)
    weight = weight_matrix(mse_matrix(h_eff, precoder, channels.noise_user))
    if zero_state:
        precoder, combiner, weight = np.zeros_like(precoder), np.zeros_like(combiner), np.zeros_like(weight)
    factor, lin = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
    quad = factor @ factor.conj().T
    return phi, (factor, lin, float(np.linalg.eigvalsh(0.5 * (quad + quad.conj().T))[-1]))


class TestRisOptimizeMatchesDenseReference:
    @pytest.mark.parametrize("objective", ["jcas", "rate"])
    @pytest.mark.parametrize("snr_db, seed_index", [(0.0, 0), (30.0, 1)])
    def test_reference_cells(self, objective, snr_db, seed_index):
        phi0, (factor, lin, lam_max) = reference_phase_problem(objective, snr_db, seed_index)
        phi, values = ris_optimize(phi0, factor, lin)
        expect_phi, expect_values = dense_reference_solve(
            phi0, factor, lin, lam_max, optimizer.RIS_TOL, optimizer.MAX_RIS_ITER
        )
        assert len(values) == len(expect_values)
        assert np.max(np.abs(phi - expect_phi)) <= 1e-12

    @pytest.mark.parametrize("objective", ["jcas", "rate"])
    def test_zero_precoder_and_weight_keep_every_phase(self, objective):
        phi0, (factor, lin, lam_max) = reference_phase_problem(objective, 10.0, 0, zero_state=True)
        assert lam_max == 0.0
        phi, values = ris_optimize(phi0, factor, lin)
        assert np.array_equal(phi, phi0)
        assert np.array_equal(values, [0.0, 0.0])


class TestJcasConfig:
    @pytest.mark.parametrize(
        "value, name",
        [(bad, "power_budget") for bad in (math.nan, math.inf, 0.0, -1.0)]
        + [(bad, "crb_threshold") for bad in (math.nan, 0.0, -1.0)]
        + [(bad, "outer_tol") for bad in (math.nan, math.inf, 0.0, -1.0)]
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        bs_ris_angle=st.floats(-1.2, 1.2),
        bs_ris_distance=st.floats(2.0, 8.0),
        target_range=st.floats(10.0, 80.0),
        placement=st.sampled_from(["target_on_ris_rows", "target_on_ris_columns", "user_at_ris"]),
        scheme=st.sampled_from(SCHEMES),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_degenerate_geometry_fails_cleanly(
        self, bs_ris_angle, bs_ris_distance, target_range, placement, scheme, seed
    ):
        # the target straight along a surface axis from its reference
        # element makes the angle derivatives singular; a user on that
        # element has no angle at all
        ris_x, ris_z = bs_ris_distance * np.cos(bs_ris_angle), bs_ris_distance * np.sin(bs_ris_angle)
        target_angle = {
            "target_on_ris_rows": np.arccos(ris_x / target_range),
            "target_on_ris_columns": np.arcsin(ris_z / target_range),
            "user_at_ris": np.deg2rad(20.0),
        }[placement]
        user = (
            {"user_range": bs_ris_distance, "user_angle": bs_ris_angle} if placement == "user_at_ris" else {}
        )
        scene = build_scene(
            n_bs_tx=6, n_bs_rx=4, ris_rows=3, ris_cols=3, bs_ris_angle=bs_ris_angle,
            bs_ris_distance=bs_ris_distance, target_range=target_range, target_angle=target_angle, **user,
        )
        ris_enabled, sensing_enabled = scheme_flags(scheme)
        config = JcasConfig(ris_enabled=ris_enabled, sensing_enabled=sensing_enabled, seed=seed, max_outer=5)

        def run():
            channels = build_channel_set(scene, n_user_antennas=3, seed=seed, noise_user=0.1, noise_radar=0.1)
            return jcas_optimize(scene, channels, config, PathCoefficients.random(seed))

        if placement == "user_at_ris" or sensing_enabled:
            with pytest.raises(InfeasibleGeometryError):
                run()
            return
        # a scheme that does not sense never looks at the target
        result = run()
        for values in (result.precoder, result.ris_phase, result.trace.objective, result.trace.rate_bps_hz):
            assert np.all(np.isfinite(values))

    def test_dominant_precoder_rejects_more_streams_than_antennas(self):
        h = np.ones((3, 4), dtype=complex)
        assert dominant_precoder(h, 4, 1.0).shape == (4, 4)
        for n_streams in (0, 5):
            with pytest.raises(ValueError, match="n_streams"):
                dominant_precoder(h, n_streams, 1.0)


TRACE_COLUMNS = ("iteration", "objective", "rate_bps_hz", "si_power", "crb", "lambda0", "mu_k")


def assert_batch_matches_cells_alone(scheme, cells, max_outer):
    """``jcas_optimize_batch`` of reference-dimension ``(seed_index,
    snr_db)`` cells against ``jcas_optimize`` of each cell alone, bit for
    bit; returns each cell's end: converged, capped or infeasible."""
    config = ExperimentConfig(scheme=scheme, seeds=6, max_outer=max_outer)
    built = [build_cell(config, seed_index, snr_db) for seed_index, snr_db in cells]
    batch = jcas_optimize_batch([(scene, channels, jcas, coeffs) for scene, channels, coeffs, jcas in built])
    ends = []
    for cell, (scene, channels, coeffs, jcas), result in zip(cells, built, batch):
        try:
            alone = jcas_optimize(scene, channels, jcas, coeffs)
        except CrbInfeasibleError:
            assert result is None, cell
            ends.append("infeasible")
            continue
        assert result.precoder.tobytes() == alone.precoder.tobytes(), cell
        assert result.ris_phase.tobytes() == alone.ris_phase.tobytes(), cell
        for name in TRACE_COLUMNS:
            got, expected = np.array(getattr(result.trace, name)), np.array(getattr(alone.trace, name))
            assert got.tobytes() == expected.tobytes(), (cell, name)
        ends.append("capped" if len(alone.trace) - 1 == max_outer else "converged")
    return ends


class TestLockstep:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        scheme=st.sampled_from(SCHEMES),
        cells=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0])), min_size=1, max_size=6
        ),
        max_outer=st.sampled_from([3, 12]),
    )
    def test_batch_equals_cells_run_alone(self, scheme, cells, max_outer):
        assert_batch_matches_cells_alone(scheme, cells, max_outer)

    def test_batch_mixing_infeasible_converged_and_capped_cells(self):
        # ris_with_sensing at reference size: seed index 1 is infeasible at
        # 0 and 10 dB, the others converge within 10 iterations at 0-10 dB
        # and run to the cap at 30 dB
        cells = [(0, 0.0), (1, 0.0), (2, 10.0), (1, 10.0), (0, 30.0), (3, 30.0)]
        ends = assert_batch_matches_cells_alone("ris_with_sensing", cells, max_outer=10)
        assert ends == ["converged", "infeasible", "converged", "infeasible", "capped", "capped"]

    def test_infeasible_cell_leaves_the_batch(self):
        # seed index 1 is infeasible at 0 dB; its neighbours run on alone
        ends = assert_batch_matches_cells_alone("ris_with_sensing", [(0, 0.0), (1, 0.0), (2, 0.0)], max_outer=10)
        assert ends == ["converged", "infeasible", "converged"]
        # alone, the cell raises with the outer iteration it failed at
        config = ExperimentConfig(scheme="ris_with_sensing", seeds=3, max_outer=10)
        scene, channels, coeffs, jcas = build_cell(config, 1, 0.0)
        with pytest.raises(CrbInfeasibleError, match=r"^outer iteration 1: CRB constraint infeasible") as err:
            jcas_optimize(scene, channels, jcas, coeffs)
        assert err.value.achieved > err.value.threshold == config.crb_threshold

    def test_cells_must_share_solver_options(self, small_scene, small_channels):
        coeffs = PathCoefficients.random(1)
        cells = [(small_scene, small_channels, JcasConfig(seed=seed, max_outer=2), coeffs) for seed in (1, 2)]
        assert [len(r.trace) for r in jcas_optimize_batch(cells)] == [3, 3]
        with pytest.raises(ValueError, match="share every solver option"):
            jcas_optimize_batch([cells[0], (small_scene, small_channels, JcasConfig(max_outer=3), coeffs)])
        assert jcas_optimize_batch([]) == []


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

    @pytest.mark.parametrize(
        "scheme, reference", [*((scheme, False) for scheme in SCHEMES), ("ris_with_sensing", True)]
    )
    def test_phase_terms_built_once_per_phase(
        self, scheme, reference, small_scene, small_channels, monkeypatch
    ):
        counts = dict.fromkeys(("effective_channel", "si_channel", "fisher_core"), 0)
        proposals, phases = [], []

        def counting(name):
            original = getattr(optimizer, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        def recording_ris(*args, **kwargs):
            phi, values = ris_optimize(*args, **kwargs)
            proposals.append(phi)
            return phi, values

        def recording_precoder(*args, **kwargs):
            # ``jcas_optimize`` runs a batch of one: every stage gets a one-row stack
            (phase,) = args[3]
            phases.append(phase)
            return precoder_update(*args, **kwargs)

        for name in counts:
            monkeypatch.setattr(optimizer, name, counting(name))
        monkeypatch.setattr(optimizer, "ris_optimize", recording_ris)
        monkeypatch.setattr(optimizer, "precoder_update", recording_precoder)
        ris_enabled, sensing = scheme_flags(scheme)
        if reference:
            # the guard never accepts a sensing phase on the small scene; at
            # 0 dB, seed index 2, it accepts one within the first iterations
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=10)
            scene, channels, coeffs, jcas = build_cell(config, 2, 0.0)
        else:
            scene, channels, coeffs = small_scene, small_channels, PathCoefficients.random(7)
            # a finite threshold the cell meets, so the sensing schemes are constrained
            jcas = JcasConfig(
                crb_threshold=0.01, ris_enabled=ris_enabled, sensing_enabled=sensing,
                n_streams=2, seed=7, max_outer=10,
            )
        result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
        # a proposal was accepted iff the next precoder update (or the result) uses it
        following = phases[1 : len(proposals)] + [result.ris_phase]
        accepted = sum(np.array_equal(p, q) for p, q in zip(proposals, following))
        assert len(phases) == len(result.trace) - 1
        assert len(proposals) == (len(phases) if ris_enabled else 0)
        assert accepted > 0 if ris_enabled and (reference or not sensing) else accepted == 0
        # the initial phase, then each proposal; an accepted proposal's
        # channels are reused, not rebuilt
        assert counts["effective_channel"] == 1 + len(proposals)
        assert counts["si_channel"] == (1 + len(proposals) if sensing else 0)
        assert counts["fisher_core"] == (1 + accepted if sensing else 0)

    def test_prebuilt_phase_terms_match_a_fresh_build(self, monkeypatch):
        # every precoder update of the outer loop, called again on its cell
        # without the terms the loop kept, must give the same bits: a
        # record left stale after an accepted phase would not
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return precoder_update(*args, **kwargs)

        def outcome(args, kwargs):
            try:
                v, lam, mu = precoder_update(*args, **kwargs)
            except CrbInfeasibleError as err:
                return "infeasible", err.achieved
            return v.tobytes(), lam, mu

        monkeypatch.setattr(optimizer, "precoder_update", recording)
        outcomes = []
        for scheme in SCHEMES:
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=30)
            for snr_db in (0.0, 30.0):
                # at 0 dB the sensing bound is infeasible at seed index 1, and
                # the guard accepts a sensing phase at seed index 2
                for seed_index in (1, 2):
                    scene, channels, coeffs, jcas = build_cell(config, seed_index, snr_db)
                    try:
                        jcas_optimize(scene, channels, jcas, coeffs)
                    except CrbInfeasibleError:
                        pass
                    for args, kwargs in calls:
                        # ``jcas_optimize`` runs a batch of one: each call
                        # carries a one-row stack, and the fresh call is the
                        # single-cell form of the same update
                        (combiner,), (weight,), (phi,) = args[0], args[1], args[3]
                        fresh = {k: v for k, v in kwargs.items() if k != "phase_terms"}
                        if math.isfinite(fresh["crb_threshold"]):
                            ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
                            fresh.update(
                                path_response_deriv=ctx.path_response_deriv, noise_cov=ctx.noise_cov
                            )
                            # a stale Fisher core changes the outputs only
                            # where it moves the bound across the threshold
                            (kept_fisher,) = kwargs["phase_terms"].fisher
                            assert kept_fisher.tobytes() == fisher_core(
                                ctx.path_response_deriv, ctx.noise_cov
                            ).tobytes(), (scheme, snr_db, seed_index)
                        stack = precoder_update(*args, **kwargs)
                        (v,), (lam,), (mu,) = stack
                        if mu == math.inf:
                            # a stacked infeasible cell returns its
                            # zero-multiplier precoder instead of raising
                            (best,) = optimizer._bound(stack[0], kwargs["phase_terms"].fisher)
                            kept = "infeasible", float(best)
                        else:
                            kept = v.tobytes(), lam, mu
                        single = outcome((combiner, weight, channels, phi, *args[4:]), fresh)
                        assert kept == single, (scheme, snr_db, seed_index)
                        outcomes.append(kept)
                    calls.clear()
        # the cells include infeasible ones, which raise in the single form
        assert any(kept[0] == "infeasible" for kept in outcomes)

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
        # the solver's step size is exact to rounding, with no safety factor,
        # so the MM majorizer must still give a non-increasing objective
        calls = []

        def recording(*args, **kwargs):
            phi, values = ris_optimize(*args, **kwargs)
            calls.append((np.shape(args[1]), values))
            return phi, values

        monkeypatch.setattr(optimizer, "ris_optimize", recording)
        n_ris = ExperimentConfig().ris_rows * ExperimentConfig().ris_cols
        for cell, jcas in self.run_reference_cells(max_outer=30):
            assert calls, cell
            columns = jcas.n_streams * (jcas.n_streams + ExperimentConfig().n_bs_rx)
            for shape, values in calls:
                # the solver gets the factor, not a surface-sized matrix
                assert shape[0] == n_ris and shape[1] <= columns < n_ris, (cell, shape)
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
