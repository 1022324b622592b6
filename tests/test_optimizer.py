import dataclasses
import inspect
import math
import re
import types
import warnings

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
    waterfill_precoder,
    weight_matrix,
)
from fdjcas.steering import PathCoefficients, build_sensing_context

from conftest import acceptance_fixture_cell, random_unit_modulus

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
        leak = si_channel(small_channels, phi)
        v, lam, mu = precoder_update(f, w, h_eff, leak, power_budget=1e9)
        assert lam == 0.0
        assert mu == 0.0
        gram = (f @ h_eff).conj().T @ w @ (f @ h_eff) + leak.conj().T @ leak
        rhs = h_eff.conj().T @ f.conj().T @ w
        assert np.linalg.norm(gram @ v - rhs) < 1e-8

    def test_power_solve_hits_budget(self, small_channels):
        rng = np.random.default_rng(6)
        phi = random_unit_modulus(small_channels.n_ris, rng)
        h_eff = effective_channel(small_channels, phi)
        v0 = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) / 4
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        budget = 1.0
        v, lam, _ = precoder_update(f, w, h_eff, si_channel(small_channels, phi), power_budget=budget)
        power = float(np.sum(np.abs(v) ** 2))
        assert lam > 0.0
        assert abs(power - budget) / budget < 1e-12

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_bad_power_budget_rejected(self, small_channels, budget):
        # every public precoder entry point, as JcasConfig does: a NaN
        # precoder, a zero one or the sqrt of a negative budget otherwise
        phi = np.ones(small_channels.n_ris, dtype=complex)
        h_eff, leak = effective_channel(small_channels, phi), si_channel(small_channels, phi)
        v0 = dominant_precoder(h_eff, 2, 1.0)
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        with pytest.raises(ValueError, match="power_budget"):
            precoder_update(f, w, h_eff, leak, budget)
        with pytest.raises(ValueError, match="power_budget"):
            precoder_update(f[None], w[None], h_eff[None], leak[None], budget)
        with pytest.raises(ValueError, match="power_budget"):
            waterfill_precoder(h_eff[None], np.full((1, 1, 1), small_channels.noise_user), 2, budget)
        with pytest.raises(ValueError, match="power_budget"):
            dominant_precoder(h_eff, 2, budget)

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
            f, w, h_eff, si_channel(small_channels, phi), 1.0,
            crb_threshold=1e6,
            fisher=fisher_core(ctx.path_response_deriv, ctx.noise_cov),
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
                f, w, h_eff, si_channel(small_channels, phi), 1.0,
                crb_threshold=1e-30,
                fisher=fisher_core(ctx.path_response_deriv, ctx.noise_cov),
            )
        assert err.value.achieved > err.value.threshold
        assert "rad^2" in str(err.value)

    @staticmethod
    def sensing_state(scene, seed, snr_db):
        """Combiner, weight, effective channel, SI channel and Fisher core
        of a random precoder-update input on ``scene``, drawn from
        ``seed``."""
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
        return f, w, h_eff, si_channel(channels, phi), fisher_core(ctx.path_response_deriv, ctx.noise_cov)

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
            for f, w, h_eff, leak, fisher in states:
                v, lam, mu = precoder_update(f, w, h_eff, leak, budget)
                assert mu == 0.0
                (bound,) = optimizer._bound(v[None], fisher[None])
                assert 0.0 < bound < math.inf
                zero.append((v, lam, bound))
            for (f, w, h_eff, leak, fisher), (v0, lam0, bound) in zip(states, zero):
                for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                    threshold = bound * factor
                    solves.clear()
                    args = (f, w, h_eff, leak, budget, threshold, fisher)
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
            combiner, weight, h_eff, leak, fisher = (np.stack(column) for column in zip(*states))
            for factor in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
                threshold = bounds[pick % len(states)] * factor
                solves.clear()
                v, lam, mu = precoder_update(combiner, weight, h_eff, leak, budget, threshold, fisher)
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
        assert abs(float(np.sum(np.abs(v) ** 2)) - budget) < 1e-12 * budget

    def test_stack_of_mixed_rows_gives_each_row_its_own_bits(self):
        def scaled(rank, power, seed):
            """A problem whose min-norm solution has the given power."""
            core, rhs = self.problem(rank, seed=seed)
            free = np.linalg.pinv(core, rcond=1e-10, hermitian=True) @ rhs
            return core, rhs * np.sqrt(power / np.sum(np.abs(free) ** 2))

        zero_core, rhs = self.problem(rank=6, seed=1)
        kinds = {
            "zero": (zero_core, np.zeros_like(rhs)),
            "slack full rank": scaled(6, 0.5, seed=2),
            "slack rank 3": scaled(3, 0.5, seed=3),
            "binding full rank": scaled(6, 4.0, seed=4),
            "binding rank 3": scaled(3, 4.0, seed=5),
        }
        order = ["binding rank 3", "zero", "slack full rank", "binding full rank", "slack rank 3"]
        cores, rhss = (np.stack(column) for column in zip(*(kinds[kind] for kind in order)))
        precoders, lams = optimizer._solve_power_constrained(cores, rhss, 1.0)
        for kind, core, rhs, v, lam in zip(order, cores, rhss, precoders, lams):
            (alone,), (lam_alone,) = optimizer._solve_power_constrained(core[None], rhs[None], 1.0)
            assert (lam > 0.0) == kind.startswith("binding"), kind
            assert lam.tobytes() == lam_alone.tobytes(), kind
            assert v.tobytes() == alone.tobytes(), kind

    def test_direction_without_power_on_a_zero_eigenvalue(self):
        # the exact zero eigenvalue carries exactly zero right-hand side, and
        # the other two terms sum to 1.62 at multiplier zero, so the solve
        # starts at zero, where that term is 0/0
        core = np.diag([0.0, 1.0, 1.0]).astype(complex)
        rhs = np.array([[0.0], [0.9], [0.9]], dtype=complex)
        (v,), (lam,) = optimizer._solve_power_constrained(core[None], rhs[None], 1.0)
        assert np.all(np.isfinite(v)) and v[0, 0] == 0.0
        assert lam == pytest.approx(math.sqrt(1.62) - 1.0, rel=1e-14)
        assert abs(float(np.sum(np.abs(v) ** 2)) - 1.0) <= 1e-13

    @staticmethod
    def reference_multiplier(evals, row_power, budget):
        """The power multiplier of one row by plain bisection, run until the
        bracket is two adjacent floats; zero when the power at zero fits."""

        def power(lam):
            with np.errstate(divide="ignore"):
                return float(np.sum(row_power / (evals + lam) ** 2))

        if power(0.0) <= budget:
            return 0.0
        lo, hi = 0.0, 1.0
        while power(hi) > budget:
            lo, hi = hi, 2.0 * hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if power(mid) > budget:
                lo = mid
            else:
                hi = mid
        return hi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        n=st.integers(1, 20),
        log_power=st.floats(-150.0, 8.0),
        log_budget=st.floats(-4.0, 4.0),
    )
    # deep cases for a bisection from (0, 1): a root near 1e-51; two rows
    # whose power at zero (about 1e-140) fits, so the multiplier is zero;
    # and two roots near 1e-70, which 200 halvings do not reach
    @example(seed=0, rows=1, n=1, log_power=-100.0, log_budget=0.0)
    @example(seed=0, rows=2, n=1, log_power=-140.0, log_budget=0.0)
    @example(seed=1, rows=2, n=1, log_power=-140.0, log_budget=0.0)
    # a root the solve meets 5.4e-14 relative from the reference's
    @example(seed=417398775, rows=2, n=17, log_power=0.0, log_budget=0.0)
    def test_newton_matches_reference_bisection(self, seed, rows, n, log_power, log_budget):
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.exponential(1.0, (rows, n)), axis=1)
        evals[:, : rng.integers(0, n + 1)] = 0.0  # rank-deficient cores
        row_power = 10.0**log_power * rng.exponential(1.0, (rows, n))
        budget = 10.0**log_budget
        lams = optimizer._power_multiplier(evals, row_power, budget)
        for e, r, lam in zip(evals, row_power, lams.tolist()):
            expected = self.reference_multiplier(e, r, budget)
            if expected == 0.0:
                assert lam == 0.0
                continue
            # a power miss of 1e-13 moves the multiplier by 1e-13 P / |P'|,
            # with P' = -2 sum r / (e + lam)**3; twice that leaves room for rounding
            assert abs(lam - expected) <= 1e-13 * budget / float(np.sum(r / (e + expected) ** 3))
            assert abs(float(np.sum(r / (e + lam) ** 2)) - budget) <= 1e-13 * budget
        if n == 1 and not evals.any():
            # one term on a zero eigenvalue: the root is sqrt(row power / budget)
            assert lams.tolist() == pytest.approx(np.sqrt(row_power[:, 0] / budget).tolist(), rel=1e-15)

    @staticmethod
    def one_probe_at_a_time(evals, row_power, budget):
        """The Newton multiplier of one row, probing the power with the plain
        expression one value at a time: the reference the stacked solve must
        match bit for bit."""
        lam = max(0.0, float(np.max(np.sqrt(row_power / budget) - evals)))
        while True:
            shifted = evals + lam
            terms = row_power / shifted**2
            power = float(np.sum(terms))
            moved = lam + power * (math.sqrt(power / budget) - 1.0) / float(np.sum(terms / shifted))
            if abs(power - budget) <= optimizer.POWER_TOL * budget or not moved > lam:
                return lam
            lam = moved

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        log_lam=st.floats(-12.0, 12.0),
        log_scale=st.floats(-8.0, 8.0),
    )
    def test_buffered_probe_matches_expression_bit_for_bit(self, seed, n, log_lam, log_scale):
        # long rows (pairwise summation in blocks) over wide scales, with the
        # budget set to the plain expression's power at a known multiplier
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.exponential(10.0**log_scale, n))
        evals[: rng.integers(0, n + 1)] = 0.0  # a rank-deficient core
        row_power = rng.exponential(1.0, n)
        target = 10.0**log_lam
        budget = float(np.sum(row_power / (evals + target) ** 2))
        (lam,) = optimizer._power_multiplier(evals[None], row_power[None], budget).tolist()
        assert lam.hex() == self.one_probe_at_a_time(evals, row_power, budget).hex()
        assert abs(float(np.sum(row_power / (evals + lam) ** 2)) - budget) <= 1e-13 * budget

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        n=st.integers(1, 20),
        log_power=st.floats(-150.0, 8.0),
        log_budget=st.floats(-4.0, 4.0),
    )
    @example(seed=0, rows=1, n=1, log_power=-100.0, log_budget=0.0)
    @example(seed=1, rows=2, n=1, log_power=-140.0, log_budget=0.0)
    def test_tree_walk_matches_one_probe_at_a_time(self, seed, rows, n, log_power, log_budget):
        # the masked walk over a stack moves each row as the row moves alone
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.exponential(1.0, (rows, n)), axis=1)
        evals[:, : rng.integers(0, n + 1)] = 0.0  # rank-deficient cores
        row_power = 10.0**log_power * rng.exponential(1.0, (rows, n))
        budget = 10.0**log_budget
        expected = [self.one_probe_at_a_time(e, r, budget) for e, r in zip(evals, row_power)]
        assert optimizer._power_multiplier(evals, row_power, budget).tolist() == expected


class TestWaterfillPrecoder:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_user=st.integers(1, 6),
        n_tx=st.integers(1, 8),
        streams=st.integers(1, 8),
        log_noise=st.floats(-3.0, 2.0),
        log_budget=st.floats(-1.0, 1.0),
    )
    def test_exact_rate_under_the_budget(self, seed, n_user, n_tx, streams, log_noise, log_budget):
        rng = np.random.default_rng(seed)
        streams = min(streams, n_tx)
        noise, budget = 10.0**log_noise, 10.0**log_budget
        # no SI links, so the WMMSE update solves the same rate problem
        channels = random_channelset(rng, n_user=n_user, n_tx=n_tx, n_ris=5)
        channels = dataclasses.replace(
            channels, ris_to_bs=np.zeros_like(channels.ris_to_bs), si_los=np.zeros_like(channels.si_los)
        )
        phi = random_unit_modulus(5, rng)
        h = effective_channel(channels, phi)
        (v,), (lam,) = waterfill_precoder(h[None], np.full((1, 1, 1), noise), streams, budget)
        assert v.shape == (n_tx, streams)
        assert abs(np.sum(np.abs(v) ** 2) - budget) <= 1e-12 * budget
        gram = v.conj().T @ v
        assert np.all(np.abs(gram - np.diag(np.diag(gram))) <= 1e-12 * budget)
        # the rate of each mode, strongest first, at the power of its column
        gains = np.linalg.svd(h, compute_uv=False)[:streams] ** 2 / noise
        powers = np.sum(np.abs(v[:, : len(gains)]) ** 2, axis=0)
        rate = dl_rate(h, v, noise)
        assert rate == pytest.approx(float(np.sum(np.log2(1.0 + gains * powers))), rel=1e-12, abs=1e-12)
        assert lam > 0.0
        start = dominant_precoder(h, streams, budget)
        combiner = mmse_combiner(h, start, noise)
        weight = weight_matrix(mse_matrix(h, start, noise))
        wmmse, _, _ = precoder_update(combiner, weight, h, si_channel(channels, phi), budget)
        assert rate >= dl_rate(h, wmmse, noise) - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_channel_switches_the_second_stream_off(self, seed):
        rng = np.random.default_rng(seed)
        h = np.outer(complex_normal(rng, 4), complex_normal(rng, 6))
        (v,), _ = waterfill_precoder(h[None], np.full((1, 1, 1), 0.01), 2, 1.0)
        assert np.all(v[:, 1] == 0.0)
        assert np.sum(np.abs(v[:, 0]) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_stack_rows_get_their_bits_alone(self):
        rng = np.random.default_rng(3)
        h = complex_normal(rng, (4, 3, 6))
        noise = np.array([0.01, 1.0, 10.0, 100.0])[:, None, None]
        stacked, lams = waterfill_precoder(h, noise, 2, 1.0)
        for row in range(len(h)):
            (v,), (lam,) = waterfill_precoder(h[row : row + 1], noise[row : row + 1], 2, 1.0)
            assert v.tobytes() == stacked[row].tobytes() and lam == lams[row]

    def test_zero_channel_gives_zero_precoder(self):
        (v,), (lam,) = waterfill_precoder(np.zeros((1, 3, 4), dtype=complex), np.ones((1, 1, 1)), 2, 1.0)
        assert not v.any() and lam == 0.0


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

    @pytest.mark.parametrize("objective", ["jcas", "rate"])
    def test_shared_channels_serve_a_stack(self, objective):
        # 2-D channels with a stack of precoders, combiners and weights give
        # the bits of the same channels stacked per row, and of each row's
        # 2-D call: the lockstep loop holds one link set for the batch
        rng = np.random.default_rng(12)
        channels = random_channelset(rng)
        rows = 5
        precoder = complex_normal(rng, (rows, channels.n_bs_tx, 2)) / 4
        combiner = complex_normal(rng, (rows, 2, channels.n_user))
        root = complex_normal(rng, (rows, 2, 2))
        weight = root @ root.conj().swapaxes(-1, -2)
        stacked = types.SimpleNamespace(
            **{name: np.stack([getattr(channels, name)] * rows) for name in optimizer._LINK_NAMES}
        )
        shared = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
        per_row = ris_quadratics(precoder, combiner, weight, stacked, objective=objective)
        for got, expected in zip(shared, per_row):
            assert got.tobytes() == expected.tobytes()
        for row in range(rows):
            alone = ris_quadratics(precoder[row], combiner[row], weight[row], channels, objective=objective)
            for got, expected in zip(shared, alone):
                assert got[row].tobytes() == expected.tobytes()

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
            (np.ones((2, 3, 4, 1), dtype=complex), np.ones((2, 3, 4), dtype=complex), np.zeros((2, 3, 4))),
            (np.ones((2, 4, 1), dtype=complex), np.ones((3, 4), dtype=complex), np.zeros((2, 4))),
            (np.ones(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.ones((3, 0), dtype=complex), np.ones(3, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(4, dtype=complex), np.zeros(3)),
            (np.eye(3, dtype=complex), np.ones(3, dtype=complex), np.zeros(4)),
        ],
        ids=[
            "three-dimensional", "four-dimensional", "stack-rows", "one-dimensional", "no-columns",
            "phi0-length", "linear-length",
        ],
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

    @pytest.mark.parametrize("max_iter", [-1, -3, 2.5, 3.0, True, False])
    def test_rejects_negative_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            ris_optimize(np.ones(4, dtype=complex), np.eye(4, dtype=complex), np.ones(4), max_iter=max_iter)

    def test_numpy_integer_max_iter(self):
        rng = np.random.default_rng(25)
        factor, lin = random_quadratic(rng, n=6)
        phi0 = random_unit_modulus(6, rng)
        phi, values = ris_optimize(phi0, factor, lin, max_iter=np.int64(3))
        expect_phi, expect_values = ris_optimize(phi0, factor, lin, max_iter=3)
        assert phi.tobytes() == expect_phi.tobytes() and values.tobytes() == expect_values.tobytes()

    def test_subnormal_step_size_falls_back_quietly(self):
        # lam is subnormal, so 1/lam overflows and the scaled buffer is not
        # finite: the step takes the unscaled branch without a warning.  The
        # factor's zero imaginary parts make 0 * inf there.
        rng = np.random.default_rng(24)
        _, lin = random_quadratic(rng, n=12)
        factor = (1e-156 / np.sqrt(12)) * rng.standard_normal((12, 12)) + 0j
        lam = top_eigenvalue(factor)
        assert 0.0 < lam < np.finfo(float).tiny and math.isinf(1.0 / lam)
        phi0 = random_unit_modulus(12, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = mm_step(phi0, factor, lin)
        q = lam * phi0 - factor @ (factor.conj().T @ phi0) - np.conj(lin)
        assert np.allclose(phi, q / np.abs(q), rtol=0.0, atol=1e-15)


def stalled(value, previous, tol):
    """The stopping rule of :func:`ris_optimize`, written out again."""
    delta = abs(value - previous)
    scale = abs(value)
    return (delta <= tol * scale) if scale > 0.0 else (delta <= tol)


def iterate_mm_steps(phi0, factor, lin, tol, max_iter):
    """Plain MM: fresh single steps (:func:`mm_step`) and values
    (:func:`ris_objective_value`), iterated by hand under the stopping rule
    of :func:`ris_optimize`."""
    phi = np.asarray(phi0, dtype=complex)
    values = [ris_objective_value(phi, factor, lin)]
    for _ in range(max_iter):
        phi = mm_step(phi, factor, lin)
        values.append(ris_objective_value(phi, factor, lin))
        if stalled(values[-1], values[-2], tol):
            break
    return phi, np.asarray(values)


def squarem_reference(phi0, step, value, tol, max_iter):
    """SQUAREM written out by hand around the map ``step`` and the
    objective ``value``: cycles of two maps ``p0 -> p1 -> p2``, the S3 step
    length ``alpha = -|r|/|v|`` clamped to at most -1, the point
    ``p0 - 2 alpha r + alpha**2 v`` projected by ``x/|x|``, halving
    ``alpha`` toward -1 while the point's value exceeds p2's and taking p2
    within ``SQUAREM_ALPHA_SLACK`` of -1, and the stopping rule after every
    map against the value the map started from.  The extrapolation runs
    the solver's floating-point operations in the solver's order, so a
    solver whose every map equals ``step`` bit for bit matches it bit for
    bit.  Returns (phase, values: the start and one per map, map outputs)."""
    p0 = np.asarray(phi0, dtype=complex)
    start = value(p0)
    values, outputs = [start], []

    def advance(p, previous):
        out = step(p)
        outputs.append(out)
        values.append(value(out))
        return out, stalled(values[-1], previous, tol) or len(outputs) == max_iter

    while len(outputs) < max_iter:
        p1, done = advance(p0, start)
        if done:
            return p1, np.asarray(values), outputs
        p2, done = advance(p1, values[-1])
        if done:
            return p2, np.asarray(values), outputs
        r = p1 - p0
        v = (p2 - p1) - r
        vv = float(v.view(float).dot(v.view(float)))
        ratio = float(r.view(float).dot(r.view(float))) / vv if vv > 0.0 else 1.0
        alpha = -math.sqrt(ratio) if 1.0 < ratio < math.inf else -1.0
        base, p0, start = p0, p2, values[-1]
        while alpha < -1.0 - optimizer.SQUAREM_ALPHA_SLACK:
            ext = r * (-2.0 * alpha) + base + v * (alpha * alpha)
            ext = ext / np.abs(ext)
            moved = value(ext)
            if moved <= values[-1]:
                p0, start = ext, moved
                break
            alpha = 0.5 * (alpha - 1.0)
    return p0, np.asarray(values), outputs


def assert_matches_squarem_of_mm_steps(phi0, factor, lin, tol, max_iter):
    """ris_optimize, which carries its state from map to map, equals
    SQUAREM around fresh single steps (:func:`mm_step`) and values
    (:func:`ris_objective_value`) bit for bit, its values never rise, and
    it leaves phi0 untouched; returns the number of maps taken."""
    before = phi0.copy()
    phi, values = ris_optimize(phi0, factor, lin, tol=tol, max_iter=max_iter)
    expect_phi, expect_values, _ = squarem_reference(
        phi0,
        lambda p: mm_step(p, factor, lin),
        lambda p: ris_objective_value(p, factor, lin),
        tol,
        max_iter,
    )
    assert np.array_equal(phi, expect_phi)
    assert np.array_equal(values, expect_values)
    assert np.all(np.diff(values) <= 1e-12 * np.abs(values[:-1]))
    assert np.array_equal(phi0, before)
    return len(values) - 1


class TestRisOptimizeMatchesMmStep:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_tol_stopped_run(self, seed, n):
        rng = np.random.default_rng(seed)
        factor, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        maps = assert_matches_squarem_of_mm_steps(phi0, factor, lin, tol=1e-6, max_iter=10000)
        assert maps < 10000

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), max_iter=st.integers(0, 30))
    def test_run_capped_at_max_iter(self, seed, n, max_iter):
        rng = np.random.default_rng(seed)
        factor, lin = random_quadratic(rng, n=n)
        phi0 = random_unit_modulus(n, rng)
        maps = assert_matches_squarem_of_mm_steps(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
        assert maps == max_iter

    def test_run_stopped_within_two_maps_is_plain_mm(self):
        # the first two maps of a run are plain MM steps, so a run that
        # plain MM stops within two steps, by the cap or by the tolerance,
        # gets plain MM's bits
        rng = np.random.default_rng(25)
        short = 0
        for tol, max_iter in [(1e-6, 1), (1e-6, 2), (1.0, 500)] * 40:
            n = int(rng.integers(1, 30))
            factor, lin = random_quadratic(rng, n=n)
            phi0 = random_unit_modulus(n, rng)
            expect_phi, expect_values = iterate_mm_steps(phi0, factor, lin, tol, max_iter)
            if len(expect_values) > 3:
                continue
            short += 1
            phi, values = ris_optimize(phi0, factor, lin, tol=tol, max_iter=max_iter)
            assert phi.tobytes() == expect_phi.tobytes()
            assert values.tobytes() == expect_values.tobytes()
        assert short >= 100, short

    @pytest.mark.parametrize("snr_db, seed_index", [(30.0, 1), (20.0, 1), (10.0, 2)])
    def test_short_rate_calls_are_plain_mm(self, snr_db, seed_index):
        # ``"rate"`` calls of the outer loop mostly stop within two steps
        phi0, (factor, lin, _) = reference_phase_problem("rate", snr_db, seed_index)
        expect_phi, expect_values = iterate_mm_steps(phi0, factor, lin, optimizer.RIS_TOL, 500)
        assert len(expect_values) <= 3
        phi, values = ris_optimize(phi0, factor, lin)
        assert phi.tobytes() == expect_phi.tobytes()
        assert values.tobytes() == expect_values.tobytes()

    def test_zero_quad_and_linear_keep_every_phase(self):
        n = 6
        phi0 = random_unit_modulus(n, np.random.default_rng(20))
        factor = np.zeros((n, n), dtype=complex)
        lin = np.zeros(n, dtype=complex)
        assert assert_matches_squarem_of_mm_steps(phi0, factor, lin, tol=1e-5, max_iter=50) == 1
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
        assert_matches_squarem_of_mm_steps(phi0, factor, lin, tol=1e-300, max_iter=10)
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


def factored_reference_value(phi, factor, lin):
    """The objective on the solver's first product: ``[F^H; 2 d^T] p``
    gives ``[y; s]``, and the value is the dot of the real views of
    ``[y; 1]`` and ``[y; s]``, ``|y|^2 + Re(s)``."""
    lead = np.ascontiguousarray(np.vstack((factor.conj().T, 2.0 * lin)))
    head = lead.dot(phi)
    return float(np.append(head[:-1], 1.0).view(float).dot(head.view(float)))


class TestRisOptimizeMatchesSeparateProducts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        rank=st.integers(1, 24),
        max_iter=st.integers(0, 30),
    )
    def test_capped_run(self, seed, n, rank, max_iter):
        """Every map equals the factored reference step's bit for bit:
        the phase and the values equal SQUAREM around that step and the
        factored value, which run the same products on arrays of the same
        shapes.  The values agree with ``vdot(p, M p) + 2 Re(d^T p)`` on
        the dense ``M = F F^H`` to a tolerance, since they are summed in
        another order, and they never rise."""
        # low-rank M like the ris_quadratics forms, plus a linear term
        rng = np.random.default_rng(seed)
        factor = complex_normal(rng, (n, rank))
        quad = factor @ factor.conj().T
        lin = complex_normal(rng, n)
        phi0 = random_unit_modulus(n, rng)
        lam_max = top_eigenvalue(factor)
        phi, values = ris_optimize(phi0, factor, lin, tol=1e-300, max_iter=max_iter)
        expect_phi, expect_values, outputs = squarem_reference(
            phi0,
            lambda p: factored_reference_step(p, factor, lin, lam_max),
            lambda p: factored_reference_value(p, factor, lin),
            1e-300,
            max_iter,
        )
        assert np.array_equal(phi, expect_phi)
        assert np.array_equal(values, expect_values)
        # relative to the two terms the value adds up, which may cancel
        points = [phi0, *outputs]
        quad_terms = np.array([np.vdot(p, quad @ p).real for p in points])
        lin_terms = np.array([2.0 * (lin @ p).real for p in points])
        error = np.abs(values - (quad_terms + lin_terms))
        assert np.all(error <= 1e-12 * (np.abs(quad_terms) + np.abs(lin_terms)))
        assert np.all(np.diff(values) <= 1e-12 * (np.abs(quad_terms[:-1]) + np.abs(lin_terms[:-1])))
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
    _, channels, jcas, _ = build_cell(ExperimentConfig(scheme=scheme, seeds=2), seed_index, snr_db)
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
        """At the default cap the solver takes as many maps as SQUAREM
        around the dense MM step, and its phase agrees to 1e-9: the
        extrapolation magnifies the rounding gap between the dense and the
        factored products (up to 3.9e-10 on these cells, 1e-15 on runs of
        a few maps).  With plain MM's budget of 500 maps the final value is
        at most the dense plain MM solver's at 500 steps."""
        phi0, (factor, lin, lam_max) = reference_phase_problem(objective, snr_db, seed_index)
        quad = factor @ factor.conj().T

        def dense_step(p):
            q = lam_max * p - quad @ p - np.conj(lin)
            return q / np.abs(q)

        phi, values = ris_optimize(phi0, factor, lin)
        expect_phi, expect_values, _ = squarem_reference(
            phi0,
            dense_step,
            lambda p: np.vdot(p, quad @ p).real + 2.0 * (lin @ p).real,
            optimizer.RIS_TOL,
            optimizer.MAX_RIS_ITER,
        )
        assert len(values) == len(expect_values)
        assert np.max(np.abs(phi - expect_phi)) <= 1e-9
        _, values = ris_optimize(phi0, factor, lin, max_iter=500)
        _, plain = dense_reference_solve(phi0, factor, lin, lam_max, optimizer.RIS_TOL, 500)
        # the one exception: after its first extrapolation this run stops
        # at 3 maps, at -8.1180160, where plain MM goes on to 7 steps and
        # -8.1180174, within the stopping rule's relative tolerance
        slack = optimizer.RIS_TOL if (objective, snr_db, seed_index) == ("rate", 0.0, 0) else 0.0
        assert values[-1] <= plain[-1] + slack * abs(plain[-1])

    @pytest.mark.parametrize("objective", ["jcas", "rate"])
    def test_zero_precoder_and_weight_keep_every_phase(self, objective):
        phi0, (factor, lin, lam_max) = reference_phase_problem(objective, 10.0, 0, zero_state=True)
        assert lam_max == 0.0
        phi, values = ris_optimize(phi0, factor, lin)
        assert np.array_equal(phi, phi0)
        assert np.array_equal(values, [0.0, 0.0])


def stacked_row(rng, kind, objective, n_ris=12):
    """One phase problem ``(phi0, F, d)`` of the ``objective`` form on an
    ``n_ris``-element surface.  ``"scaled"`` is :func:`ris_quadratics` at a
    random state; ``"zero"`` sets ``F = 0`` (lam = 0); ``"subnormal"``
    scales ``F`` so that lam is subnormal; ``"huge"`` scales ``F`` so that
    lam is about 1e-300 and ``d`` by 1e10, so ``d / lam`` overflows (the
    unscaled branch at a positive lam); ``"tie"`` sets ``F = 0`` and
    ``d[0] = 0``, so element 0 meets a zero direction at every step (the
    tie break)."""
    channels = random_channelset(rng, n_ris=n_ris)
    h_eff, precoder, noise = random_state(rng)
    combiner = mmse_combiner(h_eff, precoder, noise)
    weight = weight_matrix(mse_matrix(h_eff, precoder, noise))
    factor, lin = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
    if kind == "subnormal":
        factor = factor * (1e-156 / np.linalg.norm(factor))
    elif kind == "huge":
        factor, lin = factor * (1e-150 / np.linalg.norm(factor)), lin * 1e10
    elif kind in ("zero", "tie"):
        factor = np.zeros_like(factor)
    if kind == "tie":
        lin[0] = 0.0
    return random_unit_modulus(channels.n_ris, rng), factor, lin


def stacked_problem(seed, kinds, objective, n_ris=12):
    """``(phi0, F, d)`` stacked over one :func:`stacked_row` per kind."""
    rng = np.random.default_rng(seed)
    rows = (stacked_row(rng, kind, objective, n_ris) for kind in kinds)
    return tuple(np.stack(column) for column in zip(*rows))


# (seed, kinds, objective) of stacks that mix scaled rows with the unscaled branches
MIXED_STACKS = (
    (5, ["scaled", "zero", "scaled", "subnormal", "tie"], "rate"),
    (6, ["scaled", "tie", "scaled", "scaled", "zero"], "jcas"),
)


class TestRisOptimizeStack:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["scaled", "zero", "subnormal", "tie"]), min_size=1, max_size=5),
        objective=st.sampled_from(["jcas", "rate"]),
        max_iter=st.sampled_from([0, 1, 2, 3, optimizer.MAX_RIS_ITER]),
    )
    def test_stack_equals_rows_alone(self, seed, kinds, objective, max_iter):
        """A stacked call gives each row the bits of its 2-D call, whichever
        step each row stops at and whichever branch its step size takes."""
        phi0, factor, lin = stacked_problem(seed, kinds, objective)
        assert_rows_get_their_bits_alone(phi0, factor, lin, max_iter, kinds)


def assert_rows_get_their_bits_alone(phi0, factor, lin, max_iter, labels):
    """A stacked :func:`ris_optimize` call gives each row the bits of its
    2-D call and leaves ``phi0`` as it was; ``labels`` name the rows."""
    before = phi0.copy()
    phases, runs = ris_optimize(phi0, factor, lin, max_iter=max_iter)
    assert phases.shape == phi0.shape and len(runs) == len(phi0)
    assert not np.shares_memory(phases, phi0)
    assert np.array_equal(phi0, before)
    for row, (p, f, d) in enumerate(zip(phi0, factor, lin)):
        alone, values = ris_optimize(p, f, d, max_iter=max_iter)
        assert phases[row].tobytes() == alone.tobytes(), (row, labels[row])
        assert runs[row].tobytes() == values.tobytes(), (row, labels[row])


# (seed, kinds, objective, n_ris) of stacks whose rows stop at different
# maps.  On a one-element surface every row stops within two maps.
STEPPED_STACKS = (
    (4, ["scaled"] * 10 + ["zero"] * 3 + ["tie", "subnormal", "scaled"], "rate", 12),
    (4, ["scaled"] * 7, "rate", 12),
    (1, ["scaled", "huge", "zero", "scaled", "tie", "subnormal", "scaled", "scaled"], "jcas", 12),
    (2, ["scaled", "huge", "scaled", "tie", "scaled", "scaled", "scaled"], "rate", 2),
    (3, ["scaled", "tie", "scaled", "zero", "huge", "scaled"], "rate", 1),
    (6, ["scaled", "huge", "scaled", "zero"], "rate", 12),
)


class TestRisOptimizeSteppedStack:
    """Stacked calls against 2-D calls, which step their row as a one-row
    stack."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["scaled", "zero", "subnormal", "huge", "tie"]), min_size=1, max_size=16),
        objective=st.sampled_from(["jcas", "rate"]),
        max_iter=st.sampled_from([0, 1, 2, 3, optimizer.MAX_RIS_ITER]),
        n_ris=st.sampled_from([1, 2, 12]),
    )
    @example(seed=5, kinds=MIXED_STACKS[0][1], objective=MIXED_STACKS[0][2], max_iter=optimizer.MAX_RIS_ITER, n_ris=12)
    @example(seed=6, kinds=MIXED_STACKS[1][1], objective=MIXED_STACKS[1][2], max_iter=optimizer.MAX_RIS_ITER, n_ris=12)
    def test_stepped_stack_equals_rows_alone(self, seed, kinds, objective, max_iter, n_ris):
        """Whichever map each row stops at and whichever branch its step
        size takes, on surfaces of one element (whose lead product runs
        row by row), two and twelve."""
        phi0, factor, lin = stacked_problem(seed, kinds, objective, n_ris)
        assert_rows_get_their_bits_alone(phi0, factor, lin, max_iter, kinds)

    @pytest.mark.parametrize("seed, kinds, objective", MIXED_STACKS)
    def test_mixed_stacks_stop_at_different_steps(self, seed, kinds, objective):
        # the explicit examples above hold rows that stop on their own
        _, runs = ris_optimize(*stacked_problem(seed, kinds, objective))
        assert len({len(values) for values in runs}) >= 2, [len(values) for values in runs]

    @pytest.mark.parametrize("seed, kinds, objective, n_ris", STEPPED_STACKS)
    def test_one_mm_pass_per_call(self, monkeypatch, seed, kinds, objective, n_ris):
        # every row, stopped or running, stays in the one stack, which is
        # stepped once, to the last row's stop
        phi0, factor, lin = stacked_problem(seed, kinds, objective, n_ris)
        calls = []
        steps = optimizer._mm_steps

        def recording(phi0, *args):
            calls.append(len(phi0))
            return steps(phi0, *args)

        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_mm_steps", recording)
            _, runs = ris_optimize(phi0, factor, lin)
        assert calls == [len(kinds)]
        assert len({len(values) for values in runs}) >= 2, [len(values) for values in runs]
        assert_rows_get_their_bits_alone(phi0, factor, lin, optimizer.MAX_RIS_ITER, kinds)

    @pytest.mark.parametrize(
        "scheme, cells",
        [
            # a capped cell, whose windows reach MAX_WINDOW_ROWS iterations
            ("ris_with_sensing", [(0, 20.0)]),
            # six communication-only cells, one iteration each per call
            ("ris_comm_only", [(seed_index, 10.0) for seed_index in range(6)]),
        ],
    )
    def test_cell_stacks_equal_rows_alone(self, monkeypatch, scheme, cells):
        stacks = []
        solver = optimizer.ris_optimize

        def recording(phi0, factor, linear, *args):
            stacks.append((phi0.copy(), factor.copy(), linear.copy()))
            return solver(phi0, factor, linear, *args)

        monkeypatch.setattr(optimizer, "ris_optimize", recording)
        config = ExperimentConfig(scheme=scheme, seeds=6)
        jcas_optimize_batch([build_cell(config, *cell) for cell in cells])
        assert stacks
        for phi0, factor, lin in stacks:
            assert_rows_get_their_bits_alone(phi0, factor, lin, optimizer.MAX_RIS_ITER, range(len(phi0)))


class SpyingNumpy:
    """numpy as :mod:`fdjcas.optimizer` sees it, with two of the ufuncs
    that :func:`optimizer._mm_steps` binds at its start watched.

    An in-place ``divide`` projects the extrapolated points of one SQUAREM
    backtrack round; past ``limit`` rounds it raises, so a backtrack that
    never ends fails instead of hanging.  A ``copyto`` with a ``(rows, 1)``
    mask copies the kept extrapolated points of the rows it selects, and
    ``kept`` collects those masks of every stack of ``rows`` rows."""

    def __init__(self, rows=None, limit=100):
        self.rows, self.limit, self.rounds, self.kept = rows, limit, 0, []

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        if len(args) == 3 and args[2] is args[0]:
            self.rounds += 1
            assert self.rounds <= self.limit, "the backtrack does not end"
        return np.divide(*args, **kwargs)

    def copyto(self, dst, src, **kwargs):
        where = kwargs.get("where")
        if where is not None and np.shape(where) == (self.rows, 1):
            self.kept.append(np.array(where[:, 0]))
        return np.copyto(dst, src, **kwargs)


class TestMmStepsBranches:
    """Problems that reach the branches of :func:`optimizer._mm_steps` that
    the solver's other problems leave out."""

    def test_zero_value_falls_back_to_an_absolute_stop(self):
        # F = 2^-10 [1, -1]^T and d = 0: from [1, i] the first map gives two
        # equal elements, so F^H p and the value are exactly zero, and the
        # change of 2^-19 from the start passes the absolute test at tol
        factor = np.array([[1.0], [-1.0]], dtype=complex) * 2.0**-10
        phi0 = np.array([1.0, 1.0j])
        phi, values = ris_optimize(phi0, factor, np.zeros(2, dtype=complex))
        assert values.tolist() == [2.0**-19, 0.0]
        assert phi[0] == phi[1]
        # a relative test alone takes a second map
        assert not abs(values[1] - values[0]) <= optimizer.RIS_TOL * abs(values[1])

    def test_infinite_step_length_takes_p2(self, monkeypatch):
        # a map that turns each element by 2^-30 rad keeps (1, k 2^-30) on the
        # unit circle, so the first difference is nonzero and the second
        # exactly zero: alpha = -inf, and the cycle takes p2 with no backtrack
        n, step = 2, 2.0**-30
        lead = np.zeros((1, n + 1, n), dtype=complex)
        lead[0, :n] = np.eye(n)
        lead[0, n] = 1j  # s = 2 d^T p with d = i/2: the value is |p|^2 - Im(sum p)
        back = np.zeros((1, n, n + 1), dtype=complex)
        back[0, :, :n] = -1j * step * np.eye(n)  # z = -i step p, so q = p - z = (1 + i step) p
        numpy = SpyingNumpy()
        monkeypatch.setattr(optimizer, "np", numpy)
        # the solver runs under the caller's errstate, as ris_optimize sets it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phases, (values,) = optimizer._mm_steps(
                np.ones((1, n), dtype=complex), lead, back, np.ones(1), np.zeros(1, dtype=bool), 1e-12, 3
            )
        assert numpy.rounds == 0
        assert phases[0].tolist() == [complex(1.0, 3 * step)] * n
        assert values.tolist() == [n - k * n * step for k in range(4)]

    def test_a_stopped_row_is_not_extrapolated(self, monkeypatch):
        # at tol 0.5, row 1 stops at its second map and row 0 runs on; run
        # on alone, row 1 keeps its first extrapolated point (its third map
        # starts there, not at p2), so a backtrack that let a stopped row
        # try would keep it
        rows = [stacked_row(np.random.default_rng(seed), "scaled", "rate") for seed in (1, 2)]
        phi0, factor, lin = (np.stack(column) for column in zip(*rows))
        p0, f, d = rows[1]
        _, _, maps = squarem_reference(
            p0, lambda p: mm_step(p, f, d), lambda p: ris_objective_value(p, f, d), 1e-300, 3
        )
        assert not np.array_equal(maps[2], mm_step(maps[1], f, d))
        numpy = SpyingNumpy(rows=2)
        monkeypatch.setattr(optimizer, "np", numpy)
        _, runs = ris_optimize(phi0, factor, lin, tol=0.5)
        monkeypatch.undo()
        assert len(runs[1]) == 3 and len(runs[0]) > 3
        assert not any(mask[1] for mask in numpy.kept)
        assert_rows_get_their_bits_alone(phi0, factor, lin, optimizer.MAX_RIS_ITER, ["running", "stopped"])


class TestJcasConfig:
    @pytest.mark.parametrize(
        "value, name",
        [(bad, "power_budget") for bad in (math.nan, math.inf, 0.0, -1.0)]
        + [(bad, "crb_threshold") for bad in (math.nan, 0.0, -1.0)]
        + [(bad, "outer_tol") for bad in (math.nan, math.inf, 0.0, -1.0)]
        + [(bad, "max_outer") for bad in (-3, 2.5, math.nan, True)]
        + [(bad, "n_streams") for bad in (0, -1, 1.5, math.nan, True)]
        + [(bad, "seed") for bad in (-1, 1.5, True, math.nan)],
    )
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            JcasConfig(**{name: value})

    def test_numpy_integer_loop_sizes(self):
        config = JcasConfig(max_outer=np.int64(0), n_streams=np.int32(1))
        assert (config.max_outer, config.n_streams) == (0, 1)


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
        assert np.sum(np.abs(result.precoder) ** 2) <= config.power_budget * (1 + 1e-12)
        if sensing_enabled:
            assert result.trace.crb[-1] <= threshold * (1 + 1e-9)
        merit = np.array(result.trace.objective)
        assert np.all(np.diff(merit) <= 1e-13 * np.abs(merit[:-1]))

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

    @pytest.mark.parametrize("n_streams", [True, False, 2.0, np.float64(2.0), 2.5, math.nan, "2", None, 0, -1])
    def test_precoders_reject_a_stream_count_that_is_not_a_positive_integer(self, n_streams):
        # a bool would slice one column (True) and a float raise a TypeError
        h = np.ones((3, 6), dtype=complex)
        message = f"^n_streams must be a positive integer, got {re.escape(repr(n_streams))}$"
        with pytest.raises(ValueError, match=message):
            dominant_precoder(h, n_streams, 1.0)
        with pytest.raises(ValueError, match=message):
            waterfill_precoder(h[None], np.ones((1, 1, 1)), n_streams, 1.0)

    def test_precoders_take_a_numpy_integer_stream_count(self):
        h = np.random.default_rng(5).standard_normal((3, 6)) + 0j
        assert np.array_equal(dominant_precoder(h, np.int64(2), 1.0), dominant_precoder(h, 2, 1.0))
        (v,), _ = waterfill_precoder(h[None], np.ones((1, 1, 1)), np.int64(2), 1.0)
        assert np.array_equal(v, waterfill_precoder(h[None], np.ones((1, 1, 1)), 2, 1.0)[0][0])


TRACE_COLUMNS = ("iteration", "objective", "rate_bps_hz", "si_power", "crb", "lambda0")


def assert_batch_matches_cells_alone(scheme, cells, max_outer):
    """``jcas_optimize_batch`` of reference-dimension ``(seed_index,
    snr_db)`` cells against ``jcas_optimize`` of each cell alone, bit for
    bit; returns each cell's end: converged, capped or infeasible."""
    config = ExperimentConfig(scheme=scheme, seeds=6, max_outer=max_outer)
    built = [build_cell(config, seed_index, snr_db) for seed_index, snr_db in cells]
    batch = jcas_optimize_batch(built)
    ends = []
    for cell, (scene, channels, jcas, coeffs), result in zip(cells, built, batch):
        try:
            alone = jcas_optimize(scene, channels, jcas, coeffs)
        except CrbInfeasibleError as err:
            assert isinstance(result, CrbInfeasibleError) and str(result) == str(err), cell
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
    # communication-only cells whose outer cycles end at different
    # iterations, and which stop at different iterations
    @example(scheme="ris_comm_only", cells=[(0, 0.0), (1, 30.0), (5, 5.0), (3, 20.0), (1, 10.0)], max_outer=12)
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
        scene, channels, jcas, coeffs = build_cell(config, 1, 0.0)
        with pytest.raises(CrbInfeasibleError, match=r"^outer iteration 1: CRB constraint infeasible") as err:
            jcas_optimize(scene, channels, jcas, coeffs)
        assert err.value.achieved > err.value.threshold == config.crb_threshold

    def test_one_solver_call_per_step(self, monkeypatch):
        # a step is one window: every (row, iteration) phase problem of it
        # goes to the phase solver in one call, and each is solved once
        calls = []

        def recording(phi0, factor, linear, *args):
            calls.append(np.shape(factor))
            return ris_optimize(phi0, factor, linear, *args)

        monkeypatch.setattr(optimizer, "ris_optimize", recording)
        for scheme, snr_db in (("ris_comm_only", 10.0), ("ris_with_sensing", 30.0)):
            calls.clear()
            config = ExperimentConfig(scheme=scheme, seeds=4, max_outer=60)
            built = [build_cell(config, seed_index, snr_db) for seed_index in range(4)]
            state = optimizer._Lockstep(built)
            windows = []
            while len(state.cells) and state.iteration < config.max_outer:
                start = state.iteration
                state.step()
                windows.append(state.iteration - start)
                assert len(calls) == len(windows)
            assert all(len(shape) == 3 for shape in calls)
            outcomes = state.run()
            assert sum(shape[0] for shape in calls) == sum(len(o.trace) - 1 for o in outcomes)
            if scheme == "ris_comm_only":
                # every communication-only proposal is kept, so each window is one iteration
                assert set(windows) == {1} and calls[0][0] == len(built)
            else:
                # the capped cells keep none after iteration 1, and their windows grow to the cap
                assert max(windows) == optimizer.MAX_WINDOW_ROWS // len(built)
                assert max(shape[0] for shape in calls) == optimizer.MAX_WINDOW_ROWS
                assert len(calls) < sum(windows) == config.max_outer

    @pytest.mark.parametrize("name", optimizer._LINK_NAMES)
    def test_cells_must_share_links(self, small_scene, small_channels, name):
        # the batch holds the first cell's links; a cell whose links differ
        # by value is rejected, and fresh arrays of equal value are not
        coeffs = PathCoefficients.random(1)
        jcas = JcasConfig(max_outer=2)
        fresh = {link: getattr(small_channels, link).copy() for link in optimizer._LINK_NAMES}
        copied = dataclasses.replace(small_channels, **fresh)
        # the design never reads the SI residual, and noise is per cell
        other = dataclasses.replace(copied, si_nlos=np.zeros_like(copied.si_nlos), noise_user=0.3, noise_radar=0.2)
        shared = jcas_optimize_batch([(small_scene, small_channels, jcas, coeffs), (small_scene, other, jcas, coeffs)])
        alone = jcas_optimize(small_scene, other, jcas, coeffs)
        assert shared[1].precoder.tobytes() == alone.precoder.tobytes()
        fresh[name][-1, -1] += 1e-9
        with pytest.raises(ValueError, match=f"share the link {name}"):
            jcas_optimize_batch([(small_scene, small_channels, jcas, coeffs), (small_scene, copied, jcas, coeffs)])

    def test_cells_must_share_solver_options(self, small_scene, small_channels):
        coeffs = PathCoefficients.random(1)
        cells = [(small_scene, small_channels, JcasConfig(seed=seed, max_outer=2), coeffs) for seed in (1, 2)]
        assert [len(r.trace) for r in jcas_optimize_batch(cells)] == [3, 3]
        with pytest.raises(ValueError, match="share every solver option"):
            jcas_optimize_batch([cells[0], (small_scene, small_channels, JcasConfig(max_outer=3), coeffs)])
        assert jcas_optimize_batch([]) == []


def windowed_outcomes(monkeypatch, scheme, cells, cap=None):
    """``_Lockstep(...).run()`` of reference-dimension ``(seed_index,
    snr_db)`` cells as one batch, with ``MAX_WINDOW_ROWS`` set to ``cap``
    when given; returns the outcomes and the row count of every phase
    solver call."""
    rows = []
    solver = optimizer.ris_optimize

    def recording(phi0, factor, linear, *args):
        rows.append(len(phi0))
        return solver(phi0, factor, linear, *args)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "ris_optimize", recording)
        if cap is not None:
            patch.setattr(optimizer, "MAX_WINDOW_ROWS", cap)
        config = ExperimentConfig(scheme=scheme, seeds=8)
        outcomes = optimizer._Lockstep([build_cell(config, *cell) for cell in cells]).run()
    return outcomes, rows


def assert_same_outcomes(got, expected, where):
    """Results and traces equal bit for bit, errors in type, message and bound."""
    assert len(got) == len(expected)
    for cell, a, b in zip(where, got, expected):
        assert type(a) is type(b), cell
        if isinstance(a, CrbInfeasibleError):
            assert (str(a), a.achieved, a.threshold) == (str(b), b.achieved, b.threshold), cell
            continue
        assert a.precoder.tobytes() == b.precoder.tobytes(), cell
        assert a.ris_phase.tobytes() == b.ris_phase.tobytes(), cell
        for name in TRACE_COLUMNS:
            got_column, expected_column = np.array(getattr(a.trace, name)), np.array(getattr(b.trace, name))
            assert got_column.tobytes() == expected_column.tobytes(), (cell, name)


# reference-dimension ``(seed_index, snr_db)`` cells of each scheme, by how they end
WINDOW_CELLS = {
    # proposals kept at outer iterations 1-2, and the capped cells keep the first
    "kept early": ("ris_with_sensing", [(2, 10.0), (0, 0.0), (2, 0.0)]),
    # every communication-only proposal is kept, so each window is one iteration
    "kept always": ("ris_comm_only", [(0, 10.0), (1, 20.0), (3, 30.0)]),
    # merits that stall at 6-9 outer iterations
    "stalled": ("ris_with_sensing", [(0, 10.0), (2, 10.0), (5, 10.0), (6, 10.0)]),
    # a bound that turns infeasible at outer iteration 10, inside a window
    "infeasible": ("ris_with_sensing", [(7, 10.0), (3, 5.0)]),
    # capped at max_outer after five windows at the cap
    "capped": ("ris_with_sensing", [(0, 20.0), (1, 25.0), (0, 30.0)]),
    "mixed": ("ris_with_sensing", [(2, 10.0), (7, 10.0), (0, 30.0), (5, 10.0), (3, 5.0), (2, 0.0)]),
    # a bound that turns infeasible at outer iteration 10, and a merit that
    # stalls at iteration 12, inside the window after
    "stalled and infeasible": ("ris_with_sensing", [(7, 10.0), (0, 15.0)]),
}


class TestWindows:
    """A window solves the phase problems of several outer iterations in one
    call; the cells must end as they do one iteration at a time."""

    @pytest.mark.parametrize("group", WINDOW_CELLS)
    def test_windows_equal_one_iteration_at_a_time(self, monkeypatch, group):
        scheme, cells = WINDOW_CELLS[group]
        batches = [[cell] for cell in cells] if len(cells) > 1 else []
        for batch in [*batches, cells]:
            windowed, rows = windowed_outcomes(monkeypatch, scheme, batch)
            stepped, single_rows = windowed_outcomes(monkeypatch, scheme, batch, cap=1)
            assert_same_outcomes(windowed, stepped, batch)
            # with the cap at one, every call holds one iteration of each cell
            assert max(single_rows, default=0) <= len(batch)
            assert sum(rows) >= sum(single_rows)
            if scheme == "ris_comm_only":
                assert rows == single_rows
            elif rows:
                # the windows grew past one iteration
                assert max(rows) > len(batch), batch

    def test_infeasible_inside_a_window_keeps_its_message(self, monkeypatch):
        # seed index 7 at 10 dB runs windows of 1, 2 and 4 iterations, and
        # the fourth window's chain meets the infeasible bound at iteration 10
        for cap in (None, 1):
            (outcome,), rows = windowed_outcomes(monkeypatch, "ris_with_sensing", [(7, 10.0)], cap)
            assert isinstance(outcome, CrbInfeasibleError)
            assert str(outcome).startswith("outer iteration 10: CRB constraint infeasible: ")
            assert rows == ([1, 2, 4, 2] if cap is None else [1] * 9)

    def test_stages_hold_every_row(self, monkeypatch):
        # two rows: windows of 1, 2 and 4 iterations, then the chain of
        # iterations 8-11 ends before iteration 10, where seed index 7's
        # bound fails.  The next step finishes that cell at its first stage
        # and makes no call; the other cell makes iteration 10 again, and
        # its window's chain ends where its merit stalls, at iteration 12
        cells = WINDOW_CELLS["stalled and infeasible"][1]
        windowed, rows = windowed_outcomes(monkeypatch, "ris_with_sensing", cells)
        stepped, single_rows = windowed_outcomes(monkeypatch, "ris_with_sensing", cells, cap=1)
        assert_same_outcomes(windowed, stepped, cells)
        assert str(windowed[0]).startswith("outer iteration 10: CRB constraint infeasible: ")
        assert len(windowed[1].trace) - 1 == 12
        assert rows == [2, 4, 8, 4, 3]
        assert single_rows == [2] * 9 + [1] * 3

    def test_capped_windows_grow_to_the_cap(self, monkeypatch):
        (outcome,), rows = windowed_outcomes(monkeypatch, "ris_with_sensing", [(0, 20.0)])
        assert len(outcome.trace) - 1 == 100
        cap = optimizer.MAX_WINDOW_ROWS
        # the first proposal is kept: one iteration again, then doubling
        assert rows[:6] == [1, 1, 2, 4, 8, cap] and sum(rows) == 100
        assert len(rows) < 100 / cap + 6

    def test_a_kept_proposal_drops_the_rest_of_its_window(self, monkeypatch):
        # the solver proposes the held phase itself for the fifth problem it
        # sees, which the guard keeps (its merit is unchanged); seed index 0
        # at 10 dB runs windows of 1, 2 and 4 iterations, so the window of
        # iterations 4-7 keeps the proposal of iteration 5 and drops the
        # rest, and the cell must end as it does one iteration at a time
        solver = optimizer.ris_optimize

        def holding_the_fifth(phi0, factor, linear, *args):
            phases, values = solver(phi0, factor, linear, *args)
            seen.extend(range(len(seen), len(seen) + len(phi0)))
            for row, index in enumerate(seen[-len(phi0):]):
                if index == 4:
                    phases[row] = phi0[row]
            return phases, values

        outcomes = []
        for cap in (None, 1):
            seen = []
            monkeypatch.setattr(optimizer, "ris_optimize", holding_the_fifth)
            outcomes.append(windowed_outcomes(monkeypatch, "ris_with_sensing", [(0, 10.0)], cap))
            monkeypatch.setattr(optimizer, "ris_optimize", solver)
        (windowed, rows), (stepped, single_rows) = outcomes
        assert_same_outcomes(windowed, stepped, [(0, 10.0)])
        assert rows[:3] == [1, 2, 4] and rows[3] == 1
        # the windowed run solved iterations 6 and 7 twice
        assert sum(rows) == sum(single_rows) + 2


def extrapolation_reference(p0, p1, p2, merit, precoder, channels):
    """The outer cycle's SQUAREM step written out by hand on one cell: the
    S3 step length ``alpha = -|r|/|v|`` clamped to at most -1, the point
    ``p0 - 2 alpha r + alpha**2 v`` projected by ``x/|x|`` (a zero element
    keeps p2's value), kept when its merit at ``precoder`` is no higher
    than p2's ``merit``, and ``alpha`` halved toward -1 while it is not,
    until within ``SQUAREM_ALPHA_SLACK`` of -1.  A zero ``v`` or an
    infinite ratio takes p2.  Returns (phase, merit, points evaluated)."""
    r = p1 - p0
    v = (p2 - p1) - r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha = -np.sqrt(np.square(r.view(float)).sum() / np.square(v.view(float)).sum())
    points = []
    while -math.inf < alpha < -1.0 - optimizer.SQUAREM_ALPHA_SLACK:
        point = p0 + r * (-2.0 * alpha) + v * (alpha * alpha)
        magnitude = np.abs(point)
        with np.errstate(divide="ignore", invalid="ignore"):
            point = np.where(magnitude > 0.0, point / magnitude, p2)
        points.append(point)
        moved = -dl_rate(effective_channel(channels, point), precoder, channels.noise_user)
        if moved <= merit:
            return point, moved, points
        alpha = (alpha - 1.0) * 0.5
    return p2, merit, points


def comm_only_reference(channels, config, solver=ris_optimize):
    """The communication-only design with the surface, one cell and one
    outer iteration at a time, from the public stages: the water-filled
    precoder at the held phase, the ``"rate"`` phase problem at that
    precoder's combiner and weights, its proposal kept when its merit (the
    negative rate) is no higher, and the outer cycle: the second kept move
    since the cycle started ends it with :func:`extrapolation_reference`,
    and a rejected proposal restarts it at the held phase.  The loop stops
    when the merit changes by at most ``outer_tol`` relative, or at
    ``max_outer``.  ``solver`` makes the proposals.  Returns (precoder,
    phase, trace rows of iteration, objective, rate and lambda0, the
    number of proposals rejected)."""
    noise = channels.noise_user
    phi = np.exp(2j * np.pi * np.random.default_rng([config.seed, 0]).random(channels.n_ris))
    h_eff = effective_channel(channels, phi)
    precoder = dominant_precoder(h_eff, config.n_streams, config.power_budget)
    merit = -dl_rate(h_eff, precoder, noise)
    trace = [(0, merit, -merit, 0.0)]
    start, middle, rejected = phi, None, 0
    for iteration in range(1, config.max_outer + 1):
        (precoder,), (lam0,) = waterfill_precoder(
            h_eff[None], np.full((1, 1, 1), noise), config.n_streams, config.power_budget
        )
        current = -dl_rate(h_eff, precoder, noise)
        combiner = mmse_combiner(h_eff, precoder, noise)
        weight = weight_matrix(mse_matrix(h_eff, precoder, noise))
        proposal, _ = solver(phi, *ris_quadratics(precoder, combiner, weight, channels, objective="rate"))
        proposed = -dl_rate(effective_channel(channels, proposal), precoder, noise)
        if proposed <= current:
            phi, current = proposal, proposed
            if middle is None:
                middle = phi
            else:
                phi, current, _ = extrapolation_reference(start, middle, phi, current, precoder, channels)
                start, middle = phi, None
            h_eff = effective_channel(channels, phi)
        else:
            start, middle, rejected = phi, None, rejected + 1
        trace.append((iteration, current, -current, lam0))
        if abs(current - merit) <= config.outer_tol * max(abs(merit), 1e-300):
            break
        merit = current
    return precoder, phi, trace, rejected


def assert_matches_reference(result, precoder, phi, trace):
    """A communication-only result equals :func:`comm_only_reference`'s
    precoder, phase and trace bit for bit."""
    assert result.precoder.tobytes() == precoder.tobytes()
    assert result.ris_phase.tobytes() == phi.tobytes()
    for name, column in zip(("iteration", "objective", "rate_bps_hz", "lambda0"), zip(*trace)):
        assert np.array(getattr(result.trace, name)).tobytes() == np.array(column).tobytes(), name
    assert np.all(np.isnan(result.trace.si_power)) and np.all(np.isnan(result.trace.crb))


class TestOuterCycle:
    """SQUAREM on the held phase of the communication-only cells with the
    surface."""

    @pytest.mark.parametrize("seed_index", [0, 1, 4])
    @pytest.mark.parametrize("snr_db, max_outer", [(0.0, 100), (10.0, 100), (30.0, 100), (15.0, 6)])
    def test_lockstep_equals_reference(self, seed_index, snr_db, max_outer):
        config = ExperimentConfig(scheme="ris_comm_only", seeds=5, max_outer=max_outer)
        scene, channels, jcas, coeffs = build_cell(config, seed_index, snr_db)
        result = jcas_optimize(scene, channels, jcas, coeffs)
        assert_matches_reference(result, *comm_only_reference(channels, jcas)[:3])

    def test_a_rejected_proposal_restarts_the_cycle(self, monkeypatch):
        # the fourth proposal, made halfway through the second cycle, is
        # replaced by a phase of ones, which the guard rejects; the cycle
        # then starts again at the phase held.  At the default outer_tol
        # the precoder step alone would then stop the cell.
        def rejecting_the_fourth():
            rows = []

            def solver(phi0, *args):
                phases, values = ris_optimize(phi0, *args)
                for row in range(len(np.atleast_2d(phases))):
                    rows.append(row)
                    if len(rows) == 4:
                        np.atleast_2d(phases)[row] = 1.0
                return phases, values

            return solver

        config = ExperimentConfig(scheme="ris_comm_only", seeds=1, outer_tol=1e-9, max_outer=30)
        scene, channels, jcas, coeffs = build_cell(config, 0, 10.0)
        precoder, phi, trace, rejected = comm_only_reference(channels, jcas, rejecting_the_fourth())
        assert rejected == 1 and len(trace) > 8
        monkeypatch.setattr(optimizer, "ris_optimize", rejecting_the_fourth())
        assert_matches_reference(jcas_optimize(scene, channels, jcas, coeffs), precoder, phi, trace)

    def test_capped_cell_now_stops_on_the_merit_test(self):
        # with plain outer steps, seed index 0 at 0 dB ran into
        # max_outer = 100 at 7.58 b/s/Hz, its rate still climbing 0.13% per
        # iteration
        config = ExperimentConfig(scheme="ris_comm_only", seeds=1)
        scene, channels, jcas, coeffs = build_cell(config, 0, 0.0)
        trace = jcas_optimize(scene, channels, jcas, coeffs).trace
        assert len(trace) - 1 < jcas.max_outer // 5 and trace.rate_bps_hz[-1] > 10.0
        merit = np.array(trace.objective)
        assert abs(merit[-1] - merit[-2]) <= jcas.outer_tol * abs(merit[-2])
        assert np.all(np.diff(merit) <= 0.0)

    @staticmethod
    def ended_cycle(monkeypatch, p0, p1, p2):
        """A communication-only cell at reference size whose cycle from
        ``p0`` made the kept moves ``p1`` and ``p2``, passed to
        :meth:`_Lockstep._extrapolate`; returns the phase it holds after,
        the merit terms returned and the number of points evaluated."""
        config = ExperimentConfig(scheme="ris_comm_only", seeds=1)
        state = optimizer._Lockstep([build_cell(config, 0, 10.0)])
        state.anchor, state.middle, state.phi = p0[None], p1[None], p2[None]
        evaluated = (np.array([-1.0]), np.array([1.0]), np.array([math.nan]))
        evaluations = []

        def counted(*args):
            evaluations.append(1)
            assert len(evaluations) <= 100, "the backtrack does not end"
            return effective_channel(*args)

        monkeypatch.setattr(optimizer, "effective_channel", counted)
        merit = state._extrapolate(np.ones(1, dtype=bool), state.precoder, evaluated)
        return state.phi[0], merit, len(evaluations)

    @pytest.mark.parametrize("kind", ["zero v", "infinite ratio"])
    def test_zero_v_and_infinite_ratio_take_p2(self, monkeypatch, kind):
        # (1, k 2^-27) lies on the unit circle to the bit, so elements that
        # step along the imaginary axis by 2^-27 make r nonzero and v zero;
        # in the second case one element instead moves only at p2, by
        # 2^-537, whose square is the least subnormal: |r|^2/|v|^2 overflows
        n = 100
        step = np.full(n, 2.0**-27)
        p0 = np.ones(n, dtype=complex)
        p1, p2 = p0 + 1j * step, p0 + 2j * step
        if kind == "infinite ratio":
            p1[0], p2[0] = 1.0, complex(1.0, 2.0**-537)
        r, v = p1 - p0, (p2 - p1) - (p1 - p0)
        assert np.any(r != 0.0) and np.all(np.abs(p2) == 1.0)
        if kind == "zero v":
            assert np.all(v == 0.0)
        else:
            assert np.count_nonzero(v) == 1 and np.square(v.view(float)).sum() > 0.0
        phi, merit, evaluations = self.ended_cycle(monkeypatch, p0, p1, p2)
        assert evaluations == 0
        assert phi.tobytes() == p2.tobytes()
        objective, rate, si_power = merit
        assert (objective.tolist(), rate.tolist()) == ([-1.0], [1.0]) and np.isnan(si_power).all()


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

    @pytest.mark.parametrize("snr_db", [0.0, 30.0])
    def test_no_surface_comm_only_cell_finishes_after_one_step(self, snr_db):
        # the water-filled precoder is exact at a phase that cannot move,
        # so a second step would repeat the first bit for bit
        scene, channels, jcas, coeffs = build_cell(ExperimentConfig(scheme="no_ris_comm_only", seeds=2), 1, snr_db)
        result = jcas_optimize(scene, channels, jcas, coeffs)
        assert len(result.trace) == 2
        h_eff = effective_channel(channels, result.ris_phase)[None]
        noise = np.full((1, 1, 1), channels.noise_user)
        again, _ = waterfill_precoder(h_eff, noise, jcas.n_streams, jcas.power_budget)
        assert again[0].tobytes() == result.precoder.tobytes()

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
        calls, windows = [], []

        def counting_dl_rate(*args):
            calls.append(1)
            return dl_rate(*args)

        def counting_ris_optimize(*args):
            windows.append(1)
            return ris_optimize(*args)

        monkeypatch.setattr(optimizer, "dl_rate", counting_dl_rate)
        monkeypatch.setattr(optimizer, "ris_optimize", counting_ris_optimize)
        for ris_enabled in (True, False):
            calls.clear()
            windows.clear()
            config = JcasConfig(ris_enabled=ris_enabled, n_streams=2, seed=7, max_outer=12)
            result = jcas_optimize(
                small_scene, small_channels, config, coeffs=PathCoefficients.random(7)
            )
            iterations = len(result.trace) - 1
            # the initial state and the current state of each iteration,
            # then the proposals of each window in one stacked call (RIS
            # schemes: one window per solver call)
            assert len(calls) == 1 + iterations + len(windows)
            assert (0 < len(windows) < iterations) if ris_enabled else not windows

    @pytest.mark.parametrize(
        "scheme, reference",
        [*((scheme, False) for scheme in SCHEMES), ("ris_with_sensing", True), ("ris_with_sensing", "bound")],
    )
    def test_phase_terms_built_once_per_phase(
        self, scheme, reference, small_scene, small_channels, monkeypatch
    ):
        counts = dict.fromkeys(("effective_channel", "si_channel", "fisher_core"), 0)
        windows, stages, look_aheads = [], [], []
        # window -> (the kept proposal that ended an outer cycle, the points
        # its extrapolation evaluated, one per backtrack round)
        extrapolations = {}

        def counting(name):
            original = getattr(optimizer, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                if name == "effective_channel" and extrapolating:
                    extrapolating[-1].append(np.asarray(args[1])[0].copy())
                return original(*args, **kwargs)

            return counted

        extrapolating = []
        extrapolate = optimizer._Lockstep._extrapolate

        def recording_extrapolate(state, *args):
            extrapolating.append([])
            extrapolations[len(windows) - 1] = (state.phi[0].copy(), extrapolating[-1])
            try:
                return extrapolate(state, *args)
            finally:
                extrapolating.pop()

        def recording_ris(*args, **kwargs):
            # one solver call per window: ``jcas_optimize`` runs a batch of
            # one, so the rows are the window's iterations in order, each
            # from the phase the loop holds
            held = args[0]
            assert all(np.array_equal(row, held[0]) for row in held)
            phi, values = ris_optimize(*args, **kwargs)
            windows.append((held[0], phi))
            return phi, values

        def recording_precoder(*args, **kwargs):
            stages.append("precoder_update")
            return precoder_update(*args, **kwargs)

        def recording_waterfill(*args):
            stages.append("waterfill_precoder")
            return waterfill_precoder(*args)

        look_ahead = optimizer._Lockstep._look_ahead

        def recording_look_ahead(state, passed, staged, precoder):
            # the guard's bound check: one precoder update at the proposal
            # that passed the merit test, which is kept iff it meets the bound
            updates = len(stages)
            accept, kept = look_ahead(state, passed, staged, precoder)
            assert len(stages) == updates + 1
            look_aheads.append(bool(accept.any()))
            return accept, kept

        for name in counts:
            monkeypatch.setattr(optimizer, name, counting(name))
        monkeypatch.setattr(optimizer, "ris_optimize", recording_ris)
        monkeypatch.setattr(optimizer, "precoder_update", recording_precoder)
        monkeypatch.setattr(optimizer, "waterfill_precoder", recording_waterfill)
        monkeypatch.setattr(optimizer._Lockstep, "_look_ahead", recording_look_ahead)
        monkeypatch.setattr(optimizer._Lockstep, "_extrapolate", recording_extrapolate)
        ris_enabled, sensing = scheme_flags(scheme)
        if reference is True:
            # the guard never accepts a sensing phase on the small scene; at
            # 10 dB, seed index 2, it accepts some within the first iterations
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=10)
            scene, channels, jcas, coeffs = build_cell(config, 2, 10.0)
        elif reference == "bound":
            # the first proposal lowers the merit, and the guard's
            # look-ahead finds the bound missed there
            scene, channels, jcas, coeffs = acceptance_fixture_cell(0)
        else:
            scene, channels, coeffs = small_scene, small_channels, PathCoefficients.random(7)
            # a finite threshold the cell meets, so the sensing schemes are constrained
            jcas = JcasConfig(
                crb_threshold=0.01, ris_enabled=ris_enabled, sensing_enabled=sensing,
                n_streams=2, seed=7, max_outer=10,
            )
        result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
        iterations = len(result.trace) - 1
        # a window keeps at most one proposal, after which its cell holds
        # it, or, where the proposal ends an outer cycle, the extrapolated
        # point last evaluated; the window then ends, and the proposals
        # after it are dropped
        following = [held for held, _ in windows[1:]] + [result.ris_phase]
        kept, extrapolated = [], []
        for window, ((_, phi), after) in enumerate(zip(windows, following)):
            proposal, points = extrapolations.get(window, (None, []))
            extrapolated.append(bool(points) and np.array_equal(points[-1], after))
            held = proposal if extrapolated[-1] else after
            kept.append(next((i for i, p in enumerate(phi) if np.array_equal(p, held)), None))
        assert [k is not None for k in kept] == [
            not np.array_equal(held, after) for (held, _), after in zip(windows, following)
        ]
        proposals = sum(len(phi) for _, phi in windows)
        if ris_enabled:
            assert iterations == sum(len(phi) if k is None else k + 1 for (_, phi), k in zip(windows, kept))
            assert proposals >= iterations >= len(windows)
        else:
            assert windows == []
        # the sensing schemes update the precoder by WMMSE, the others by water-filling
        assert set(stages) == {"precoder_update" if sensing else "waterfill_precoder"}
        if ris_enabled and sensing:
            # the look-ahead runs on each proposal that passes the merit
            # test, and the proposal is kept iff its update meets the bound;
            # the window makes one update per proposal besides
            assert look_aheads.count(True) == sum(k is not None for k in kept)
            assert len(stages) == proposals + len(look_aheads)
        else:
            assert look_aheads == [] and len(stages) == (proposals if ris_enabled else iterations)
        if reference is True or (ris_enabled and not sensing):
            assert sum(k is not None for k in kept) > 0
        elif reference is False:
            assert all(k is None for k in kept)
        else:
            assert False in look_aheads
        # the initial phase, then each window's proposals in one stack, and
        # each backtrack round of an outer cycle's extrapolation; a staged
        # phase's channels are reused, not rebuilt
        rounds = sum(len(points) for _, points in extrapolations.values())
        assert counts["effective_channel"] == 1 + len(windows) + rounds
        if ris_enabled and not sensing:
            # the communication-only cell holds an extrapolated point at least once
            assert any(extrapolated)
        else:
            assert extrapolations == {}
        assert counts["si_channel"] == (1 + len(windows) if sensing else 0)
        assert counts["fisher_core"] == (1 + len(look_aheads) if sensing else 0)

    def test_guard_rejects_a_proposal_whose_next_update_misses_the_bound(self, monkeypatch):
        # the proposals come from SQUAREM at plain MM's old budget of 500
        # maps, whatever the default cap; on fixture cell 0 the first one
        # lowers the merit, and the precoder update the next step would
        # make there misses the bound
        solver = optimizer.ris_optimize
        proposals = []

        def proposing(phi0, factor, linear, *args):
            phi, values = solver(phi0, factor, linear, optimizer.RIS_TOL, 500)
            proposals.append(phi)
            return phi, values

        monkeypatch.setattr(optimizer, "ris_optimize", proposing)
        scene, channels, jcas, coeffs = acceptance_fixture_cell(0)
        state = optimizer._Lockstep([(scene, channels, jcas, coeffs)])
        start = state.phi.copy()
        state.step()
        ((proposal,),), (precoder,) = proposals, state.precoder

        def merit(phi):
            h_eff, leak = effective_channel(channels, phi), si_channel(channels, phi)
            return optimizer._evaluate(precoder[None], h_eff[None], leak[None], channels.noise_user)[0][0]

        assert merit(proposal) < merit(start[0])
        h_eff = effective_channel(channels, proposal)
        combiner = mmse_combiner(h_eff, precoder, channels.noise_user)
        weight = weight_matrix(mse_matrix(h_eff, precoder, channels.noise_user))
        context = build_sensing_context(scene, proposal, coeffs, channels.noise_radar)
        with pytest.raises(CrbInfeasibleError):
            precoder_update(
                combiner, weight, h_eff, si_channel(channels, proposal), jcas.power_budget, jcas.crb_threshold,
                fisher_core(context.path_response_deriv, context.noise_cov),
            )
        # the guard keeps the old phase, and the cell runs on within the bound
        assert np.array_equal(state.phi, start)
        (outcome,) = state.run()
        assert isinstance(outcome, optimizer.JcasResult)
        assert outcome.trace.crb[-1] <= jcas.crb_threshold

    def test_fixture_cell_stays_feasible(self):
        # without the guard's bound check, the default solver's first
        # proposal on fixture cell 0 is kept, and the next precoder update
        # misses the bound (0.0106774 > 0.01 at outer iteration 2)
        scene, channels, jcas, coeffs = acceptance_fixture_cell(0)
        result = jcas_optimize(scene, channels, jcas, coeffs)
        assert result.trace.crb[-1] <= jcas.crb_threshold

    def test_phase_records_match_a_rebuild_at_the_held_phase(self, monkeypatch):
        # every phase record the loop stages, and the one it holds at every
        # precoder step, must be the bits of a rebuild at the row's phase: a
        # record left stale after a kept proposal would not be; and every
        # stacked precoder update must give each row the bits of its
        # single-cell call on the same arrays
        stage, precoder_step = optimizer._Lockstep._stage, optimizer._Lockstep._precoder_step
        batch, staged, updates = [], [], []

        def check(state, record, phases, cells):
            for row, (phi, cell) in enumerate(zip(phases, cells.tolist())):
                scene, channels, _, coeffs = batch[cell]
                assert record.h_eff[row].tobytes() == effective_channel(channels, phi).tobytes()
                if not state.sensing:
                    assert record.leak is record.fisher is record.deriv is None
                    continue
                ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
                assert record.leak[row].tobytes() == si_channel(channels, phi).tobytes()
                assert record.deriv[row].tobytes() == ctx.path_response_deriv.tobytes()
                assert record.noise_cov[row].tobytes() == ctx.noise_cov.tobytes()
                if state.constrain:
                    fisher = fisher_core(ctx.path_response_deriv, ctx.noise_cov)
                    assert record.fisher[row].tobytes() == fisher.tobytes()
                else:
                    assert record.fisher is None

        def checked_stage(state, rows, phi, h_eff, leak):
            record = stage(state, rows, phi, h_eff, leak)
            check(state, record, phi[rows], state.cells[rows])
            staged.append(1)
            return record

        def checked_precoder_step(state, precoder):
            check(state, state.terms, state.phi, state.cells)
            return precoder_step(state, precoder)

        def recording(*args, **kwargs):
            result = precoder_update(*args, **kwargs)
            updates.append((args, kwargs, result))
            return result

        monkeypatch.setattr(optimizer._Lockstep, "_stage", checked_stage)
        monkeypatch.setattr(optimizer._Lockstep, "_precoder_step", checked_precoder_step)
        monkeypatch.setattr(optimizer, "precoder_update", recording)
        infeasible = 0
        for scheme in SCHEMES:
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=30)
            # at 0 dB the sensing bound is infeasible at seed index 1, and
            # the guard accepts a sensing phase at seed index 2
            batch[:] = [build_cell(config, seed_index, snr_db) for snr_db in (0.0, 30.0) for seed_index in (1, 2)]
            staged.clear()
            jcas_optimize_batch(batch)
            if scheme_flags(scheme)[0]:
                # the constructor's record, then at least one kept proposal
                assert len(staged) > 1, scheme
            for args, kwargs, (v, lam, mu) in updates:
                (combiner, weight, h_eff, leak, budget, threshold, fisher) = inspect.signature(
                    precoder_update
                ).bind(*args, **kwargs).arguments.values()
                for row in range(len(combiner)):
                    single = (combiner[row], weight[row], h_eff[row], leak[row], budget, threshold, fisher[row])
                    if mu[row] == math.inf:
                        # a stacked infeasible cell returns its
                        # zero-multiplier precoder instead of raising
                        with pytest.raises(CrbInfeasibleError) as err:
                            precoder_update(*single)
                        (best,) = optimizer._bound(v[row][None], fisher[row][None])
                        assert err.value.achieved == best
                        infeasible += 1
                    else:
                        v_row, lam_row, mu_row = precoder_update(*single)
                        assert (v_row.tobytes(), lam_row, mu_row) == (v[row].tobytes(), lam[row], mu[row])
            updates.clear()
        # the cells include infeasible ones, which raise in the single form
        assert infeasible > 0

    def test_finite_threshold_without_fisher_core_is_rejected(self, small_channels):
        phi = np.ones(small_channels.n_ris, dtype=complex)
        h_eff = effective_channel(small_channels, phi)
        v0 = dominant_precoder(h_eff, 2, 1.0)
        f = mmse_combiner(h_eff, v0, small_channels.noise_user)
        w = weight_matrix(mse_matrix(h_eff, v0, small_channels.noise_user))
        with pytest.raises(ValueError, match="Fisher core"):
            precoder_update(f, w, h_eff, si_channel(small_channels, phi), 1.0, crb_threshold=0.01)

    @staticmethod
    def run_reference_cells(max_outer):
        """``jcas_optimize`` on reference-dimension cells of both surface
        schemes at 0 and 30 dB, yielding (cell, solver options) after each.
        Seed indices 0 and 2 meet the sensing bound at 0 dB."""
        for scheme in ("ris_comm_only", "ris_with_sensing"):
            config = ExperimentConfig(scheme=scheme, seeds=3, max_outer=max_outer)
            for snr_db in (0.0, 30.0):
                for seed_index in (0, 2):
                    scene, channels, jcas, coeffs = build_cell(config, seed_index, snr_db)
                    jcas_optimize(scene, channels, jcas, coeffs)
                    yield (scheme, snr_db, seed_index), jcas

    def test_phase_steps_descend_on_reference_cells(self, monkeypatch):
        # the solver's step size is exact to rounding, with no safety factor,
        # so the MM majorizer must still give a non-increasing objective
        calls = []

        def recording(*args, **kwargs):
            # the outer loop passes a stack of problems: one row per cell
            phi, values = ris_optimize(*args, **kwargs)
            calls.extend((np.shape(factor), row) for factor, row in zip(args[1], values))
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
