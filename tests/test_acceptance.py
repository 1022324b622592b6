"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.  Reference dimensions throughout:
15x10 node arrays, 5-antenna user, 10x10 surface, 2 streams, accuracy
threshold 0.01 rad^2."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fdjcas.channels import build_channel_set
from fdjcas.crb import aoa_crb
from fdjcas.experiments import ExperimentConfig, SCHEMES, monte_carlo_mse, run_scheme
from fdjcas.geometry import build_scene, ris_angles_of_target
from fdjcas.optimizer import (
    CrbInfeasibleError,
    JcasConfig,
    jcas_optimize,
    effective_channel,
    mm_step,
    mmse_combiner,
    mse_matrix,
    precoder_update,
    ris_objective_value,
    ris_optimize,
    ris_quadratics,
    si_channel,
    weight_matrix,
    dl_rate,
)
from fdjcas.steering import (
    PathCoefficients,
    build_sensing_context,
    path_matrix,
    path_matrix_derivative,
    steering_set,
    ula_steering,
    ula_steering_derivative,
    upa_steering,
    upa_steering_derivative,
)

THRESHOLD = 0.01
POWER = 1.0


def report(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def random_reference_state(rng, channels):
    phi = np.exp(2j * np.pi * rng.random(channels.n_ris))
    h_eff = effective_channel(channels, phi)
    v = (rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2)))
    v *= np.sqrt(POWER / np.sum(np.abs(v) ** 2))
    f = mmse_combiner(h_eff, v, channels.noise_user)
    w = weight_matrix(mse_matrix(h_eff, v, channels.noise_user))
    return phi, h_eff, v, f, w


@pytest.fixture(scope="module")
def reference_runs():
    """Twenty feasible reference-dimension optimizations at 12 dB."""
    noise = 10.0 ** (-1.2)
    runs = []
    for seed in range(20):
        rng = np.random.default_rng([9, seed])
        theta = rng.uniform(-np.pi / 4, np.pi / 4)
        scene = build_scene(target_angle=theta)
        channels = build_channel_set(
            scene, n_user_antennas=5, nlos_si_power=0.01, seed=[9, seed, 1],
            noise_user=noise, noise_radar=noise,
        )
        coeffs = PathCoefficients.random([9, seed, 2])
        config = JcasConfig(crb_threshold=THRESHOLD, power_budget=POWER, seed=seed)
        start = time.perf_counter()
        result = jcas_optimize(scene, channels, config, coeffs=coeffs)
        runs.append((result, time.perf_counter() - start))
    return runs


def test_criterion_01_derivative_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_path = 0.0
    worst_steer = 0.0
    h = 1e-6
    for trial in range(50):
        scene = build_scene(
            n_bs_tx=int(rng.integers(4, 16)),
            n_bs_rx=int(rng.integers(4, 11)),
            ris_rows=int(rng.integers(2, 11)),
            ris_cols=int(rng.integers(2, 11)),
            bs_ris_angle=rng.uniform(-1.0, 1.0),
            bs_ris_distance=rng.uniform(3.0, 8.0),
            target_range=rng.uniform(20.0, 80.0),
            target_angle=rng.uniform(-1.3, 1.3),
        )
        coeffs = PathCoefficients.random(rng.integers(1 << 31))
        phi = np.exp(2j * np.pi * rng.random(scene.n_ris))

        def response(theta):
            return path_matrix(steering_set(scene.with_target_angle(theta)), phi, coeffs)

        fd = (response(scene.target_angle + h) - response(scene.target_angle - h)) / (2 * h)
        an = path_matrix_derivative(steering_set(scene), phi, coeffs)
        worst_path = max(worst_path, np.linalg.norm(an - fd) / max(1.0, np.linalg.norm(an)))

        theta = scene.target_angle
        for n in (scene.n_bs_rx, scene.n_bs_tx):
            fd_v = (
                ula_steering(theta + h, n, scene.spacing, scene.wavelength)
                - ula_steering(theta - h, n, scene.spacing, scene.wavelength)
            ) / (2 * h)
            an_v = ula_steering_derivative(theta, n, scene.spacing, scene.wavelength)
            worst_steer = max(
                worst_steer, np.max(np.abs(an_v - fd_v)) / max(1.0, np.max(np.abs(fd_v)))
            )

        def surface(theta):
            moved = scene.with_target_angle(theta)
            angles = ris_angles_of_target(moved)
            return upa_steering(angles.elevation, angles.azimuth, moved)

        fd_s = (surface(scene.target_angle + h) - surface(scene.target_angle - h)) / (2 * h)
        an_s = upa_steering_derivative(scene)
        worst_steer = max(
            worst_steer, np.max(np.abs(an_s - fd_s)) / max(1.0, np.max(np.abs(fd_s)))
        )
    elapsed = time.perf_counter() - start
    ok = worst_path < 1e-3 and worst_steer < 1e-4 and elapsed < 10.0
    report(
        1, ok,
        f"path-derivative rel {worst_path:.2e} < 1e-3, steering rel {worst_steer:.2e} < 1e-4, "
        f"{elapsed:.1f} s < 10 s",
    )


def test_criterion_02_mm_descent_and_fixed_point():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_step = -np.inf
    for _ in range(200):
        n = int(rng.integers(16, 101))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        quad = x @ x.conj().T / n
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi0 = np.exp(2j * np.pi * rng.random(n))
        _, values = ris_optimize(phi0, quad, lin, tol=1e-8, max_iter=500)
        worst_step = max(worst_step, float(np.max(np.diff(values))) if len(values) > 1 else 0.0)
    worst_fixed = 0.0
    for _ in range(20):
        n = 64
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        quad = x @ x.conj().T / n
        lin = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phi, _ = ris_optimize(
            np.exp(2j * np.pi * rng.random(n)), quad, lin, tol=1e-12, max_iter=20000
        )
        lam_max = float(np.linalg.eigvalsh(0.5 * (quad + quad.conj().T))[-1])
        for _ in range(2000):  # polish to the fixed point at converged objective
            nxt = mm_step(phi, quad, lin, lam_max)
            if np.max(np.abs(nxt - phi)) < 1e-8:
                phi = nxt
                break
            phi = nxt
        worst_fixed = max(worst_fixed, float(np.max(np.abs(mm_step(phi, quad, lin) - phi))))
    elapsed = time.perf_counter() - start
    ok = worst_step <= 1e-9 and worst_fixed < 1e-6 and elapsed < 30.0
    report(
        2, ok,
        f"worst objective step {worst_step:.2e} <= 1e-9, fixed-point distance "
        f"{worst_fixed:.2e} < 1e-6, {elapsed:.1f} s < 30 s",
    )


def test_criterion_03_quadratic_form_equivalence():
    rng = np.random.default_rng(303)
    scene = build_scene(target_angle=np.deg2rad(20.0))
    worst = 0.0
    for instance in range(20):
        channels = build_channel_set(
            scene, n_user_antennas=5, nlos_si_power=0.01, seed=instance,
            noise_user=10.0 ** (-rng.uniform(0.0, 3.0)),
        )
        phi0, h_eff, v, f, w = random_reference_state(rng, channels)
        quad, lin = ris_quadratics(v, f, w, channels)

        def restricted(phi):
            he = effective_channel(channels, phi)
            leak = si_channel(channels, phi) @ v
            si = float(np.sum(np.abs(leak) ** 2))
            hv = f @ he @ v
            sig = float(np.real(np.trace(w @ hv @ hv.conj().T)))
            return si + sig

        base = restricted(phi0) - ris_objective_value(phi0, quad, lin)
        for _ in range(100):
            p = np.exp(2j * np.pi * rng.random(channels.n_ris))
            dev = restricted(p) - ris_objective_value(p, quad, lin)
            worst = max(worst, abs(dev - base))
    ok = worst < 1e-8
    report(3, ok, f"max |deviation from constant| {worst:.2e} < 1e-8 over 20x100 profiles")


def test_criterion_04_precoder_constraints():
    rng = np.random.default_rng(404)
    scene_base = build_scene()
    power_misses = []
    crb_excess = []
    exact_slack = True
    infeasible = 0
    for seed in range(20):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        scene = scene_base.with_target_angle(theta)
        coeffs = PathCoefficients.random([404, seed])
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            noise = POWER / 10.0 ** (snr_db / 10.0)
            channels = build_channel_set(
                scene, n_user_antennas=5, nlos_si_power=0.01, seed=[404, seed, 1],
                noise_user=noise, noise_radar=noise,
            )
            phi, h_eff, v0, f, w = random_reference_state(rng, channels)
            ctx = build_sensing_context(scene, phi, coeffs, noise)
            try:
                v, lam, mu = precoder_update(
                    f, w, channels, phi, POWER,
                    crb_threshold=THRESHOLD,
                    path_response_deriv=ctx.path_response_deriv,
                    noise_cov=ctx.noise_cov,
                )
            except CrbInfeasibleError:
                infeasible += 1
                continue
            power = float(np.sum(np.abs(v) ** 2))
            if lam > 0.0:
                power_misses.append(abs(power - POWER) / POWER)
            else:
                exact_slack = exact_slack and lam == 0.0 and power <= POWER
            crb = aoa_crb(v, ctx.path_response_deriv, ctx.noise_cov)
            crb_excess.append(crb / THRESHOLD)
            if mu == 0.0:
                # slack sensing constraint must really be slack
                exact_slack = exact_slack and crb <= THRESHOLD * (1 + 1e-3)
    worst_power = max(power_misses) if power_misses else 0.0
    worst_crb = max(crb_excess)
    ok = worst_power < 1e-6 and worst_crb <= 1.0 + 1e-3 and exact_slack
    report(
        4, ok,
        f"power miss {worst_power:.3e} < 1e-6 on {len(power_misses)} active cells, "
        f"CRB/threshold {worst_crb:.6f} <= 1.001, slackness exact, "
        f"{infeasible}/80 cells infeasible (allowed, flagged)",
    )


def test_criterion_05_outer_loop_monotone_convergence(reference_runs):
    worst_rise = -np.inf
    worst_iters = 0
    worst_time = 0.0
    converged = True
    for result, elapsed in reference_runs:
        obj = np.array(result.trace.objective)
        rel = np.diff(obj) / np.maximum(np.abs(obj[:-1]), 1e-12)
        worst_rise = max(worst_rise, float(rel.max()))
        iters = len(obj) - 1
        worst_iters = max(worst_iters, iters)
        converged = converged and iters < 100
        worst_time = max(worst_time, elapsed)
    ok = worst_rise <= 1e-6 and converged and worst_time < 60.0
    report(
        5, ok,
        f"max relative objective rise {worst_rise:.2e} <= 1e-6, max iterations "
        f"{worst_iters} < 100, max wall clock {worst_time:.1f} s < 60 s, 20 seeds",
    )


def test_criterion_06_si_suppression(reference_runs):
    reductions_db = []
    ok = True
    for result, _ in reference_runs:
        first = result.trace.si_power[0]
        last = result.trace.si_power[-1]
        ok = ok and last < first
        reductions_db.append(10.0 * math.log10(first / last))
    median_db = float(np.median(reductions_db))
    report(
        6, ok,
        f"final SI power below initial on 20/20 seeds; median reduction "
        f"{median_db:.1f} dB (min {min(reductions_db):.1f}, max {max(reductions_db):.1f})",
    )


def test_criterion_07_wmmse_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        n_user = int(rng.integers(2, 8))
        n_tx = int(rng.integers(2, 16))
        streams = int(rng.integers(1, min(n_user, n_tx) + 1))
        h = rng.standard_normal((n_user, n_tx)) + 1j * rng.standard_normal((n_user, n_tx))
        v = (rng.standard_normal((n_tx, streams)) + 1j * rng.standard_normal((n_tx, streams))) / 2
        noise = 10.0 ** rng.uniform(-3, 1)
        rate = dl_rate(h, v, noise)
        _, logdet = np.linalg.slogdet(mse_matrix(h, v, noise))
        worst = max(worst, abs(rate + logdet / math.log(2.0)))
    ok = worst < 1e-10
    report(7, ok, f"max |rate + log2 det(mse)| {worst:.2e} < 1e-10 over 100 instances")


def test_criterion_08_sensing_trend():
    start = time.perf_counter()
    trials = 200
    config = ExperimentConfig(
        crb_threshold=THRESHOLD,
        snapshots=64,
        grid_resolution=2e-4,
        residual_factor=0.1,
        root_seed=0,
        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        mse_trials=trials,
    )
    rows = monte_carlo_mse(config, np.deg2rad(20.0), PathCoefficients.random(3))
    mse = np.array([r["mse_rad2"] for r in rows])
    crb = np.array([r["crb_rad2"] for r in rows])
    mse_inversions = int(np.sum(np.diff(mse) > 0.0))
    slack = 1.0 - 3.0 / math.sqrt(trials)
    above_bound = bool(np.all(mse >= crb * slack))
    gap = mse - crb
    gap_inversions = int(np.sum(np.diff(gap) > 0.0))
    ratio_top = float(mse[-1] / crb[-1])
    elapsed = time.perf_counter() - start
    ok = (
        mse_inversions <= 1
        and above_bound
        and gap_inversions <= 1
        and ratio_top > 1.0
        and elapsed < 1200.0
    )
    report(
        8, ok,
        f"MSE inversions {mse_inversions} <= 1, MSE >= CRB*(1-3/sqrt(200)) {above_bound}, "
        f"gap inversions {gap_inversions} <= 1, top-SNR MSE/CRB {ratio_top:.1f} > 1, "
        f"{elapsed:.0f} s < 1200 s; mse={np.array2string(mse, precision=2)}",
    )


def test_criterion_09_rate_ordering():
    start = time.perf_counter()
    grid = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    rates = {}
    for scheme in SCHEMES:
        config = ExperimentConfig(scheme=scheme, seeds=50, snr_grid_db=grid, mse_trials=0)
        rows = run_scheme(config)
        rates[scheme] = np.array([row["rate_bps_hz"] for row in rows])
    hd_over_fd = bool(np.all(rates["ris_comm_only"] >= rates["ris_with_sensing"]))
    ris_comm = bool(np.all(rates["ris_comm_only"] >= rates["no_ris_comm_only"]))
    ris_sens = bool(np.all(rates["ris_with_sensing"] >= rates["no_ris_with_sensing"]))
    elapsed = time.perf_counter() - start
    ok = hd_over_fd and ris_comm and ris_sens and elapsed < 600.0
    report(
        9, ok,
        f"HD>=FD-JCAS {hd_over_fd}, RIS>=no-RIS comm {ris_comm}, RIS>=no-RIS sensing "
        f"{ris_sens} at every SNR over 50 seeds, {elapsed:.0f} s < 600 s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import yaml

    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "scheme": "ris_with_sensing",
                "snr_grid_db": [10.0, 20.0],
                "seeds": 3,
                "mse_trials": 3,
                "snapshots": 32,
                "output_dir": str(tmp_path / "out1"),
            }
        )
    )

    def run(out):
        return subprocess.run(
            [sys.executable, "-m", "fdjcas.cli", "run", str(config_path), "--out", out],
            capture_output=True, text=True,
        )

    first = run(str(tmp_path / "out1"))
    second = run(str(tmp_path / "out2"))
    ok = first.returncode == 0 and second.returncode == 0
    identical = True
    for name in ("ris_with_sensing.csv", "combined.csv"):
        a = (tmp_path / "out1" / name).read_bytes()
        b = (tmp_path / "out2" / name).read_bytes()
        identical = identical and a == b
    ok = ok and identical
    report(10, ok, f"two CLI runs byte-identical across per-scheme and combined CSVs: {identical}")
