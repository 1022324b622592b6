import cmath
import dataclasses

import numpy as np
import pytest

from fdjcas.geometry import build_scene, ris_angles_of_target
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

from conftest import random_unit_modulus


class TestUlaSteering:
    def test_broadside_is_uniform(self):
        a = ula_steering(0.0, 7, 0.05, 0.1)
        assert np.allclose(a, 1.0 / np.sqrt(7), atol=1e-15)

    def test_unit_norm(self):
        for theta in (-1.2, 0.3, 1.5):
            a = ula_steering(theta, 9, 0.05, 0.1)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_scalar_loop_oracle(self):
        theta, n, d, lam = np.pi / 6, 4, 0.05, 0.1
        got = ula_steering(theta, n, d, lam)
        for k in range(n):
            phase = 2 * np.pi / lam * d * k * np.sin(theta)
            assert phase == pytest.approx(np.pi * k * 0.5, abs=1e-12)
            expect = cmath.exp(1j * phase) / np.sqrt(n)
            assert abs(got[k] - expect) < 1e-12


class TestUlaSteeringDerivative:
    def test_first_entry_zero(self):
        for theta in (-0.7, 0.0, 1.1):
            assert ula_steering_derivative(theta, 5, 0.05, 0.1)[0] == 0.0

    def test_endfire_vanishes(self):
        d = ula_steering_derivative(np.pi / 2, 8, 0.05, 0.1)
        assert np.max(np.abs(d)) < 1e-12

    def test_finite_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.uniform(-1.3, 1.3)
            fd = (
                ula_steering(theta + 1e-6, 8, 0.05, 0.1)
                - ula_steering(theta - 1e-6, 8, 0.05, 0.1)
            ) / 2e-6
            an = ula_steering_derivative(theta, 8, 0.05, 0.1)
            assert np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-4


class TestUpaSteering:
    def test_zero_angles_uniform(self, reference_scene):
        a = upa_steering(0.0, 0.0, reference_scene)
        assert np.allclose(a, 1.0 / np.sqrt(reference_scene.n_ris), atol=1e-15)

    def test_reference_element_constant(self, reference_scene):
        for elevation, azimuth in ((0.3, 0.2), (-1.0, 0.7), (1.4, -1.2)):
            a = upa_steering(elevation, azimuth, reference_scene)
            assert a[0] == pytest.approx(1.0 / np.sqrt(reference_scene.n_ris), abs=1e-15)

    def test_scalar_loop_oracle(self, reference_scene):
        elevation, azimuth = 0.3, 0.2
        got = upa_steering(elevation, azimuth, reference_scene)
        offsets = reference_scene.ris_offsets()
        lam = reference_scene.wavelength
        for i in range(reference_scene.n_ris):
            w = offsets[i, 0] * np.sin(elevation) * np.cos(azimuth) + offsets[i, 1] * np.sin(azimuth)
            expect = cmath.exp(1j * 2 * np.pi / lam * w) / np.sqrt(reference_scene.n_ris)
            assert abs(got[i] - expect) < 1e-12

    def test_unit_norm(self, reference_scene):
        a = upa_steering(0.9, -0.4, reference_scene)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


class TestUpaSteeringDerivative:
    def test_reference_element_zero(self, reference_scene):
        assert upa_steering_derivative(reference_scene)[0] == 0.0

    def test_finite_difference(self, reference_scene):
        h = 1e-6

        def response(theta):
            scene = reference_scene.with_target_angle(theta)
            angles = ris_angles_of_target(scene)
            return upa_steering(angles.elevation, angles.azimuth, scene)

        fd = (response(reference_scene.target_angle + h) - response(reference_scene.target_angle - h)) / (2 * h)
        an = upa_steering_derivative(reference_scene)
        assert np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-4

    def test_zero_when_path_lengths_stationary(self):
        base = build_scene(ris_rows=1, ris_cols=6, target_angle=0.0)
        ris = base.ris_positions - base.ris_positions[0] + np.array([3.0, 4.0, 0.0])
        scene = dataclasses.replace(base, ris_positions=ris)
        assert np.max(np.abs(upa_steering_derivative(scene))) < 1e-12


def scalar_loop_path_matrix(vectors, phi, coeffs):
    """Term-by-term oracle: explicit sums over surface elements and outer
    products built entry by entry."""
    n_rx = vectors.bs_rx_target.shape[0]
    n_tx = vectors.bs_tx_target.shape[0]
    thru = sum(vectors.ris_bs[i] * phi[i] * vectors.ris_target[i] for i in range(phi.shape[0]))
    out = np.zeros((n_rx, n_tx), dtype=complex)
    for m in range(n_rx):
        for n in range(n_tx):
            out[m, n] = (
                coeffs.direct * vectors.bs_rx_target[m] * vectors.bs_tx_target[n]
                + coeffs.double_bounce * thru * thru * vectors.bs_rx_ris[m] * vectors.bs_tx_ris[n]
                + coeffs.outgoing_via_ris * thru * vectors.bs_rx_target[m] * vectors.bs_tx_ris[n]
                + coeffs.ris_bs_gain * coeffs.return_via_ris * thru * vectors.bs_rx_ris[m] * vectors.bs_tx_target[n]
            )
    return out


class TestPathMatrix:
    def test_zero_coefficients(self, reference_scene):
        vectors = steering_set(reference_scene)
        coeffs = PathCoefficients(direct=0.0, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0)
        phi = np.ones(reference_scene.n_ris, dtype=complex)
        assert np.all(path_matrix(vectors, phi, coeffs) == 0.0)
        assert np.all(path_matrix_derivative(vectors, phi, coeffs) == 0.0)

    def test_direct_only_rank_one(self, reference_scene):
        vectors = steering_set(reference_scene)
        coeffs = PathCoefficients(
            direct=0.8 + 0.2j, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0
        )
        phi = random_unit_modulus(reference_scene.n_ris, np.random.default_rng(0))
        a = path_matrix(vectors, phi, coeffs)
        expect = coeffs.direct * np.outer(vectors.bs_rx_target, vectors.bs_tx_target)
        assert np.allclose(a, expect, atol=1e-14)
        svals = np.linalg.svd(a, compute_uv=False)
        assert svals[1] < 1e-12 * svals[0]

    def test_matches_scalar_loop_oracle(self, reference_scene):
        rng = np.random.default_rng(5)
        vectors = steering_set(reference_scene)
        coeffs = PathCoefficients.random(9)
        phi = random_unit_modulus(reference_scene.n_ris, rng)
        got = path_matrix(vectors, phi, coeffs)
        expect = scalar_loop_path_matrix(vectors, phi, coeffs)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_linear_in_direct_coefficient(self, reference_scene):
        vectors = steering_set(reference_scene)
        phi = random_unit_modulus(reference_scene.n_ris, np.random.default_rng(1))
        base = PathCoefficients(direct=1.0, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0)
        scaled = PathCoefficients(direct=3.0, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0)
        assert np.allclose(
            path_matrix(vectors, phi, scaled), 3.0 * path_matrix(vectors, phi, base), atol=1e-13
        )


class TestPathMatrixDerivative:
    def test_direct_only_product_rule(self, reference_scene):
        vectors = steering_set(reference_scene)
        coeffs = PathCoefficients(
            direct=1.5 - 0.5j, double_bounce=0.0, outgoing_via_ris=0.0, return_via_ris=0.0
        )
        phi = np.ones(reference_scene.n_ris, dtype=complex)
        got = path_matrix_derivative(vectors, phi, coeffs)
        expect = coeffs.direct * (
            np.outer(vectors.d_bs_rx_target, vectors.bs_tx_target)
            + np.outer(vectors.bs_rx_target, vectors.d_bs_tx_target)
        )
        assert np.allclose(got, expect, atol=1e-13)

    def test_finite_difference_master(self, reference_scene):
        rng = np.random.default_rng(11)
        coeffs = PathCoefficients.random(4)
        phi = random_unit_modulus(reference_scene.n_ris, rng)
        h = 1e-6

        def response(theta):
            return path_matrix(steering_set(reference_scene.with_target_angle(theta)), phi, coeffs)

        fd = (response(reference_scene.target_angle + h) - response(reference_scene.target_angle - h)) / (2 * h)
        an = path_matrix_derivative(steering_set(reference_scene), phi, coeffs)
        rel = np.linalg.norm(an - fd) / max(1.0, np.linalg.norm(an))
        assert rel < 1e-3

    def test_dimension_mismatch_rejected(self, reference_scene):
        vectors = steering_set(reference_scene)
        coeffs = PathCoefficients.random(0)
        with pytest.raises(ValueError):
            path_matrix(vectors, np.ones(3, dtype=complex), coeffs)
        with pytest.raises(ValueError):
            path_matrix_derivative(vectors, np.ones(3, dtype=complex), coeffs)


class TestSensingContext:
    def test_unit_norm_steering_vectors(self, reference_scene):
        vectors = steering_set(reference_scene)
        for name in ("bs_rx_target", "bs_tx_target", "bs_rx_ris", "bs_tx_ris", "ris_target", "ris_bs"):
            assert abs(np.linalg.norm(getattr(vectors, name)) - 1.0) < 1e-12

    def test_context_bundles_consistent_pieces(self, reference_scene):
        coeffs = PathCoefficients.random(2)
        phi = random_unit_modulus(reference_scene.n_ris, np.random.default_rng(3))
        ctx = build_sensing_context(reference_scene, phi, coeffs, noise_radar=0.25)
        assert ctx.path_response.shape == (10, 15)
        assert ctx.path_response_deriv.shape == (10, 15)
        assert np.allclose(ctx.noise_cov, 0.25 * np.eye(10))
        assert np.allclose(ctx.path_response, path_matrix(ctx.steering, phi, coeffs))
