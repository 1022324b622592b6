"""Array steering vectors, their target-angle derivatives, and the two-way
radar response matrix combining the direct and RIS-assisted echo paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    RisAngles,
    Scene,
    ris_angles_of_point,
    ris_angles_of_target,
    ris_phase_derivatives,
    upa_phase_lengths,
)


def ula_steering(angle: float, n_elements: int, spacing: float, wavelength: float) -> np.ndarray:
    """Unit-norm ULA response, element n carrying phase 2*pi*spacing*n*sin(angle)/wavelength."""
    n = np.arange(n_elements)
    phase = 2.0 * np.pi * spacing * n * np.sin(angle) / wavelength
    return np.exp(1j * phase) / np.sqrt(n_elements)


def ula_steering_derivative(angle: float, n_elements: int, spacing: float, wavelength: float) -> np.ndarray:
    """Elementwise d/d(angle) of :func:`ula_steering`."""
    n = np.arange(n_elements)
    k = 2.0 * np.pi * spacing / wavelength
    phase = k * n * np.sin(angle)
    return 1j * k * n * np.cos(angle) * np.exp(1j * phase) / np.sqrt(n_elements)


def upa_steering(elevation: float, azimuth: float, scene: Scene) -> np.ndarray:
    """Unit-norm RIS surface response for the given elevation/azimuth pair."""
    w = upa_phase_lengths(scene, RisAngles(elevation, azimuth))
    return np.exp(2j * np.pi * w / scene.wavelength) / np.sqrt(scene.n_ris)


def upa_steering_derivative(scene: Scene) -> np.ndarray:
    """d/dtheta of the RIS response toward the target, via the angle chain rule."""
    angles = ris_angles_of_target(scene)
    w = upa_phase_lengths(scene, angles)
    dw = ris_phase_derivatives(scene)
    k = 2.0 * np.pi / scene.wavelength
    return 1j * k * dw * np.exp(1j * k * w) / np.sqrt(scene.n_ris)


@dataclass(frozen=True)
class PathCoefficients:
    """Complex reflection coefficients of the four echo paths.

    ``direct`` scales the node-target-node bounce, ``double_bounce`` the
    node-RIS-target-RIS-node path, ``outgoing_via_ris`` the path whose
    transmit leg goes through the RIS, and ``return_via_ris`` the path
    whose receive leg does.
    """

    direct: complex = 1.0
    double_bounce: complex = 0.5
    outgoing_via_ris: complex = 0.5
    return_via_ris: complex = 0.5

    @classmethod
    def random(cls, seed, direct_mag: float = 1.0, ris_mag: float = 0.5) -> "PathCoefficients":
        """Coefficients with fixed magnitudes and seeded uniform phases.

        Raises ValueError for a magnitude that is negative or not finite."""
        for name, mag in (("direct_mag", direct_mag), ("ris_mag", ris_mag)):
            # a NaN fails the comparison too
            if not 0.0 <= mag < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {mag!r}")
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random(4))
        return cls(
            direct=direct_mag * phases[0],
            double_bounce=ris_mag * phases[1],
            outgoing_via_ris=ris_mag * phases[2],
            return_via_ris=ris_mag * phases[3],
        )


@dataclass(frozen=True)
class SteeringSet:
    """All steering vectors and derivatives entering the radar response.

    ``*_target`` vectors point at the target angle, ``*_ris`` at the fixed
    node-to-RIS angle; ``d_*`` are derivatives with respect to the target
    angle (the RIS-angle vectors are constant in it).
    """

    bs_rx_target: np.ndarray
    bs_tx_target: np.ndarray
    bs_rx_ris: np.ndarray
    bs_tx_ris: np.ndarray
    ris_target: np.ndarray
    ris_bs: np.ndarray
    d_bs_rx_target: np.ndarray
    d_bs_tx_target: np.ndarray
    d_ris_target: np.ndarray


def steering_set(scene: Scene) -> SteeringSet:
    """Evaluate every steering vector the radar response needs."""
    d, lam = scene.spacing, scene.wavelength
    theta, omega = scene.target_angle, scene.bs_ris_angle
    n_rx, n_tx = scene.n_bs_rx, scene.n_bs_tx
    target_angles = ris_angles_of_target(scene)
    bs_angles = ris_angles_of_point(scene, scene.bs_tx_positions[0])
    return SteeringSet(
        bs_rx_target=ula_steering(theta, n_rx, d, lam),
        bs_tx_target=ula_steering(theta, n_tx, d, lam),
        bs_rx_ris=ula_steering(omega, n_rx, d, lam),
        bs_tx_ris=ula_steering(omega, n_tx, d, lam),
        ris_target=upa_steering(target_angles.elevation, target_angles.azimuth, scene),
        ris_bs=upa_steering(bs_angles.elevation, bs_angles.azimuth, scene),
        d_bs_rx_target=ula_steering_derivative(theta, n_rx, d, lam),
        d_bs_tx_target=ula_steering_derivative(theta, n_tx, d, lam),
        d_ris_target=upa_steering_derivative(scene),
    )


def _reflected(a, phi, b):
    """Scalar a^T diag(phi) b for the cascade through the surface."""
    return np.sum(a * phi * b)


def path_matrix(vectors: SteeringSet, phi: np.ndarray, coeffs: PathCoefficients) -> np.ndarray:
    """Two-way radar response summing the four target echo paths.

    Every RIS traversal contracts to a scalar through the phase profile,
    leaving an (n_bs_rx, n_bs_tx) matrix.
    """
    phi = np.asarray(phi)
    if phi.shape != vectors.ris_target.shape:
        raise ValueError("phase profile length does not match the RIS size")
    thru = _reflected(vectors.ris_bs, phi, vectors.ris_target)
    direct = coeffs.direct * np.outer(vectors.bs_rx_target, vectors.bs_tx_target)
    double = (
        coeffs.double_bounce
        * thru
        * thru
        * np.outer(vectors.bs_rx_ris, vectors.bs_tx_ris)
    )
    outgoing = (
        coeffs.outgoing_via_ris * thru * np.outer(vectors.bs_rx_target, vectors.bs_tx_ris)
    )
    returning = coeffs.return_via_ris * thru * np.outer(vectors.bs_rx_ris, vectors.bs_tx_target)
    return direct + double + outgoing + returning


def path_matrix_derivative(vectors: SteeringSet, phi: np.ndarray, coeffs: PathCoefficients) -> np.ndarray:
    """d/dtheta of :func:`path_matrix`: the eight-term product-rule expansion."""
    phi = np.asarray(phi)
    if phi.shape != vectors.ris_target.shape:
        raise ValueError("phase profile length does not match the RIS size")
    thru = _reflected(vectors.ris_bs, phi, vectors.ris_target)
    d_thru = _reflected(vectors.ris_bs, phi, vectors.d_ris_target)
    out = coeffs.direct * (
        np.outer(vectors.d_bs_rx_target, vectors.bs_tx_target)
        + np.outer(vectors.bs_rx_target, vectors.d_bs_tx_target)
    )
    out += (
        coeffs.double_bounce
        * 2.0
        * thru
        * d_thru
        * np.outer(vectors.bs_rx_ris, vectors.bs_tx_ris)
    )
    out += coeffs.outgoing_via_ris * (
        thru * np.outer(vectors.d_bs_rx_target, vectors.bs_tx_ris)
        + d_thru * np.outer(vectors.bs_rx_target, vectors.bs_tx_ris)
    )
    out += coeffs.return_via_ris * (
        d_thru * np.outer(vectors.bs_rx_ris, vectors.bs_tx_target)
        + thru * np.outer(vectors.bs_rx_ris, vectors.d_bs_tx_target)
    )
    return out


@dataclass(frozen=True)
class SensingContext:
    """Radar-side quantities for one scene/phase/coefficient configuration."""

    path_response: np.ndarray
    path_response_deriv: np.ndarray
    noise_cov: np.ndarray


def build_sensing_context(
    scene: Scene,
    phi: np.ndarray,
    coeffs: PathCoefficients,
    noise_radar: float,
) -> SensingContext:
    """Radar response, its derivative, and the noise covariance."""
    vectors = steering_set(scene)
    return SensingContext(
        path_response=path_matrix(vectors, phi, coeffs),
        path_response_deriv=path_matrix_derivative(vectors, phi, coeffs),
        noise_cov=noise_radar * np.eye(scene.n_bs_rx),
    )
