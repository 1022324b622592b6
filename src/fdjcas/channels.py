"""Propagation matrix synthesis: spherical-wavefront near-field links for
everything around the co-located node and the RIS, rank-one far-field links
toward the downlink user, and the stochastic non-LoS self-interference
residual."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Scene, pairwise_distances, ris_angles_of_point, ula_angle_of
from .steering import ula_steering, upa_steering

_MATRIX_FIELDS = (
    "bs_to_user",
    "ris_to_user",
    "bs_to_ris",
    "ris_to_bs",
    "si_los",
    "si_nlos",
)


@dataclass(frozen=True)
class ChannelSet:
    """All propagation matrices of one scenario realization.

    Shapes: ``bs_to_user`` (n_user, n_bs_tx), ``ris_to_user`` (n_user,
    n_ris), ``bs_to_ris`` (n_ris, n_bs_tx), ``ris_to_bs`` (n_bs_rx, n_ris),
    ``si_los``/``si_nlos`` (n_bs_rx, n_bs_tx).  ``noise_user`` and
    ``noise_radar`` are the receiver noise variances in watts.
    """

    bs_to_user: np.ndarray
    ris_to_user: np.ndarray
    bs_to_ris: np.ndarray
    ris_to_bs: np.ndarray
    si_los: np.ndarray
    si_nlos: np.ndarray
    noise_user: float = 1.0
    noise_radar: float = 1.0

    def __post_init__(self):
        for name in _MATRIX_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        n_user, n_tx = self.bs_to_user.shape
        n_ris = self.ris_to_user.shape[1]
        n_rx = self.ris_to_bs.shape[0]
        if self.bs_to_ris.shape != (n_ris, n_tx):
            raise ValueError("bs_to_ris shape inconsistent with the other links")
        if self.ris_to_bs.shape != (n_rx, n_ris):
            raise ValueError("ris_to_bs shape inconsistent with the other links")
        if self.si_los.shape != (n_rx, n_tx) or self.si_nlos.shape != (n_rx, n_tx):
            raise ValueError("self-interference shapes inconsistent with the arrays")
        # zero radar noise is allowed for noiseless snapshot studies; the
        # user-side noise divides receiver expressions and must stay positive
        if not (0.0 < self.noise_user < np.inf and 0.0 <= self.noise_radar < np.inf):
            raise ValueError("noise variances must be finite and positive (radar may be zero)")

    @property
    def n_user(self) -> int:
        return self.bs_to_user.shape[0]

    @property
    def n_bs_tx(self) -> int:
        return self.bs_to_user.shape[1]

    @property
    def n_bs_rx(self) -> int:
        return self.ris_to_bs.shape[0]

    @property
    def n_ris(self) -> int:
        return self.ris_to_bs.shape[1]


def nearfield_los(tx_positions, rx_positions, wavelength: float) -> np.ndarray:
    """Deterministic spherical-wavefront channel between two nearby arrays.

    Entry (m, n) decays as 1/distance with phase -2*pi*distance/wavelength;
    the common amplitude is fixed so the squared Frobenius norm equals the
    number of entries.
    """
    dist = pairwise_distances(tx_positions, rx_positions)
    raw = np.exp(-2j * np.pi * dist / wavelength) / dist
    rho = np.sqrt(dist.size / np.sum(np.abs(raw) ** 2))
    return rho * raw


def farfield_los(rx_steering, tx_steering) -> np.ndarray:
    """Rank-one far-field channel a_rx * a_tx^T for unit-norm steering vectors."""
    return np.outer(np.asarray(rx_steering), np.asarray(tx_steering))


def build_channel_set(
    scene: Scene,
    n_user_antennas: int = 5,
    nlos_si_power: float = 0.01,
    seed=0,
    noise_user: float = 1.0,
    noise_radar: float = 1.0,
) -> ChannelSet:
    """Synthesize every link of the scenario.

    Near-field spherical-wavefront models cover the transmit-receive
    self-interference and both RIS legs; the user links are rank-one
    far-field channels at the geometric angles (the user carries a z-axis
    ULA).  The non-LoS self-interference residual has i.i.d. circular
    Gaussian entries scaled so its expected squared Frobenius norm is
    ``nlos_si_power`` times the entry count; generation is fully seeded.
    """
    d, lam = scene.spacing, scene.wavelength
    si_los = nearfield_los(scene.bs_tx_positions, scene.bs_rx_positions, lam)
    bs_to_ris = nearfield_los(scene.bs_tx_positions, scene.ris_positions, lam)
    ris_to_bs = nearfield_los(scene.ris_positions, scene.bs_rx_positions, lam)

    to_user = scene.user_position - scene.bs_tx_positions[0]
    a_bs = ula_steering(ula_angle_of(to_user), scene.n_bs_tx, d, lam)
    a_user = ula_steering(ula_angle_of(-to_user), n_user_antennas, d, lam)
    bs_to_user = farfield_los(a_user, a_bs)

    ris_to_user_vec = scene.user_position - scene.ris_positions[0]
    user_angles = ris_angles_of_point(scene, scene.user_position)
    a_ris = upa_steering(user_angles.elevation, user_angles.azimuth, scene)
    a_user_ris = ula_steering(ula_angle_of(-ris_to_user_vec), n_user_antennas, d, lam)
    ris_to_user = farfield_los(a_user_ris, a_ris)

    return ChannelSet(
        bs_to_user=bs_to_user,
        ris_to_user=ris_to_user,
        bs_to_ris=bs_to_ris,
        ris_to_bs=ris_to_bs,
        si_los=si_los,
        si_nlos=nlos_residual((scene.n_bs_rx, scene.n_bs_tx), nlos_si_power, seed),
        noise_user=noise_user,
        noise_radar=noise_radar,
    )


def nlos_residual(shape, nlos_si_power: float, seed) -> np.ndarray:
    """The non-LoS self-interference residual of :func:`build_channel_set`:
    i.i.d. circular Gaussian entries of variance ``nlos_si_power`` drawn
    from ``seed``, or exact zeros (and no draw) at zero power."""
    if nlos_si_power == 0.0:
        return np.zeros(shape, dtype=complex)
    rng = np.random.default_rng(seed)
    return np.sqrt(nlos_si_power / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
