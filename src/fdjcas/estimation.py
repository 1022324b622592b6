"""Subspace-based angle estimation over simulated radar snapshots."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .geometry import Scene
from .steering import PathCoefficients, build_sensing_context


class CovarianceRankError(RuntimeError):
    """Sample covariance too rank-deficient for the requested subspace."""


@dataclass(frozen=True)
class SnapshotBatch:
    """Radar receive samples for one coherent processing interval.

    ``samples`` is (n_bs_rx, snapshots); ``spacing`` and ``wavelength``
    describe the receive array so the batch is self-contained for
    estimation.
    """

    samples: np.ndarray
    spacing: float
    wavelength: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))


def simulate_snapshots(
    scene: Scene,
    channels: ChannelSet,
    precoder,
    phi,
    coeffs: PathCoefficients,
    snapshots: int,
    seeds,
    residual_factor: float = 0.1,
) -> list:
    """Draw radar receive snapshots of the echo-plus-leakage signal model,
    one ``SnapshotBatch`` per entry of ``seeds``.

    Each column is (target response + scaled self-interference) applied to
    the precoded unit-variance Gaussian symbols, plus white radar noise.
    The self-interference term is the full leakage channel (line-of-sight,
    stochastic residual, and the reflected path) scaled by
    ``residual_factor``, the fraction left by cancellation stages beyond
    the beamforming design itself: 1 keeps all of it, 0 removes it.  The
    echo model is built once; each batch draws its symbols, then its
    noise, from ``default_rng(seed)``.
    """
    if snapshots < 1:
        raise ValueError("snapshots must be at least 1")
    if not 0.0 <= residual_factor < math.inf:
        raise ValueError(f"residual_factor must be finite and >= 0, got {residual_factor!r}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one snapshot batch")
    phi = np.asarray(phi)
    precoder = np.asarray(precoder)
    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
    leak = channels.si_los + channels.si_nlos + channels.ris_to_bs @ (
        phi[:, None] * channels.bs_to_ris
    )
    mix = (ctx.path_response + residual_factor * leak) @ precoder
    n_streams = precoder.shape[1]
    batches = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        symbols = (
            rng.standard_normal((n_streams, snapshots))
            + 1j * rng.standard_normal((n_streams, snapshots))
        ) / np.sqrt(2.0)
        noise = np.sqrt(channels.noise_radar / 2.0) * (
            rng.standard_normal((channels.n_bs_rx, snapshots))
            + 1j * rng.standard_normal((channels.n_bs_rx, snapshots))
        )
        batches.append(
            SnapshotBatch(
                samples=mix @ symbols + noise,
                spacing=scene.spacing,
                wavelength=scene.wavelength,
            )
        )
    return batches


@functools.lru_cache(maxsize=4)
def _scan_steering(n_rx: int, spacing: float, wavelength: float, grid_resolution: float):
    """Read-only ``(grid, steering)`` of the MUSIC scan: the angles from
    -pi/2 in ``grid_resolution`` steps and their unit-norm receive steering
    vectors, one column per angle."""
    n_points = int(np.floor(np.pi / grid_resolution)) + 1
    grid = -np.pi / 2 + grid_resolution * np.arange(n_points)
    n = np.arange(n_rx)
    phases = (2.0 * np.pi * spacing / wavelength) * np.outer(n, np.sin(grid))
    steering = np.exp(1j * phases) / np.sqrt(n_rx)
    grid.flags.writeable = False
    steering.flags.writeable = False
    return grid, steering


def music_estimate(
    batch: SnapshotBatch,
    signal_subspace_dim: int,
    grid_resolution: float = 1e-3,
) -> float:
    """MUSIC angle estimate (radians) from the batch's sample covariance.

    The noise subspace is the span of the smallest eigenvectors after
    removing ``signal_subspace_dim`` dominant ones; the estimate is the
    grid angle maximizing the inverse noise-subspace projection of the
    receive steering vector.
    """
    n_rx, snapshots = batch.samples.shape
    if not 0 < signal_subspace_dim < n_rx:
        raise ValueError("signal subspace dimension must lie in (0, n_bs_rx)")
    cov = batch.samples @ batch.samples.conj().T / snapshots
    evals, evecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    rank = int(np.sum(evals > max(evals[-1], 0.0) * 1e-10))
    if rank < signal_subspace_dim:
        raise CovarianceRankError(
            f"sample covariance rank {rank} below the signal subspace dimension "
            f"{signal_subspace_dim}; increase the snapshot count"
        )
    noise_basis = evecs[:, : n_rx - signal_subspace_dim]
    grid, steering = _scan_steering(n_rx, batch.spacing, batch.wavelength, grid_resolution)
    projected = noise_basis.conj().T @ steering
    power = np.sum(np.abs(projected) ** 2, axis=0)
    spectrum = 1.0 / np.maximum(power, 1e-300)
    return float(grid[int(np.argmax(spectrum))])
