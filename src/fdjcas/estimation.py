"""Subspace-based angle estimation over simulated radar snapshots."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .geometry import Scene, _check_length
from .steering import PathCoefficients, build_sensing_context


class CovarianceRankError(RuntimeError):
    """Sample covariance too rank-deficient for the requested subspace."""


@dataclass(frozen=True)
class SnapshotBatch:
    """Radar receive samples for one coherent processing interval.

    ``samples`` is (n_bs_rx, snapshots), or (trials, n_bs_rx, snapshots)
    for a stack of trials; ``spacing`` and ``wavelength`` describe the
    receive array so the batch is self-contained for estimation.  Raises
    ValueError for a spacing or wavelength that is not finite and
    positive, or for non-finite samples.
    """

    samples: np.ndarray
    spacing: float
    wavelength: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        for name in ("spacing", "wavelength"):
            _check_length(name, getattr(self, name))
        if not np.isfinite(self.samples).all():
            raise ValueError("samples has non-finite entries")


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
    noise, from ``default_rng(seed)``.  The batches' samples are the rows
    of one (len(seeds), n_bs_rx, snapshots) array, their common ``base``.
    """
    # a bool is an int; a float such as 1.5 or NaN is not
    if isinstance(snapshots, bool) or not isinstance(snapshots, (int, np.integer)) or snapshots < 1:
        raise ValueError(f"snapshots must be a positive integer, got {snapshots!r}")
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
    n_streams, n_rx = precoder.shape[1], channels.n_bs_rx
    draws = np.empty((2 * (n_streams + n_rx), snapshots))
    sym_re, sym_im, noise_re, noise_im = np.split(draws, np.cumsum([n_streams, n_streams, n_rx]))
    samples = np.empty((len(seeds), n_rx, snapshots), dtype=complex)
    for row, seed in zip(samples, seeds):
        np.random.default_rng(seed).standard_normal(out=draws)
        symbols = (sym_re + 1j * sym_im) / np.sqrt(2.0)
        noise = np.sqrt(channels.noise_radar / 2.0) * (noise_re + 1j * noise_im)
        np.add(mix @ symbols, noise, out=row)
    return [SnapshotBatch(row, scene.spacing, scene.wavelength) for row in samples]


@functools.lru_cache(maxsize=4)
def _scan_basis(n_rx: int, spacing: float, wavelength: float, grid_resolution: float):
    """Read-only ``(grid, basis)`` of the MUSIC scan: the angles from -pi/2 in
    ``grid_resolution`` steps, and the rows ``cos(l psi)`` for lags 0 .. n_rx-1,
    then ``sin(-l psi)`` for lags 1 .. n_rx-1, with ``psi = 2 pi spacing sin(angle) / wavelength``."""
    n_points = int(np.floor(np.pi / grid_resolution)) + 1
    grid = -np.pi / 2 + grid_resolution * np.arange(n_points)
    basis = np.outer(np.r_[0:n_rx, -1:-n_rx:-1], (2.0 * np.pi * spacing / wavelength) * np.sin(grid))
    np.cos(basis[:n_rx], out=basis[:n_rx])
    np.sin(basis[n_rx:], out=basis[n_rx:])
    grid.flags.writeable = False
    basis.flags.writeable = False
    return grid, basis


def _null_polynomial(noise_basis):
    """Coefficients over the :func:`_scan_basis` rows of the null spectrum ``a^H P a``
    of each noise basis ``E`` in a (trials, n_rx, dim) stack, ``a`` the unit-norm steering
    vector: the root-MUSIC polynomial of the superdiagonal sums of ``P = E E^H``."""
    n_rx = noise_basis.shape[1]
    projector = noise_basis @ noise_basis.conj().transpose(0, 2, 1)
    lags = np.stack([np.trace(projector, offset=l, axis1=1, axis2=2) for l in range(n_rx)], axis=1)
    return np.concatenate([lags[:, :1].real, 2.0 * lags[:, 1:].real, 2.0 * lags[:, 1:].imag], axis=1) / n_rx


def music_estimate(
    batch: SnapshotBatch,
    signal_subspace_dim: int,
    grid_resolution: float = 1e-3,
) -> float | list[float]:
    """MUSIC angle estimate (radians) from the batch's sample covariance.

    The noise subspace is the span of the smallest eigenvectors after
    removing ``signal_subspace_dim`` dominant ones; the estimate is the
    grid angle minimizing the null spectrum of :func:`_null_polynomial`.
    A stack of trials returns the list of their estimates.  Raises
    ValueError for a ``grid_resolution`` that is not finite and positive,
    and for a ``signal_subspace_dim`` that is not an integer in (0, n_bs_rx).
    """
    if not 0.0 < grid_resolution < math.inf:
        raise ValueError(f"grid_resolution must be finite and positive, got {grid_resolution!r}")
    if batch.samples.ndim not in (2, 3):
        raise ValueError("samples must be (n_bs_rx, snapshots) or (trials, n_bs_rx, snapshots)")
    n_rx, snapshots = batch.samples.shape[-2:]
    dim = signal_subspace_dim
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or not 0 < dim < n_rx:
        raise ValueError(f"signal_subspace_dim must be an integer in (0, n_bs_rx = {n_rx}), got {dim!r}")
    stack = batch.samples.reshape(-1, n_rx, snapshots)
    cov = stack @ stack.conj().transpose(0, 2, 1) / snapshots
    evals, evecs = np.linalg.eigh(0.5 * (cov + cov.conj().transpose(0, 2, 1)))
    ranks = np.sum(evals > np.maximum(evals[:, -1:], 0.0) * 1e-10, axis=1)
    if np.any(ranks < signal_subspace_dim):
        raise CovarianceRankError(
            f"sample covariance rank {int(np.min(ranks))} below the signal subspace dimension "
            f"{signal_subspace_dim}; increase the snapshot count"
        )
    coefs = _null_polynomial(evecs[:, :, : n_rx - signal_subspace_dim])
    grid, basis = _scan_basis(n_rx, batch.spacing, batch.wavelength, grid_resolution)
    # chunks of about 2^14 spectrum values (one trial at least): memory stays flat in the trials
    rows = max(1, (1 << 14) // grid.size)
    estimates = []
    for start in range(0, len(coefs), rows):
        spectrum = coefs[start : start + rows] @ basis
        np.divide(1.0, np.maximum(spectrum, 1e-300, out=spectrum), out=spectrum)
        estimates += grid[np.argmax(spectrum, axis=1)].tolist()
    return estimates if batch.samples.ndim == 3 else estimates[0]
