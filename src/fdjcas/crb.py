"""Cramer-Rao bound on the target angle for a given precoder, accounting for
every echo path through the radar response derivative."""

from __future__ import annotations

import math

import numpy as np


class UnobservableError(ValueError):
    """The configuration carries no information about the target angle."""


def fisher_information(precoder, path_response_deriv, noise_cov):
    """Per-snapshot Fisher information about the target angle.

    Parameters
    ----------
    precoder : (n_bs_tx, n_streams) complex matrix.
    path_response_deriv : (n_bs_rx, n_bs_tx) derivative of the radar
        response with respect to the target angle.
    noise_cov : (n_bs_rx, n_bs_rx) Hermitian positive-definite radar noise
        covariance.

    Returns
    -------
    2 * Tr(V^H D^H Sigma^-1 D V) with D the response derivative: a float,
    or one value per design for a stack along leading axes.
    """
    dv = np.asarray(path_response_deriv) @ np.asarray(precoder)
    whitened = np.linalg.solve(np.asarray(noise_cov), dv)
    info = 2.0 * np.sum(np.real(np.conj(dv) * whitened), axis=(-2, -1))
    return float(info) if info.ndim == 0 else info


def fisher_core(path_response_deriv, noise_cov) -> np.ndarray:
    """Hermitian matrix F = D^H Sigma^-1 D; a precoder V carries Fisher
    information 2 Re Tr(V^H F V)."""
    deriv = np.asarray(path_response_deriv)
    core = np.swapaxes(deriv.conj(), -1, -2) @ np.linalg.solve(np.asarray(noise_cov), deriv)
    return 0.5 * (core + np.swapaxes(core.conj(), -1, -2))


def aoa_crb(precoder, path_response_deriv, noise_cov, snapshots: int = 1):
    """Lower bound on the variance of any unbiased target-angle estimator.

    The single-snapshot bound is the reciprocal of the Fisher information;
    ``snapshots`` coherent looks divide it.  Raises UnobservableError when
    the Fisher information vanishes rather than returning infinity, so
    constraint logic never compares against non-finite values.  For a
    stack of designs along leading axes it returns one bound per design,
    NaN where the information vanishes, instead of raising.
    """
    # a bool is an int; a float such as 1.5 or NaN is not
    if isinstance(snapshots, bool) or not isinstance(snapshots, (int, np.integer)) or snapshots < 1:
        raise ValueError(f"snapshots must be a positive integer, got {snapshots!r}")
    fisher = fisher_information(precoder, path_response_deriv, noise_cov)
    if np.ndim(fisher):
        return np.array([1.0 / (snapshots * x) if 0.0 < x < math.inf else math.nan for x in fisher.tolist()])
    if not 0.0 < fisher < math.inf:
        raise UnobservableError(
            "zero Fisher information: the precoder excites no angle-dependent response"
        )
    return 1.0 / (snapshots * fisher)
