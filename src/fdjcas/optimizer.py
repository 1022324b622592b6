"""Alternating transceiver design: weighted-MMSE combiner/weights, the
power-constrained precoder (a Newton solve of the power multiplier) with its
angle-bound feasibility check, the water-filled precoder of the
communication-only schemes, the majorization-minimization
phase-profile solver, and the outer loop tying them together, run in
lockstep over a stack of cells.  The stages of the
outer loop take a stack of cells along a leading axis, with one noise
variance per cell shaped ``(n_cells, 1, 1)``, and give each cell the bits
it gets alone."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .channels import ChannelSet
from .crb import aoa_crb, fisher_core
from .geometry import Scene
from .steering import PathCoefficients, build_sensing_context

LN2 = math.log(2.0)
# MM phase solver: relative objective tolerance and cap on MM maps per call
RIS_TOL = 1e-5
MAX_RIS_ITER = 56
# SQUAREM backtracking stops within this distance of alpha = -1 and takes p2
SQUAREM_ALPHA_SLACK = 0.01
# outer loop: cap on rows x iterations of one window's stacked phase problems
MAX_WINDOW_ROWS = 8
# power multiplier: relative tolerance of the power match
POWER_TOL = 1e-13

RIS_OBJECTIVE_JCAS = "jcas"
RIS_OBJECTIVE_RATE = "rate"


class CrbInfeasibleError(RuntimeError):
    """The precoder update's design misses the angle-accuracy bound.

    ``achieved`` is the bound of the power-constrained precoder at zero
    sensing multiplier, which no larger multiplier improves."""

    def __init__(self, achieved: float, threshold: float, context: str = ""):
        self.achieved = achieved
        self.threshold = threshold
        self.context = context
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}CRB constraint infeasible: the zero-multiplier precoder achieves "
            f"{achieved:.6g} rad^2 against threshold {threshold:.6g} rad^2"
        )

    def __reduce__(self):
        # the default rebuilds from ``args`` (the message alone), which
        # fails, e.g. when a worker process sends the error back
        return type(self), (self.achieved, self.threshold, self.context)


@dataclass
class IterationTrace:
    """Per-iteration convergence diagnostics of the outer loop.

    ``objective`` is the interference power plus the rate-equivalent value
    of the weighted MSE term (interference minus the rate); its
    raw weighted-MSE snapshot equals the constant ``n_streams/ln 2`` at the
    tight weight, so only the rate-equivalent form is comparable across
    weight updates.
    """

    iteration: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    rate_bps_hz: list = field(default_factory=list)
    si_power: list = field(default_factory=list)
    crb: list = field(default_factory=list)
    lambda0: list = field(default_factory=list)

    def append(self, iteration, objective, rate, si_power, crb, lambda0):
        self.iteration.append(int(iteration))
        self.objective.append(float(objective))
        self.rate_bps_hz.append(float(rate))
        self.si_power.append(float(si_power))
        self.crb.append(float(crb))
        self.lambda0.append(float(lambda0))

    def __len__(self) -> int:
        return len(self.iteration)


@dataclass(frozen=True)
class JcasConfig:
    """Algorithm options for one optimization run.

    Two switches select the scheme.  ``ris_enabled`` lets the phase
    profile move; without it the profile is held at zero, which removes
    every reflected term, and the phase solver is skipped.
    ``sensing_enabled`` is the full-duplex joint design: the
    self-interference power enters the objective and the precoder update,
    the phase step uses the ``"jcas"`` quadratic form, and the angle bound
    is tracked and, when ``crb_threshold`` is finite, constrained.
    Without it the run is the half-duplex rate-only benchmark: ``"rate"``
    phase form, no interference term, and ``crb_threshold`` is ignored.
    """

    power_budget: float = 1.0
    crb_threshold: float = math.inf
    n_streams: int = 2
    outer_tol: float = 1e-4
    max_outer: int = 100
    ris_enabled: bool = True
    sensing_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        # a NaN fails the comparison too
        if not 0.0 < self.power_budget < math.inf:
            raise ValueError("power_budget must be finite and positive")
        if not self.crb_threshold > 0.0:
            raise ValueError("crb_threshold must be positive (inf disables it)")
        if not 0.0 < self.outer_tol < math.inf:
            raise ValueError("outer_tol must be finite and positive")
        # a bool is an int; a float such as 2.5 or NaN is not
        for name, least in (("max_outer", 0), ("n_streams", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                kind = "a non-negative" if least == 0 else "a positive"
                raise ValueError(f"{name} must be {kind} integer, got {value!r}")

    @property
    def enforced_crb_threshold(self) -> float:
        """The angle bound the design must meet: ``crb_threshold`` when sensing, else ``inf``."""
        return self.crb_threshold if self.sensing_enabled else math.inf


@dataclass(frozen=True)
class JcasResult:
    precoder: np.ndarray
    ris_phase: np.ndarray
    trace: IterationTrace


def _ct(mat):
    """Conjugate transpose of the last two axes."""
    return mat.conj().swapaxes(-1, -2)


def _herm(mat):
    return 0.5 * (mat + _ct(mat))


def effective_channel(channels: ChannelSet, phi) -> np.ndarray:
    """Downlink channel combining the direct link and the reflected path."""
    phi = np.asarray(phi)
    return channels.bs_to_user + channels.ris_to_user @ (phi[..., :, None] * channels.bs_to_ris)


def si_channel(channels: ChannelSet, phi) -> np.ndarray:
    """Deterministic self-interference channel seen by the radar receiver.

    Only the line-of-sight leakage and the reflected path enter the design
    objective; the stochastic residual is simulation-only.
    """
    phi = np.asarray(phi)
    return channels.si_los + channels.ris_to_bs @ (phi[..., :, None] * channels.bs_to_ris)


def mmse_combiner(h_eff, precoder, noise_user) -> np.ndarray:
    """MSE-optimal linear receive filter for the downlink streams."""
    hv = h_eff @ precoder
    rx_cov = _herm(hv @ _ct(hv)) + noise_user * np.eye(h_eff.shape[-2])
    return _ct(np.linalg.solve(rx_cov, hv))


def mse_matrix(h_eff, precoder, noise_user) -> np.ndarray:
    """Stream error covariance under the MSE-optimal combiner.

    Hermitian with eigenvalues in (0, 1].
    """
    hv = h_eff @ precoder
    core = np.eye(precoder.shape[-1]) + _ct(hv) @ hv / noise_user
    return _herm(np.linalg.inv(_herm(core)))


def weight_matrix(mse) -> np.ndarray:
    """Stream weighting that ties MSE minimization to the rate objective."""
    return _herm((1.0 / LN2) * np.linalg.inv(mse))


def dl_rate(h_eff, precoder, noise_user):
    """Achievable downlink rate in bits/s/Hz; one per cell for a stack."""
    hv = h_eff @ precoder
    gram = _herm(np.eye(h_eff.shape[-2]) + hv @ _ct(hv) / noise_user)
    rate = np.linalg.slogdet(gram)[1] / LN2
    return float(rate) if rate.ndim == 0 else rate


def _power_multiplier(evals, row_power, power_budget) -> np.ndarray:
    """Power multiplier ``lam`` of each row, where the precoder power
    ``P(lam) = sum_i row_power_i / (evals_i + lam) ** 2`` meets the budget
    ``P``: Newton's method on the secular equation
    ``psi(lam) = P(lam) ** -0.5 - P ** -0.5`` (Hebden 1973; More and
    Sorensen 1983).

    Each row starts at ``max(0, max_i(sqrt(row_power_i / P) - evals_i))``,
    where no term exceeds the budget.  ``psi`` is concave and increasing,
    so every Newton step rises toward the root without passing it.  A row
    stops when its power matches the budget to ``POWER_TOL`` relative, or
    when its multiplier stops rising (a row whose power already fits at
    zero keeps zero).  Every row is computed on every pass and only the
    live ones move, so a row gets the bits it gets alone.
    """
    lam = np.maximum(0.0, np.max(np.sqrt(row_power / power_budget) - evals, axis=-1))
    live = np.ones(len(lam), dtype=bool)
    while live.any():
        shifted = evals + lam[:, None]
        terms = row_power / shifted**2
        power = terms.sum(axis=-1)
        moved = lam + power * (np.sqrt(power / power_budget) - 1.0) / (terms / shifted).sum(axis=-1)
        live &= (np.abs(power - power_budget) > POWER_TOL * power_budget) & (moved > lam)
        lam = np.where(live, moved, lam)
    return lam


def _solve_power_constrained(core, rhs, power_budget):
    """Minimizer of the quadratic surrogate under the transmit power cap.

    Takes a stack of problems along a leading axis and returns arrays
    (precoder, lambda0), one entry per problem.  The multiplier stays
    exactly zero when the unconstrained (min-norm) solution already fits
    the budget (complementary slackness); otherwise
    :func:`_power_multiplier` solves for it until the power matches the
    budget.  The normal equations are diagonalized once, so the power at
    any multiplier is closed-form.
    """
    # ``eigh`` reads one triangle, and ``precoder_update``'s cores are Hermitian to the bit
    evals, evecs = np.linalg.eigh(core)
    rotated = _ct(evecs) @ rhs
    row_power = np.sum(np.abs(rotated) ** 2, axis=-1)
    total = row_power.sum(axis=-1)
    kept = evals > np.maximum(evals[:, -1:], 1.0) * 1e-12
    null_power = np.where(kept, 0.0, row_power).sum(axis=-1)
    precoder = evecs @ (np.where(kept, 1.0, 0.0)[..., None] * rotated / np.where(kept, evals, 1.0)[..., None])
    fit = np.sum(np.abs(precoder) ** 2, axis=(-2, -1))
    zero = total == 0.0
    binding = ~(zero | ((null_power <= 1e-16 * total) & (fit <= power_budget)))
    # a zero right-hand side gives the zero precoder; a slack row keeps the min-norm one
    precoder[zero] = 0.0
    lam = np.zeros(len(core))
    if binding.any():
        # a direction without power drops out of every sum, whatever its eigenvalue
        binding_evals = np.where(row_power[binding] > 0.0, evals[binding], math.inf)
        lam[binding] = found = _power_multiplier(binding_evals, row_power[binding], power_budget)
        precoder[binding] = evecs[binding] @ (rotated[binding] / (binding_evals + found[:, None])[..., None])
    return precoder, lam


def waterfill_precoder(h_eff, noise_user, n_streams: int, power_budget: float):
    """Rate-optimal precoder of the communication-only schemes: the
    point-to-point MIMO capacity under the power budget (Telatar 1999).

    One SVD ``h_eff = U diag(s) V^H`` per cell; the top ``n_streams``
    right singular vectors carry water-filled powers
    ``p_i = max(0, level - noise_user / s_i**2)`` summing to the budget,
    and the precoder is ``V[:, :n_streams] diag(sqrt(p))``, so its rate is
    ``sum_i log2(1 + s_i**2 p_i / noise_user)``.  A mode below the water
    level gets exactly zero power, which leaves a zero column: ``n_streams``
    is an upper bound on the streams carried, and columns beyond the
    channel's rank are zero too.  A zero channel gives the zero precoder.

    Takes a stack of channels with ``noise_user`` shaped ``(n_cells, 1, 1)``
    and returns arrays (precoder, lambda0); ``lambda0 = 1 / (ln 2 level)``
    is the multiplier of the power budget for the rate in bits/s/Hz.
    """
    if not 0.0 < power_budget < math.inf:
        raise ValueError(f"power_budget must be finite and positive, got {power_budget!r}")
    _, svals, vh = np.linalg.svd(h_eff, full_matrices=False)
    modes = min(n_streams, svals.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # the noise-to-gain floor of each mode, strongest first; inf for a zero mode
        floor = noise_user[:, :, 0] / svals[:, :modes] ** 2
        # the level with the top k + 1 modes on, and whether mode k is then above it
        levels = (power_budget + np.cumsum(floor, axis=-1)) / np.arange(1, modes + 1)
        on = np.logical_and.accumulate(levels > floor, axis=-1)
        count = on.sum(axis=-1)
        level = np.take_along_axis(levels, np.maximum(count - 1, 0)[:, None], axis=-1)
        power = np.where(on, level - floor, 0.0)
    precoder = np.zeros(h_eff.shape[:-2] + (h_eff.shape[-1], n_streams), dtype=complex)
    precoder[..., :modes] = _ct(vh[:, :modes]) * np.sqrt(power)[:, None, :]
    # a zero channel's level is inf, and its multiplier 0
    return precoder, 1.0 / (LN2 * level[:, 0])


def _bound(precoder, fisher) -> np.ndarray:
    """Single-snapshot angle bound ``1 / (2 Re tr(V^H F V))`` of each
    design of a stack, inf where the information is not finite and
    positive."""
    info = 2.0 * np.sum(np.real(np.conj(precoder) * (fisher @ precoder)), axis=(-2, -1))
    return np.array([1.0 / x if 0.0 < x < math.inf else math.inf for x in info.tolist()])


class _PhaseTerms(NamedTuple):
    """What depends on the phase profile alone.

    ``h_eff`` is the effective downlink channel, ``leak`` the SI channel
    (None without the SI term), ``fisher`` the Fisher core (None without
    the CRB constraint), and ``deriv`` and ``noise_cov`` the sensing
    context's response derivative and noise covariance (None without
    sensing).  A stack of cells carries one leading axis on every term.
    """

    h_eff: np.ndarray
    leak: np.ndarray | None
    fisher: np.ndarray | None
    deriv: np.ndarray | None
    noise_cov: np.ndarray | None


def precoder_update(combiner, weight, h_eff, leak, power_budget: float, crb_threshold: float = math.inf, fisher=None):
    """Precoder minimizing the weighted-MSE-plus-interference surrogate
    under the power budget, checked against the angle-accuracy bound when
    its threshold is finite.

    ``h_eff`` and ``leak`` are the effective downlink channel and the SI
    channel at the phase profile (:func:`effective_channel`,
    :func:`si_channel`), and ``fisher`` the Fisher core of the angle bound
    there (:func:`fdjcas.crb.fisher_core`), which a finite threshold
    requires.

    The stationary solution is a regularized normal-equations solve whose
    power multiplier is found by Newton's method (zero when slack).  The sensing
    multiplier ``mu`` stays zero: entering the core as ``gram + 2 mu F``,
    it would penalize the Fisher information ``g(V) = tr(V^H F V)``.  If
    ``V_mu`` minimizes the surrogate plus ``2 mu g`` over the power ball,
    adding the optimality inequalities of ``mu > nu`` gives
    ``(mu - nu) (g(V_mu) - g(V_nu)) <= 0``, and the bound ``1 / (2 g)``
    never falls as ``mu`` grows.  A design whose bound exceeds the
    threshold at zero multiplier is therefore infeasible, and
    CrbInfeasibleError reports that bound as ``achieved``.

    A stack of cells (a leading axis on every array) is solved in one
    call, each cell bit for bit as alone, and returns arrays.  A stacked
    cell whose bound is infeasible does not raise: its ``mu`` is inf and
    its precoder is the zero-multiplier one.

    Returns (precoder, lambda0, mu).
    """
    if not 0.0 < power_budget < math.inf:
        raise ValueError(f"power_budget must be finite and positive, got {power_budget!r}")
    constrain = math.isfinite(crb_threshold)
    if constrain and fisher is None:
        raise ValueError("a finite CRB threshold requires the Fisher core")
    single = np.ndim(combiner) == 2
    if single:
        combiner, weight, h_eff, leak = combiner[None], weight[None], h_eff[None], leak[None]
        fisher = None if fisher is None else fisher[None]
    rhs = _ct(h_eff) @ _ct(combiner) @ weight
    fh = combiner @ h_eff
    gram = _herm(_ct(fh) @ weight @ fh + _ct(leak) @ leak)

    precoder, lam = _solve_power_constrained(gram, rhs, power_budget)
    mu = np.zeros(len(gram))
    if constrain:
        bound = _bound(precoder, fisher)
        mu[bound > crb_threshold] = math.inf
    if not single:
        return precoder, lam, mu
    if mu[0] == math.inf:
        raise CrbInfeasibleError(float(bound[0]), crb_threshold)
    return precoder[0], float(lam[0]), float(mu[0])


def ris_quadratics(precoder, combiner, weight, channels: ChannelSet, objective: str = RIS_OBJECTIVE_JCAS):
    """Phase-profile objective p^H M p + 2 Re(d^T p) as one least-squares
    residual, returned as (F, d) with ``M = F F^H``.

    Both forms are ``||F^H p + c||^2`` up to a constant.  With
    ``u = bs_to_ris @ precoder``, ``W = R R^H`` (eigenvalues clipped at
    zero, so a zero weight is allowed),
    ``X = (combiner @ ris_to_user)^H R`` and
    ``c = R^H (combiner @ bs_to_user @ precoder)``, column (k, l) of ``F``
    is ``X[:, k] * conj(u[:, l])``.  The ``"jcas"`` form (interference
    power plus weighted through-combiner signal power) appends
    ``ris_to_bs^H`` to ``X`` and ``si_los @ precoder`` to ``c``; the
    ``"rate"`` form (the weighted-MSE restriction of the
    communications-only benchmark) uses ``c - R^H`` instead.  So
    ``d = conj(F c)``.  ``F`` has one row per surface element and
    ``n_streams * (n_streams + n_bs_rx)`` (``"jcas"``) or ``n_streams**2``
    (``"rate"``) columns; the surface-sized ``M`` is never formed.  A stack
    of cells gives one ``F`` and one ``d`` per cell along a leading axis,
    from channels stacked alike or from 2-D ones that every cell shares.
    """
    if objective not in (RIS_OBJECTIVE_JCAS, RIS_OBJECTIVE_RATE):
        raise ValueError(f"unknown ris objective {objective!r}")
    evals, evecs = np.linalg.eigh(_herm(weight))
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    x = _ct(combiner @ channels.ris_to_user) @ root
    c = _ct(root) @ (combiner @ channels.bs_to_user @ precoder)
    if objective == RIS_OBJECTIVE_JCAS:
        ris_to_bs_h = _ct(channels.ris_to_bs)
        x = np.concatenate([x, np.broadcast_to(ris_to_bs_h, x.shape[:-1] + ris_to_bs_h.shape[-1:])], axis=-1)
        c = np.concatenate([c, channels.si_los @ precoder], axis=-2)
    else:
        c = c - _ct(root)
    u = channels.bs_to_ris @ precoder
    factor = (x[..., :, :, None] * u.conj()[..., :, None, :]).reshape(u.shape[:-1] + (-1,))
    return factor, np.conj((factor @ c.reshape(c.shape[:-2] + (-1, 1)))[..., 0])


def ris_objective_value(phi, factor, linear) -> float:
    """Value of the phase objective p^H M p + 2 Re(d^T p), ``M = F F^H``:
    the first value :func:`ris_optimize` returns."""
    return float(ris_optimize(phi, factor, linear, max_iter=0)[1][0])


def mm_step(phi, factor, linear) -> np.ndarray:
    """One majorization-minimization step of :func:`ris_optimize` on the
    unit-modulus constraint set for ``M = F F^H``."""
    return ris_optimize(phi, factor, linear, max_iter=1)[0]


def ris_optimize(phi0, factor, linear, tol: float = RIS_TOL, max_iter: int = MAX_RIS_ITER):
    """Majorization-minimization of ``p^H F F^H p + 2 Re(d^T p)`` over
    unit-modulus ``p``, accelerated by SQUAREM and stepped until the
    objective change of one MM map is small.

    Returns (phase profile, array of objective values including the start).
    The stopping rule is relative; it falls back to an absolute comparison
    when the current value is exactly zero.  ``factor`` is ``F``, n x k with
    one row per element, and ``linear`` is ``d``: the two values of
    :func:`ris_quadratics`.  Each MM map sets ``q = lam p - M p - conj(d)``,
    with ``lam`` the top eigenvalue of ``M = F F^H`` taken from the k x k
    Gram ``F^H F``, and then ``p = q/|q|``; an element whose ``q`` is
    exactly zero keeps its phase (tie break).

    SQUAREM (Varadhan and Roland 2008; on the unit circle, Song, Babu and
    Palomar 2015) runs in cycles of two maps ``p0 -> p1 -> p2``.  With
    ``r = p1 - p0`` and ``v = p2 - 2 p1 + p0``, the S3 step length
    ``alpha = -|r|/|v|``, clamped to at most -1, gives the point
    ``p0 - 2 alpha r + alpha**2 v``, projected back by ``x/|x|``.  While
    its value exceeds that of ``p2``, ``alpha`` halves toward -1
    (``alpha <- (alpha - 1)/2``); within ``SQUAREM_ALPHA_SLACK`` of -1,
    which gives ``p2`` itself, the cycle takes ``p2``.  The kept point
    starts the next cycle.  The stopping rule is tested after every map,
    against the value of the point the map started from; ``max_iter``
    caps the maps, and the values hold the start and one value per map,
    so they never rise.  A run that stops within two maps is plain MM,
    bit for bit.

    A stack of problems, ``phi0`` (rows, n), ``factor`` (rows, n, k) and
    ``linear`` (rows, n), returns the (rows, n) phases and a list of one
    value array per row; each row stops on its own and gets the bits of
    its 2-D call, which is a one-row stack.  The checks, the Grams and
    their eigenvalues, and the map buffers below are made once for the
    stack, and its rows are stepped together (:func:`_mm_steps`): one map,
    one SQUAREM cycle and one backtrack serve every row still running.

    The n x n ``M`` is never formed.  Each map makes two products: ``[F^H;
    2 d^T] p`` gives ``y = F^H p`` and ``2 d^T p``, whose ``vdot`` with
    ``[y; 1]`` is the objective value, and ``[F | conj(d)] / lam`` times
    ``[y; 1]`` gives ``z``, so that ``p - z`` is the MM direction over
    ``lam``, which leaves ``q/|q|`` unchanged.  At ``lam = 0`` (then
    ``F = 0``), or where the scaling overflows (a subnormal ``lam`` or a
    huge ``d``), the second product stays unscaled and ``q = lam p - z``.
    An extrapolated point costs one product, for its value.  The maps run
    in preallocated buffers, and the phase returned is an array of its
    own; ``phi0`` is not modified.  Raises ValueError for a non-positive
    ``tol``, a ``max_iter`` that is not a non-negative integer, a factor
    that is neither 2-D nor a 3-D stack or has no column, mismatched
    lengths, or non-finite inputs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    factor = np.asarray(factor, dtype=complex)
    linear = np.asarray(linear, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)
    if factor.ndim not in (2, 3) or factor.shape[-1] == 0:
        raise ValueError(f"factor must be 2-D, or a 3-D stack, with at least one column, got shape {factor.shape}")
    n, k = factor.shape[-2:]
    if phi0.shape != factor.shape[:-1] or linear.shape != factor.shape[:-1]:
        raise ValueError(
            f"phi0 {phi0.shape} and linear {linear.shape} must both have shape {factor.shape[:-1]} "
            "to match the rows of factor"
        )
    for name, arr in (("factor", factor), ("phi0", phi0), ("linear", linear)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    single = factor.ndim == 2
    if single:
        phi0, factor, linear = phi0[None], factor[None], linear[None]
    lams = np.linalg.eigvalsh(_herm(_ct(factor) @ factor))[:, -1]
    lead = np.empty((len(factor), k + 1, n), dtype=complex)
    np.conjugate(factor.swapaxes(-1, -2), out=lead[:, :k])
    np.add(linear, linear, out=lead[:, k])
    back = np.concatenate((factor, np.conj(linear)[..., None]), axis=-1)
    # A zero direction turns q/|q| into 0/0; the NaN it leaves in the
    # objective sends that step through the tie break instead.  A zero or
    # subnormal lam makes the scaled buffer non-finite, which selects the
    # unscaled branch.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(back, (1.0 / lams)[:, None, None], out=back)
        unscaled = ~((lams > 0.0) & np.isfinite(back).all(axis=(1, 2)))
        if unscaled.any():
            back[unscaled] = np.concatenate((factor[unscaled], np.conj(linear[unscaled])[..., None]), axis=-1)
        phases, runs = _mm_steps(phi0, lead, back, lams, unscaled, tol, max_iter)
    if single:
        return phases[0], runs[0]
    return phases, runs


def _mm_steps(phi0, lead, back, lams, unscaled, tol, max_iter):
    """The SQUAREM-accelerated MM maps of :func:`ris_optimize`, every row
    of the stack stepped together.  Row ``i`` has ``lead[i]`` = ``[F^H;
    2 d^T]`` and ``back[i]`` = ``[F | conj(d)] / lam``, or, where
    ``unscaled[i]``, ``[F | conj(d)]`` itself with ``lam = lams[i]``.
    Runs under the caller's ``np.errstate``; returns (phases, one value
    array per row).

    Each product is one stacked ``matmul``, which gives every row the bits
    of its own ``ndarray.dot`` (on a one-element surface ``matmul`` skips
    BLAS, so the lead product runs ``dot`` row by row), and each
    element-wise step is exact per element, so a row does not depend on
    its stack-mates.  The running rows have all taken the same number of
    maps, so one map and one SQUAREM cycle serve them all; masks carry
    each row's stop test, tie break, branch, step length and backtrack.
    A stopped row stays in the buffers, stepped but unread, until the last
    row stops."""
    rows, n = phi0.shape
    k = lead.shape[1] - 1
    matmul, copyto, subtract, multiply, add, absolute, divide, count, less, less_equal, logical_and = (
        np.matmul, np.copyto, np.subtract, np.multiply, np.add, np.absolute, np.divide, np.count_nonzero,
        np.less, np.less_equal, np.logical_and,
    )
    # p0 starts a cycle, p1 and p2 are its maps and ``ext`` its extrapolated
    # point; r and v are the cycle's first and second differences, and
    # ``terms`` the extrapolation's -2 alpha r and alpha**2 v.  ``head`` =
    # [y; s] of the latest phase evaluated and ``tail`` = [y; 1] of the
    # latest kept one: the value is the dot of their real views.  |q| goes
    # into the real part of the complex ``mag``, so q/mag needs no cast.
    points = np.empty((10, rows, n), dtype=complex)
    p0, p1, p2, ext, z, q, r, v = points[:8]
    diffs, terms = points[6:8], points[8:]
    copyto(p0, phi0)
    mag = np.zeros((rows, n), dtype=complex)
    head, tail, ext_head, ext_tail = np.ones((4, rows, k + 1), dtype=complex)
    mag_real = mag.real
    # ``history[j]`` holds every row's value after map j; ``moved`` the
    # extrapolated points' values and ``value`` those of the cycle starts;
    # the stop test's value change and bound go into ``change`` and its
    # verdict into ``stalled``
    history, moved = np.empty((max_iter + 1, rows)), np.empty(rows)
    change = np.empty((2, rows))
    delta, bound = change
    stalled = np.empty(rows, dtype=bool)
    # the differences' squared norms; ``alpha`` is the second row of
    # ``factors``, so that one product of the two gives both step
    # coefficients, which go into the real parts of ``coefs``
    squares, factors = np.empty((2, rows, 1, 1)), np.full((2, rows), -2.0)
    coefs = np.zeros((2, rows, 1), dtype=complex)
    coefs_real = coefs.real[..., 0]
    diff_rows, diff_columns = diffs.view(float)[..., None, :], diffs.view(float)[..., None]
    rr, vv, alpha = squares[0, :, 0, 0], squares[1, :, 0, 0], factors[1]
    trying, better = np.zeros((2, rows), dtype=bool)
    # the backtrack's numbers as 0-d arrays, which ufuncs take faster than floats
    one, half, clamp = np.array(1.0), np.array(0.5), np.array(-1.0 - SQUAREM_ALPHA_SLACK)
    lam = lams.astype(complex)[:, None]
    branch = unscaled[:, None] if count(unscaled) else None
    active = np.ones(rows, dtype=bool)
    phases, runs = phi0.copy(), [None] * rows

    def products(head, tail):
        # the views ``evaluate`` writes and reads for one (head, tail) pair
        return head, head[..., None], tail[:, :k], head[:, :k], tail.view(float)[:, None, :], head.view(float)[..., None]

    kept_views, ext_views = products(head, tail), products(ext_head, ext_tail)

    def evaluate(x, views, out):
        head, head_column, tail_y, head_y, tail_row, head_column_real = views
        if n > 1:
            matmul(lead, x[..., None], out=head_column)
        else:
            for row in range(rows):
                lead[row].dot(x[row], head[row])
        copyto(tail_y, head_y)
        matmul(tail_row, head_column_real, out=out[:, None, None])
        return out

    tail_column, z_column = tail[..., None], z[..., None]

    def mm_map(p, x, out):
        # x = MM(p), given ``tail`` of p; leaves ``tail`` of x
        matmul(back, tail_column, out=z_column)
        subtract(p, z, q)
        if branch is not None:
            multiply(lam, p, q, where=branch)
            subtract(q, z, q, where=branch)
        absolute(q, mag_real)
        divide(q, mag, x)
        value = evaluate(x, kept_views, out)
        # a NaN value sends its row's step through the tie break
        if math.isnan(value.dot(value)):
            tie = active & (value != value)
            if count(tie):
                copyto(x, p, where=tie[:, None] & ~(mag_real > 0.0))
                evaluate(x, kept_views, out)
        return value

    def stopping(value, previous):
        # the stop rule per running row: the value changed by at most
        # ``tol`` relative (|tol value| is tol |value|), or absolute at a
        # zero value
        subtract(value, previous, delta)
        multiply(value, tol, bound)
        absolute(change, change)
        less_equal(delta, bound, stalled)
        if count(value) < rows:
            copyto(stalled, delta <= tol, where=value == 0.0)
        return logical_and(stalled, active, stalled)

    value = evaluate(p0, kept_views, history[0]).copy()
    if max_iter == 0:
        return phases, list(history.T.copy())
    maps = 0
    while True:
        for p, x in ((p0, p1), (p1, p2)):
            previous, value = value, mm_map(p, x, history[maps + 1])
            maps += 1
            stop = active if maps == max_iter else stopping(value, previous)
            if count(stop):
                for row in np.flatnonzero(stop).tolist():
                    phases[row], runs[row] = x[row], history[: maps + 1, row].copy()
                active = active & ~stop
                if not count(active):
                    return phases, runs
        # S3 step length, then backtrack toward alpha = -1, which is p2
        # itself; a ratio at most 1 clamps to -1, and so does an infinite
        # one.  ``trying`` is all False here, so its rows outside ``active``
        # stay so.  A kept extrapolated point goes into p2, which starts the
        # next cycle.
        subtract(p1, p0, r)
        subtract(p2, p1, v)
        subtract(v, r, v)
        matmul(diff_rows, diff_columns, out=squares)
        np.negative(np.sqrt(divide(rr, vv, alpha), alpha), alpha)
        less(alpha, clamp, out=trying, where=active)
        np.greater(alpha, -math.inf, out=trying, where=trying)
        value = value.copy()
        while count(trying):
            multiply(alpha, factors, coefs_real)
            multiply(diffs, coefs, terms)
            add(terms[0], p0, ext)
            add(ext, terms[1], ext)
            absolute(ext, mag_real)
            divide(ext, mag, ext)
            logical_and(less_equal(evaluate(ext, ext_views, moved), value, better), trying, better)
            if count(better):
                column = better[:, None]
                copyto(p2, ext, where=column)
                copyto(tail, ext_tail, where=column)
                copyto(value, moved, where=better)
                trying ^= better
            multiply(subtract(alpha, one), half, alpha)
            logical_and(trying, less(alpha, clamp), out=trying)
        p0, p2 = p2, p0


def dominant_precoder(h_eff, n_streams: int, power_budget: float) -> np.ndarray:
    """Power-normalized dominant eigenvectors of the channel covariance;
    the initialization point of the alternating design."""
    if not 0 < n_streams <= h_eff.shape[-1]:
        raise ValueError(f"n_streams {n_streams} must lie in [1, n_tx = {h_eff.shape[-1]}]")
    if not 0.0 < power_budget < math.inf:
        raise ValueError(f"power_budget must be finite and positive, got {power_budget!r}")
    cov = _herm(_ct(h_eff) @ h_eff)
    _, evecs = np.linalg.eigh(cov)
    top = evecs[..., -n_streams:][..., ::-1]
    return np.sqrt(power_budget / n_streams) * top


# the channel matrices the design reads, which the cells of a batch share
_LINK_NAMES = ("bs_to_user", "ris_to_user", "bs_to_ris", "ris_to_bs", "si_los")


class _Stage(NamedTuple):
    """One outer iteration of :meth:`_Lockstep._chain` for every row of the
    stack: its precoder stage, and the merit terms ``evaluated`` of its
    precoder at the phases held (None at an infeasible bound)."""

    combiner: np.ndarray | None
    weight: np.ndarray | None
    precoder: np.ndarray
    lam0: np.ndarray
    mu: np.ndarray
    evaluated: tuple | None


class _Lockstep:
    """The alternating design of a stack of cells, advanced one window of
    outer iterations per :meth:`step`.

    Every array of the state holds the cells still running along its
    leading axis, and ``cells`` maps each row to the cell's position in
    the batch.  A cell moves to a new phase through :meth:`_move`, with
    what :meth:`_stage` built there, and leaves the stack through
    :meth:`_finish` when its merit stalls, when its angle bound is
    infeasible (its outcome is then the error), or at ``max_outer``;
    ``outcomes`` holds what each cell ended with.  The stacked stages give
    every cell the bits it gets alone, so a cell's result does not depend
    on its batch-mates.  The phase solver gets every (row, iteration)
    problem of a window in one call and steps its rows together; a window
    gives the bits of its iterations run one at a time.  A
    communication-only row with the surface also runs SQUAREM over the
    phase it holds (:meth:`_cycle`); ``anchor``, ``middle`` and
    ``halfway`` hold each such row's cycle.
    """

    def __init__(self, cells):
        cells = list(cells)
        if len({replace(config, seed=0) for _, _, config, _ in cells}) != 1:
            raise ValueError("the cells of a batch must share every solver option but the seed")
        self.scenes, channels, configs, self.coeffs = (list(column) for column in zip(*cells))
        links = self.links = channels[0]
        for name in _LINK_NAMES:
            if not all(np.array_equal(getattr(ch, name), getattr(links, name)) for ch in channels[1:]):
                raise ValueError(f"the cells of a batch must share the link {name}")
        config = self.config = configs[0]
        self.sensing = config.sensing_enabled
        self.cycling = config.ris_enabled and not self.sensing
        self.constrain = math.isfinite(config.enforced_crb_threshold)
        self.objective = RIS_OBJECTIVE_JCAS if self.sensing else RIS_OBJECTIVE_RATE
        self.noise_radar = [ch.noise_radar for ch in channels]
        self.cells = np.arange(len(cells))
        self.outcomes = [None] * len(cells)
        self.traces = [IterationTrace() for _ in cells]
        self.iteration = 0
        self.window = 1
        self.noise_user = np.array([ch.noise_user for ch in channels])[:, None, None]
        if config.ris_enabled:
            draws = [np.random.default_rng([c.seed, 0]).random(links.n_ris) for c in configs]
            phi = np.stack([np.exp(2j * np.pi * draw) for draw in draws])
        else:
            phi = np.zeros((len(cells), links.n_ris), dtype=complex)
        # the first move sets every row, so there is nothing to keep
        self.phi = None
        self.terms = _PhaseTerms(*[None] * len(_PhaseTerms._fields))
        every = np.ones(len(cells), dtype=bool)
        leak = si_channel(self.links, phi) if self.sensing else None
        self._move(every, phi, self._stage(every, phi, effective_channel(self.links, phi), leak))
        # the outer cycle of each row: its start, its first kept move and
        # whether it has made that move (None without the cycle)
        self.anchor = self.middle = self.halfway = None
        if self.cycling:
            self.anchor, self.middle, self.halfway = self.phi, self.phi, np.zeros(len(cells), dtype=bool)
        self.precoder = dominant_precoder(self.terms.h_eff, config.n_streams, config.power_budget)
        evaluated = _evaluate(self.precoder, self.terms.h_eff, self.terms.leak, self.noise_user)
        self.merit = self._record(self.precoder, evaluated, np.zeros(len(cells)))

    def _stage(self, rows, phi, h_eff, leak):
        """The phase record (:class:`_PhaseTerms`) of the rows that the mask
        ``rows`` selects at their phase in ``phi``, with their sensing
        context, from ``h_eff`` and ``leak``, the channels the caller
        computed at ``phi``."""
        deriv = noise_cov = fisher = None
        if self.sensing:
            contexts = [
                build_sensing_context(self.scenes[cell], p, self.coeffs[cell], self.noise_radar[cell])
                for p, cell in zip(phi[rows], self.cells[rows].tolist())
            ]
            deriv = np.stack([c.path_response_deriv for c in contexts])
            noise_cov = np.stack([c.noise_cov for c in contexts])
            if self.constrain:
                fisher = fisher_core(deriv, noise_cov)
        return _PhaseTerms(h_eff[rows], None if leak is None else leak[rows], fisher, deriv, noise_cov)

    def _move(self, rows, phi, terms):
        """Move the rows that the mask ``rows`` selects to their phase in
        ``phi``, with the ``terms`` that :meth:`_stage` built for them there."""
        self.phi = _put_rows(self.phi, rows, phi[rows])
        self.terms = _PhaseTerms(*(_put_rows(old, rows, new) for old, new in zip(self.terms, terms)))

    def _wmmse_update(self, terms, precoder, noise):
        """The combiner, the weights and ``precoder_update`` of sensing rows
        at the phase whose ``terms`` they hold, from their ``precoder`` and
        noise: (combiner, weight, precoder, lambda0, mu) of those rows."""
        combiner = mmse_combiner(terms.h_eff, precoder, noise)
        weight = weight_matrix(mse_matrix(terms.h_eff, precoder, noise))
        config = self.config
        update = precoder_update(
            combiner, weight, terms.h_eff, terms.leak, config.power_budget, config.enforced_crb_threshold, terms.fisher
        )
        return (combiner, weight, *update)

    def _look_ahead(self, passed, terms, precoder):
        """The bound check of the guard: the precoder update that the next
        step makes at the proposal of each row that passed the merit test,
        whose phase ``terms`` those rows hold.  A row whose update misses
        the bound keeps its phase.  Returns the accepted rows' mask and
        their part of ``terms``."""
        mu = self._wmmse_update(terms, precoder[passed], self.noise_user[passed])[-1]
        fits = mu < math.inf
        accept = passed.copy()
        accept[passed] = fits
        return accept, terms if fits.all() else _rows(terms, fits)

    def _record(self, precoder, evaluated, lam0):
        objective, rate, si_power = evaluated
        terms = self.terms
        crb = aoa_crb(precoder, terms.deriv, terms.noise_cov).tolist() if self.sensing else [math.nan] * len(rate)
        rows = zip(self.cells.tolist(), objective.tolist(), rate.tolist(), si_power.tolist(), crb, lam0.tolist())
        for cell, *row in rows:
            self.traces[cell].append(self.iteration, *row)
        return objective

    def _finish(self, stopped):
        """Drop the ``stopped`` rows from every stacked array of the state,
        each with a JcasResult unless it has an outcome (a bound's error)."""
        for row in np.flatnonzero(stopped).tolist():
            cell = self.cells[row]
            if self.outcomes[cell] is None:
                self.outcomes[cell] = JcasResult(self.precoder[row].copy(), self.phi[row].copy(), self.traces[cell])
        keep = ~stopped
        for name in ("cells", "phi", "precoder", "merit", "noise_user", "anchor", "middle", "halfway"):
            stack = getattr(self, name)
            if stack is not None:
                setattr(self, name, stack[keep])
        self.terms = _rows(self.terms, keep)

    def _precoder_step(self, precoder):
        """The precoder stage of one outer iteration for every row, at its
        phase, from its ``precoder``: (combiner, weight, precoder, lambda0,
        mu).

        A sensing row updates the combiner and weights, then the WMMSE
        precoder with its bound check; ``mu`` is inf where the bound is
        infeasible.  A communication-only row takes the exact water-filled
        precoder at its phase, and the combiner and weights at that
        precoder only build the ``"rate"`` phase form (None without the
        surface); its ``mu`` is zero."""
        noise, terms = self.noise_user, self.terms
        if self.sensing:
            return self._wmmse_update(terms, precoder, noise)
        config = self.config
        precoder, lam0 = waterfill_precoder(terms.h_eff, noise, config.n_streams, config.power_budget)
        combiner = weight = None
        if config.ris_enabled:
            combiner = mmse_combiner(terms.h_eff, precoder, noise)
            weight = weight_matrix(mse_matrix(terms.h_eff, precoder, noise))
        return combiner, weight, precoder, lam0, np.zeros(len(lam0))

    def _chain(self, width):
        """The precoder stage of up to ``width`` outer iterations, each from
        the one before at the phases held now: what the steps make while
        the guard rejects every proposal.  The chain ends at the first
        iteration at which some row's merit stalls, and before a later one
        at which some row's bound is infeasible, so every stage holds every
        row; a first stage with an infeasible bound ends it unevaluated.
        Returns one :class:`_Stage` per iteration."""
        chain = []
        precoder, merit = self.precoder, self.merit
        while True:
            combiner, weight, precoder, lam0, mu = self._precoder_step(precoder)
            # only a sensing row can miss the bound
            if self.sensing and (mu == math.inf).any():
                return chain or [_Stage(combiner, weight, precoder, lam0, mu, None)]
            evaluated = _evaluate(precoder, self.terms.h_eff, self.terms.leak, self.noise_user)
            chain.append(_Stage(combiner, weight, precoder, lam0, mu, evaluated))
            if len(chain) == width or _merit_stalled(evaluated[0], merit, self.config.outer_tol).any():
                return chain
            merit = evaluated[0]

    def _propose(self, chain):
        """The phase proposal of every (row, iteration) of the chain, each
        from its row's phase held now, solved in one :func:`ris_optimize`
        call and evaluated as one stack.  Returns (candidate, h_eff, leak,
        objective, rate, si_power), one block of rows per iteration: the
        proposals, their channels and their merit terms at its precoder."""
        combiner, weight, precoder = (
            np.concatenate([getattr(stage, name) for stage in chain]) for name in ("combiner", "weight", "precoder")
        )
        phi, noise = np.tile(self.phi, (len(chain), 1)), np.tile(self.noise_user, (len(chain), 1, 1))
        factor, lin = ris_quadratics(precoder, combiner, weight, self.links, objective=self.objective)
        candidate, _ = ris_optimize(phi, factor, lin, RIS_TOL, MAX_RIS_ITER)
        h_eff = effective_channel(self.links, candidate)
        leak = si_channel(self.links, candidate) if self.sensing else None
        return (candidate, h_eff, leak, *_evaluate(precoder, h_eff, leak, noise))

    def _cycle(self, accept, precoder, evaluated):
        """The outer SQUAREM cycle of communication-only rows, after the
        guard kept the proposals of the rows that ``accept`` selects and
        before the record: a row that has now made two kept moves
        ``p0 -> p1 -> p2`` ends its cycle through :meth:`_extrapolate` at
        this iteration's ``precoder``, and the point it keeps starts the
        next one; a rejected proposal restarts the cycle at the held phase.
        Returns the merit terms ``evaluated`` with those of the kept
        extrapolated points."""
        ending = accept & self.halfway
        starting = accept & ~self.halfway
        self.middle = np.where(starting[:, None], self.phi, self.middle)
        self.anchor = np.where(accept[:, None], self.anchor, self.phi)
        self.halfway = starting
        if ending.any():
            evaluated = self._extrapolate(ending, precoder, evaluated)
            self.anchor = np.where(ending[:, None], self.phi, self.anchor)
        return evaluated

    def _extrapolate(self, ending, precoder, evaluated):
        """SQUAREM's step on the held phases of the rows that ``ending``
        selects, the rule of :func:`ris_optimize` one level up: with
        ``r = p1 - p0`` and ``v = p2 - 2 p1 + p0``, the S3 step length
        ``alpha = -|r|/|v|``, clamped to at most -1, gives the point
        ``p0 - 2 alpha r + alpha**2 v``, projected by ``x/|x|`` (an element
        with ``x = 0`` keeps ``p2``'s value).  The point replaces ``p2``
        when its merit at ``precoder`` is no higher than ``p2``'s; otherwise
        ``alpha`` halves toward -1 (``alpha <- (alpha - 1)/2``), and within
        ``SQUAREM_ALPHA_SLACK`` of -1 the row keeps ``p2``.  A zero ``v``
        or an infinite ratio keeps ``p2`` at once.  Each backtrack round
        evaluates the points of the rows still trying as one stack, and a
        kept point is staged from the channels of its evaluation.  Returns
        the merit terms ``evaluated`` with those of the kept points."""
        rows = np.flatnonzero(ending)
        p0, p1, p2 = self.anchor[rows], self.middle[rows], self.phi[rows]
        r = p1 - p0
        v = (p2 - p1) - r
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = -np.sqrt(np.square(r.view(float)).sum(axis=-1) / np.square(v.view(float)).sum(axis=-1))
        # a zero v gives alpha = -inf (NaN when r is zero too), and so does a
        # ratio that overflows: such rows keep p2
        clamp = -1.0 - SQUAREM_ALPHA_SLACK
        trying = (alpha < clamp) & (alpha > -math.inf)
        objective, rate = evaluated[0].copy(), evaluated[1].copy()
        phi, h_eff = self.phi.copy(), self.terms.h_eff.copy()
        kept = np.zeros(len(self.cells), dtype=bool)
        while trying.any():
            some = np.flatnonzero(trying)
            at = rows[some]
            step = alpha[some, None]
            point = p0[some] + r[some] * (-2.0 * step) + v[some] * (step * step)
            magnitude = np.abs(point)
            point = np.divide(point, magnitude, out=p2[some], where=magnitude > 0.0)
            channel = effective_channel(self.links, point)
            moved, moved_rate, _ = _evaluate(precoder[at], channel, None, self.noise_user[at])
            better = moved <= objective[at]
            won = at[better]
            phi[won], h_eff[won] = point[better], channel[better]
            objective[won], rate[won] = moved[better], moved_rate[better]
            kept[won] = True
            trying[some[better]] = False
            alpha = (alpha - 1.0) * 0.5
            trying &= alpha < clamp
        if kept.any():
            self._move(kept, phi, self._stage(kept, phi, h_eff, None))
        return objective, rate, evaluated[2]

    def step(self):
        """A window of outer iterations of every cell in the stack: the
        precoder, then a guarded phase proposal and the record, for each.

        While the guard rejects a row's proposals its phase stays, and each
        iteration's precoder stage depends only on the one before.  So
        :meth:`_chain` makes the stages of up to ``window`` iterations
        ahead, :meth:`_propose` solves all their phase problems in one
        call, and the iterations are then recorded, guarded and
        stop-tested in order, exactly as one at a time.  The first
        iteration at which some row keeps a proposal moves that row and
        ends the window; the stages made past it are dropped.  A row whose
        bound is infeasible at the window's first iteration leaves the
        stack with its error, and the step ends there: the other rows make
        that iteration again in the next step, from the same precoder, to
        the same bits.  The window doubles after a window that kept no
        proposal and returns to one after a window that kept one; rows
        times window stays within ``MAX_WINDOW_ROWS``.  Without the surface
        nothing can be proposed, and a window is one iteration; a
        communication-only cell then finishes after one step.  With it, a
        communication-only row passes each guarded proposal to its outer
        cycle (:meth:`_cycle`), which may hold an extrapolated phase
        instead, before the record."""
        config = self.config
        width = 1
        if config.ris_enabled:
            width = max(1, min(self.window, MAX_WINDOW_ROWS // len(self.cells), config.max_outer - self.iteration))
        chain = self._chain(width)
        first = chain[0]
        if first.evaluated is None:
            infeasible = first.mu == math.inf
            achieved = _bound(first.precoder[infeasible], self.terms.fisher[infeasible])
            for cell, value in zip(self.cells[infeasible], achieved.tolist()):
                self.outcomes[cell] = CrbInfeasibleError(
                    value, config.enforced_crb_threshold, context=f"outer iteration {self.iteration + 1}"
                )
            self._finish(infeasible)
            return
        proposals = self._propose(chain) if config.ris_enabled else None
        # rows leave only at the iteration that ends the loop, so every block has this many
        block = len(self.cells)
        kept = False
        for at, (*_, precoder, lam0, _, evaluated) in zip(range(0, block * len(chain), block), chain):
            self.iteration += 1
            if proposals is not None:
                candidate, h_eff, leak, *proposed = (None if a is None else a[at : at + block] for a in proposals)
                accept = proposed[0] <= evaluated[0]
                if accept.any():
                    terms = self._stage(accept, candidate, h_eff, leak)
                    if self.constrain:
                        accept, terms = self._look_ahead(accept, terms, precoder)
                    if accept.any():
                        self._move(accept, candidate, terms)
                        evaluated = tuple(np.where(accept, new, old) for new, old in zip(proposed, evaluated))
                        kept = True
                if self.cycling:
                    evaluated = self._cycle(accept, precoder, evaluated)
            self.precoder = precoder
            merit = self._record(precoder, evaluated, lam0)
            if config.ris_enabled or self.sensing:
                stalled = _merit_stalled(merit, self.merit, config.outer_tol)
            else:
                stalled = np.ones(len(self.cells), dtype=bool)
            self.merit = merit
            if stalled.any():
                self._finish(stalled)
            if kept:
                break
        self.window = 1 if kept else min(2 * self.window, MAX_WINDOW_ROWS)

    def run(self) -> list:
        """Step until every cell has stopped; returns ``outcomes``."""
        while len(self.cells) and self.iteration < self.config.max_outer:
            self.step()
        self._finish(np.ones(len(self.cells), dtype=bool))
        return self.outcomes


def _put_rows(stack, rows, values):
    """``stack`` with the rows that the mask ``rows`` selects replaced by
    ``values``, as a new array; ``values`` itself when it is None or takes
    every row."""
    if values is None or rows.all():
        return values
    out = stack.copy()
    out[rows] = values
    return out


def _rows(record, index):
    """The :class:`_PhaseTerms` record with each of its stacks indexed by
    ``index`` along the leading axis."""
    return type(record)(*(None if stack is None else stack[index] for stack in record))


def _merit_stalled(merit, previous, outer_tol):
    """The outer loop's stop rule, per row: the merit moved by at most
    ``outer_tol`` relative to the ``previous`` one."""
    return np.abs(merit - previous) <= outer_tol * np.maximum(np.abs(previous), 1e-300)


def jcas_optimize(
    scene: Scene,
    channels: ChannelSet,
    config: JcasConfig,
    coeffs: PathCoefficients,
) -> JcasResult:
    """Run the alternating design until the objective stalls.

    Each outer iteration updates the combiner, the stream weights, the
    precoder (a Newton solve of the power multiplier, then the bound
    check; without sensing, the exact water-filled precoder at the
    phase), and finally the phase profile, after which the radar response
    derivative is refreshed since it depends on the profile.  A phase
    proposal from the inner solver (SQUAREM-accelerated MM, at most
    ``MAX_RIS_ITER`` maps) is kept only when it does not increase the
    recorded objective: the phase quadratics penalize through-combiner
    signal power alongside the interference, so an unguarded step can undo
    precoder progress once the interference is small.  With the bound
    enforced, a proposal that passes that test is kept only when the
    precoder update at the proposed phase, the one the next iteration
    makes, still meets the bound.  Without the surface the profile stays
    zero, so every reflected channel and echo term vanishes, and a
    communication-only cell, whose water-filled precoder is exact there,
    stops after one iteration.  The trace records the end-of-iteration
    objective, rate, interference power, bound value and power multiplier;
    row zero is the initialized state.  Infeasibility of the sensing
    constraint raises CrbInfeasibleError with the iteration index attached.

    What depends only on the phase profile (the effective channel, the SI
    channel, and the Fisher core when the bound is enforced) is built at
    the start and again only for a proposal that passes the merit test,
    from the channels computed to evaluate it, and is what
    :func:`precoder_update` takes.  The cell runs as a batch of one of
    :func:`jcas_optimize_batch`.  While the
    guard rejects proposals the phase stays, so the loop makes the
    precoder stages of a window of iterations ahead and solves their phase
    problems in one stacked call; the window ends at the first kept
    proposal, and the result is the one the iterations give one at a time.

    A communication-only cell with the surface runs SQUAREM (Varadhan and
    Roland 2008) on the phase it holds, the extrapolation of
    :func:`ris_optimize` one level up (:meth:`_Lockstep._cycle`): an
    extrapolated point replaces a kept proposal only when its merit is no
    higher, so the recorded merit still never rises.
    """
    (outcome,) = _Lockstep([(scene, channels, config, coeffs)]).run()
    if isinstance(outcome, CrbInfeasibleError):
        raise outcome
    return outcome


def jcas_optimize_batch(cells) -> list:
    """:func:`jcas_optimize` of every ``(scene, channels, config, coeffs)``
    cell, run in lockstep; a cell whose angle bound is infeasible gets the
    CrbInfeasibleError that :func:`jcas_optimize` raises for it alone.

    The cells must share every :class:`JcasConfig` option but ``seed``, and
    by value the links the design reads (all but ``si_nlos``), or ValueError
    is raised; target angles, noise and coefficients may differ.  Each outer
    iteration stacks the cells still running into one call of every stage,
    and each cell's result is bit for bit the one it gets alone.
    """
    cells = list(cells)
    if not cells:
        return []
    return _Lockstep(cells).run()


def _evaluate(precoder, h_eff, leak, noise_user):
    """Recorded objective, downlink rate and SI power of a stack of
    states, given the effective channel and the SI channel of each one's
    phase profile.

    The objective is the interference power minus the rate: the
    rate-equivalent value of the weighted-MSE surrogate at the tight
    combiner/weight pair, the quantity the alternating updates provably do
    not increase.  ``leak`` is None when the run does not sense; the SI
    power is then NaN.

    Returns (objective, rate, si_power), one entry per state each.
    """
    rate = dl_rate(h_eff, precoder, noise_user)
    if leak is None:
        return -rate, rate, np.full(rate.shape, math.nan)
    leak_v = leak @ precoder
    # the trace sums real parts apart from imaginary ones, so it needs no _herm
    si_power = np.real(np.trace(leak_v @ _ct(leak_v), axis1=-2, axis2=-1))
    return si_power - rate, rate, si_power
