"""Alternating transceiver design: weighted-MMSE combiner/weights, the
power-constrained precoder (power-multiplier bisection) with its
angle-bound feasibility check, the majorization-minimization
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
# MM phase solver: relative objective tolerance and step cap per call
RIS_TOL = 1e-5
MAX_RIS_ITER = 500
# power-multiplier bisection: relative tolerance of the power match, step cap
BISECT_TOL = 1e-6
MAX_BISECT = 200
# power bisection steps evaluated per probe call (a tree of 2**levels - 1 midpoints)
PROBE_LEVELS = 3

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
    mu_k: list = field(default_factory=list)

    def append(self, iteration, objective, rate, si_power, crb, lambda0, mu):
        self.iteration.append(int(iteration))
        self.objective.append(float(objective))
        self.rate_bps_hz.append(float(rate))
        self.si_power.append(float(si_power))
        self.crb.append(float(crb))
        self.lambda0.append(float(lambda0))
        self.mu_k.append(float(mu))

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
        if self.max_outer < 0:
            raise ValueError("max_outer must be >= 0")

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


def _probe_power(lam, evals, row_power, out):
    """Precoder power ``np.sum(row_power / (evals + lam) ** 2, axis=-1)``
    at the power multiplier ``lam`` (a column, one per row, for a stack),
    computed in the buffer ``out`` with the same operations in the same
    order, so bit for bit the same value."""
    np.add(evals, lam, out=out)
    np.square(out, out=out)
    np.divide(row_power, out, out=out)
    return np.add.reduce(out, axis=-1)


def _bisection_mids(lo, hi) -> list:
    """Midpoints of the next ``PROBE_LEVELS`` bisection steps from the
    bracket (lo, hi), breadth first: node k bisects its interval, node
    2k + 1 the upper half and node 2k + 2 the lower half."""
    bounds, mids = [(lo, hi)], []
    for node in range(2**PROBE_LEVELS - 1):
        a, b = bounds[node]
        mid = 0.5 * (a + b)
        mids.append(mid)
        bounds += ((mid, b), (a, mid))
    return mids


def _bisect_power(evals, row_power, power_budget) -> np.ndarray:
    """Power multiplier of each row whose min-norm solution exceeds the
    budget: the first of 1, 2, 4, ... (at most ``2**200``) whose power is
    below the budget bounds it, then bisection from zero stops when the
    power matches the budget to the relative tolerance, or at the upper
    end after ``MAX_BISECT`` steps.

    Each row's bracket stops moving once its own test passes.  One probe
    call evaluates ``2**PROBE_LEVELS - 1`` multipliers of every row: the
    next doublings, or the tree of midpoints the next ``PROBE_LEVELS``
    bisection steps can reach.  Walking the tree takes exactly the steps,
    and so the bits, of probing one multiplier at a time.
    """
    n_rows, width = len(evals), 2**PROBE_LEVELS - 1
    tree = np.empty((n_rows, width, evals.shape[-1]))
    evals, row_power = evals[:, None], row_power[:, None]
    hi, growing, first = [1.0] * n_rows, range(n_rows), 0
    while growing:
        lams = [2.0 ** (first + k) for k in range(width)]
        powers = _probe_power(np.array(lams)[:, None], evals, row_power, tree).tolist()
        still = []
        for i in growing:
            for k, power in enumerate(powers[i]):
                if first + k == 200 or not power >= power_budget:
                    hi[i] = lams[k]
                    break
            else:
                still.append(i)
        growing, first = still, first + width
    lo, live = [0.0] * n_rows, range(n_rows)
    tol = BISECT_TOL * power_budget
    for start in range(0, MAX_BISECT, PROBE_LEVELS):
        mids = [_bisection_mids(a, b) for a, b in zip(lo, hi)]
        powers = _probe_power(np.array(mids)[..., None], evals, row_power, tree).tolist()
        still = []
        for i in live:
            node, mid, power = 0, mids[i], powers[i]
            for _ in range(min(PROBE_LEVELS, MAX_BISECT - start)):
                if abs(power[node] - power_budget) < tol:
                    hi[i] = mid[node]
                    break
                if power[node] > power_budget:
                    lo[i], node = mid[node], 2 * node + 1
                else:
                    hi[i], node = mid[node], 2 * node + 2
            else:
                still.append(i)
        live = still
        if not live:
            break
    # a row that meets the tolerance ends at that midpoint, any other at its upper end
    return np.array(hi)


def _solve_power_constrained(core, rhs, power_budget):
    """Minimizer of the quadratic surrogate under the transmit power cap.

    Takes a stack of problems along a leading axis and returns arrays
    (precoder, lambda0), one entry per problem.  The multiplier stays
    exactly zero when the unconstrained (min-norm) solution already fits
    the budget (complementary slackness); otherwise it is bisected until
    the power matches the budget to the relative tolerance.  The normal equations
    are diagonalized once so each multiplier probe is closed-form.
    """
    # ``eigh`` reads one triangle, and ``precoder_update``'s cores are Hermitian to the bit
    evals, evecs = np.linalg.eigh(core)
    rotated = _ct(evecs) @ rhs
    row_power = np.sum(np.abs(rotated) ** 2, axis=-1)
    total = row_power.sum(axis=-1)
    kept = evals > np.maximum(evals[:, -1:], 1.0) * 1e-12
    # a row sums its own number of null-space entries, so one at a time
    null_power = [np.add.reduce(power[~row]) for power, row in zip(row_power, kept)]
    precoder = evecs @ (np.where(kept, 1.0, 0.0)[..., None] * rotated / np.where(kept, evals, 1.0)[..., None])
    zero, bisect = [], []
    for row, (power, null, fit) in enumerate(
        zip(total.tolist(), null_power, np.sum(np.abs(precoder) ** 2, axis=(-2, -1)).tolist())
    ):
        if power == 0.0:
            zero.append(row)
        elif not (null <= 1e-16 * power and fit <= power_budget):
            bisect.append(row)
    # a zero right-hand side gives the zero precoder; a slack row keeps the min-norm one
    if zero:
        precoder[zero] = 0.0
    lam = np.zeros(len(core))
    if bisect:
        rows = slice(None) if len(bisect) == len(core) else bisect
        lam[rows] = _bisect_power(evals[rows], row_power[rows], power_budget)
        precoder[rows] = evecs[rows] @ (rotated[rows] / (evals[rows] + lam[rows, None])[..., None])
    return precoder, lam


def _bound(precoder, fisher) -> np.ndarray:
    """Single-snapshot angle bound ``1 / (2 Re tr(V^H F V))`` of each
    design of a stack, inf where the information is not finite and
    positive."""
    info = 2.0 * np.sum(np.real(np.conj(precoder) * (fisher @ precoder)), axis=(-2, -1))
    return np.array([1.0 / x if 0.0 < x < math.inf else math.inf for x in info.tolist()])


class _PhaseTerms(NamedTuple):
    """Channel terms that depend on the phase profile alone.

    ``h_eff`` is the effective downlink channel, ``leak`` the SI channel and
    ``leak_gram`` its Gram ``leak^H leak`` (both None without the SI term),
    and ``fisher`` the Fisher core (None without the CRB constraint).  A
    stack of cells carries one leading axis on every term.
    """

    h_eff: np.ndarray
    leak: np.ndarray | None
    leak_gram: np.ndarray | None
    fisher: np.ndarray | None


def _phase_terms(h_eff, leak=None, path_response_deriv=None, noise_cov=None) -> _PhaseTerms:
    leak_gram = None if leak is None else _ct(leak) @ leak
    fisher = None if path_response_deriv is None else fisher_core(path_response_deriv, noise_cov)
    return _PhaseTerms(h_eff, leak, leak_gram, fisher)


def precoder_update(
    combiner,
    weight,
    channels: ChannelSet,
    phi,
    power_budget: float,
    crb_threshold: float = math.inf,
    path_response_deriv=None,
    noise_cov=None,
    include_si: bool = True,
    *,
    phase_terms: _PhaseTerms | None = None,
):
    """Precoder minimizing the weighted-MSE-plus-interference surrogate
    under the power budget, checked against the angle-accuracy bound when
    its threshold is finite.

    The stationary solution is a regularized normal-equations solve whose
    power multiplier is found by bisection (zero when slack).  The sensing
    multiplier ``mu`` stays zero: entering the core as ``gram + 2 mu F``,
    it would penalize the Fisher information ``g(V) = tr(V^H F V)``.  If
    ``V_mu`` minimizes the surrogate plus ``2 mu g`` over the power ball,
    adding the optimality inequalities of ``mu > nu`` gives
    ``(mu - nu) (g(V_mu) - g(V_nu)) <= 0``, and the bound ``1 / (2 g)``
    never falls as ``mu`` grows.  A design whose bound exceeds the
    threshold at zero multiplier is therefore infeasible, and
    CrbInfeasibleError reports that bound as ``achieved``.

    ``phase_terms`` is the phase profile's channel terms that
    :func:`jcas_optimize` keeps from one outer iteration to the next: the
    effective channel, the SI channel and its Gram when ``include_si``,
    and the Fisher core when the threshold is finite.  Given, it replaces
    ``channels``, ``phi``, ``path_response_deriv`` and ``noise_cov``;
    otherwise the terms are built from those arguments.  Both ways give
    bit-identical results.

    A stack of cells (a leading axis on ``combiner``, ``weight`` and
    ``phi`` or the terms) is solved in one call, each cell bit for bit as
    alone, and returns arrays.  A stacked cell whose bound is infeasible
    does not raise: its ``mu`` is inf and its precoder is the
    zero-multiplier one.

    Returns (precoder, lambda0, mu).
    """
    constrain = math.isfinite(crb_threshold)
    if phase_terms is None:
        if constrain and (path_response_deriv is None or noise_cov is None):
            raise ValueError("CRB constraint requires the response derivative and noise covariance")
        phase_terms = _phase_terms(
            effective_channel(channels, phi),
            si_channel(channels, phi) if include_si else None,
            *((path_response_deriv, noise_cov) if constrain else ()),
        )
    single = np.ndim(combiner) == 2
    if single:
        combiner, weight = combiner[None], weight[None]
        phase_terms = _PhaseTerms(*(None if term is None else term[None] for term in phase_terms))
    h_eff = phase_terms.h_eff
    rhs = _ct(h_eff) @ _ct(combiner) @ weight
    fh = combiner @ h_eff
    gram = _ct(fh) @ weight @ fh
    if include_si:
        gram = gram + phase_terms.leak_gram
    gram = _herm(gram)

    precoder, lam = _solve_power_constrained(gram, rhs, power_budget)
    mu = np.zeros(len(gram))
    if constrain:
        bound = _bound(precoder, phase_terms.fisher)
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
    of cells gives one ``F`` and one ``d`` per cell along a leading axis.
    """
    if objective not in (RIS_OBJECTIVE_JCAS, RIS_OBJECTIVE_RATE):
        raise ValueError(f"unknown ris objective {objective!r}")
    evals, evecs = np.linalg.eigh(_herm(weight))
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    x = _ct(combiner @ channels.ris_to_user) @ root
    c = _ct(root) @ (combiner @ channels.bs_to_user @ precoder)
    if objective == RIS_OBJECTIVE_JCAS:
        x = np.concatenate([x, _ct(channels.ris_to_bs)], axis=-1)
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
    unit-modulus ``p``, stepped until the objective change is small.

    Returns (phase profile, array of objective values including the start).
    The stopping rule is relative; it falls back to an absolute comparison
    when the current value is exactly zero.  ``factor`` is ``F``, n x k with
    one row per element, and ``linear`` is ``d``: the two values of
    :func:`ris_quadratics`.  Each step sets ``q = lam p - M p - conj(d)``,
    with ``lam`` the top eigenvalue of ``M = F F^H`` taken from the k x k
    Gram ``F^H F``, and then ``p = q/|q|``; an element whose ``q`` is
    exactly zero keeps its phase (tie break).

    The n x n ``M`` is never formed.  Each step makes two products: ``[F^H;
    2 d^T] p`` gives ``y = F^H p`` and ``2 d^T p``, whose ``vdot`` with
    ``[y; 1]`` is the objective value, and ``[F | conj(d)] / lam`` times
    ``[y; 1]`` gives ``z``, so that ``p - z`` is the MM direction over
    ``lam``, which leaves ``q/|q|`` unchanged.  At ``lam = 0`` (then
    ``F = 0``), or where the scaling overflows (a subnormal ``lam`` or a
    huge ``d``), the second product stays unscaled and ``q = lam p - z``.
    The steps run in preallocated buffers, and the phase returned is an
    array of its own; ``phi0`` is not modified.  Raises ValueError for a
    non-positive ``tol``, a negative ``max_iter``, a factor that is not 2-D
    with at least one column, mismatched lengths, or non-finite inputs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    factor = np.asarray(factor, dtype=complex)
    linear = np.asarray(linear, dtype=complex)
    phi0 = np.asarray(phi0, dtype=complex)
    if factor.ndim != 2 or factor.shape[1] == 0:
        raise ValueError(f"factor must be 2-D with at least one column, got shape {factor.shape}")
    n, k = factor.shape
    if phi0.shape != (n,) or linear.shape != (n,):
        raise ValueError(
            f"phi0 {phi0.shape} and linear {linear.shape} must both have length {n} "
            "to match the rows of factor"
        )
    for name, arr in (("factor", factor), ("phi0", phi0), ("linear", linear)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    lam = float(np.linalg.eigvalsh(_herm(factor.conj().T @ factor))[-1])
    lead = np.empty((k + 1, n), dtype=complex)
    np.conjugate(factor.T, out=lead[:k])
    np.add(linear, linear, out=lead[k])
    back = np.hstack((factor, np.conj(linear)[:, None]))
    if lam > 0.0 and np.isfinite(scaled := back * (1.0 / lam)).all():
        back, direction = scaled, np.subtract
    else:

        def direction(p, z, q):
            return np.subtract(np.multiply(lam, p, q), z, q)

    lead_dot, back_dot = lead.dot, back.dot
    # ``head`` = [y; s] of the latest phase and ``tail`` = [y; 1]; the
    # objective Re(vdot(tail, head)) is the dot of their real views.  |q|
    # goes into the real part of the complex ``mag``, so q/mag needs no cast.
    head, tail = np.empty(k + 1, dtype=complex), np.ones(k + 1, dtype=complex)
    head_y, tail_y = head[:k], tail[:k]
    head_real, tail_dot = head.view(float), tail.view(float).dot
    p, x = phi0.copy(), np.empty(n, dtype=complex)
    z, q, mag = np.empty(n, dtype=complex), np.empty(n, dtype=complex), np.zeros(n, dtype=complex)
    mag_real = mag.real
    absolute, divide, copyto = np.absolute, np.divide, np.copyto
    lead_dot(p, head)
    copyto(tail_y, head_y)
    value = float(tail_dot(head_real))
    values = [value]
    # A zero direction turns q/|q| into 0/0; the NaN it leaves in the
    # objective sends that step through the tie break instead.
    with np.errstate(invalid="ignore"):
        for _ in range(max_iter):
            back_dot(tail, z)
            direction(p, z, q)
            absolute(q, mag_real)
            divide(q, mag, x)
            lead_dot(x, head)
            copyto(tail_y, head_y)
            previous, value = value, float(tail_dot(head_real))
            if value != value:
                copyto(x, p, where=~(mag_real > 0.0))
                lead_dot(x, head)
                copyto(tail_y, head_y)
                value = float(tail_dot(head_real))
            p, x = x, p
            values.append(value)
            delta = abs(value - previous)
            scale = abs(value)
            if (delta <= tol * scale) if scale > 0.0 else (delta <= tol):
                break
    return p, np.asarray(values)


def dominant_precoder(h_eff, n_streams: int, power_budget: float) -> np.ndarray:
    """Power-normalized dominant eigenvectors of the channel covariance;
    the initialization point of the alternating design."""
    if not 0 < n_streams <= h_eff.shape[-1]:
        raise ValueError(f"n_streams {n_streams} must lie in [1, n_tx = {h_eff.shape[-1]}]")
    cov = _herm(_ct(h_eff) @ h_eff)
    _, evecs = np.linalg.eigh(cov)
    top = evecs[..., -n_streams:][..., ::-1]
    return np.sqrt(power_budget / n_streams) * top


class _Links(NamedTuple):
    """The channel matrices the design reads, one leading axis per cell."""

    bs_to_user: np.ndarray
    ris_to_user: np.ndarray
    bs_to_ris: np.ndarray
    ris_to_bs: np.ndarray
    si_los: np.ndarray


class _Lockstep:
    """The alternating design of a stack of cells, advanced one outer
    iteration per :meth:`step`.

    Every array of the state holds the cells still running along its
    leading axis, and ``cells`` maps each row to the cell's position in
    the batch.  A cell leaves the stack when its merit stalls, when its
    angle bound is infeasible (its outcome is then the error), or at
    ``max_outer``; ``outcomes`` holds what each cell ended with.  The
    stacked stages give every cell the bits it gets alone, so a cell's
    result does not depend on its batch-mates.  The phase solver runs one
    cell at a time.
    """

    def __init__(self, cells):
        cells = list(cells)
        if len({replace(config, seed=0) for _, _, config, _ in cells}) != 1:
            raise ValueError("the cells of a batch must share every solver option but the seed")
        self.scenes, channels, configs, self.coeffs = (list(column) for column in zip(*cells))
        config = self.config = configs[0]
        self.sensing = config.sensing_enabled
        self.constrain = math.isfinite(config.enforced_crb_threshold)
        self.objective = RIS_OBJECTIVE_JCAS if self.sensing else RIS_OBJECTIVE_RATE
        self.noise_radar = [ch.noise_radar for ch in channels]
        self.cells = np.arange(len(cells))
        self.outcomes = [None] * len(cells)
        self.traces = [IterationTrace() for _ in cells]
        self.iteration = 0
        self.links = _Links(*(np.stack([getattr(ch, name) for ch in channels]) for name in _Links._fields))
        self.noise_user = np.array([ch.noise_user for ch in channels])[:, None, None]
        if config.ris_enabled:
            self.phi = np.stack(
                [np.exp(2j * np.pi * np.random.default_rng([c.seed, 0]).random(ch.n_ris)) for c, ch in zip(configs, channels)]
            )
        else:
            self.phi = np.zeros((len(cells), channels[0].n_ris), dtype=complex)
        self.deriv = self.noise_cov = None
        if self.sensing:
            self.deriv, self.noise_cov = self._sensing_context(self.cells)
        leak = si_channel(self.links, self.phi) if self.sensing else None
        self.terms = self._phase_terms(effective_channel(self.links, self.phi), leak, self.cells)
        self.precoder = dominant_precoder(self.terms.h_eff, config.n_streams, config.power_budget)
        zero = np.zeros(len(cells))
        evaluated = _evaluate(self.precoder, self.terms.h_eff, self.terms.leak, self.noise_user)
        self.merit = self._record(self.precoder, evaluated, zero, zero)

    def _sensing_context(self, rows):
        """Stacked response derivative and radar noise covariance of ``rows`` at their phase."""
        contexts = [
            build_sensing_context(self.scenes[cell], self.phi[row], self.coeffs[cell], self.noise_radar[cell])
            for row, cell in zip(np.arange(len(self.cells))[rows].tolist(), self.cells[rows].tolist())
        ]
        return np.stack([c.path_response_deriv for c in contexts]), np.stack([c.noise_cov for c in contexts])

    def _phase_terms(self, h_eff, leak, rows):
        # the Fisher core comes from the sensing context as it is at the call
        if not self.constrain:
            return _phase_terms(h_eff, leak)
        return _phase_terms(h_eff, leak, self.deriv[rows], self.noise_cov[rows])

    def _record(self, precoder, evaluated, lam0, mu):
        objective, rate, si_power = evaluated
        crb = aoa_crb(precoder, self.deriv, self.noise_cov).tolist() if self.sensing else [math.nan] * len(rate)
        rows = zip(self.cells.tolist(), objective.tolist(), rate.tolist(), si_power.tolist(), crb, lam0.tolist(), mu.tolist())
        for cell, *row in rows:
            self.traces[cell].append(self.iteration, *row)
        return objective

    def _leave(self, stopped):
        """Drop the ``stopped`` rows from every stacked array of the state."""
        keep = ~stopped
        self.cells, self.phi, self.precoder, self.merit, self.noise_user = (
            a[keep] for a in (self.cells, self.phi, self.precoder, self.merit, self.noise_user)
        )
        self.links = _Links(*(a[keep] for a in self.links))
        self.terms = _PhaseTerms(*(None if a is None else a[keep] for a in self.terms))
        if self.sensing:
            self.deriv, self.noise_cov = self.deriv[keep], self.noise_cov[keep]

    def _finish(self, stopped):
        for row in np.flatnonzero(stopped):
            cell = self.cells[row]
            self.outcomes[cell] = JcasResult(self.precoder[row].copy(), self.phi[row].copy(), self.traces[cell])
        self._leave(stopped)

    def step(self):
        """One outer iteration of every cell in the stack: combiner,
        weights, precoder, then a guarded phase proposal and the record."""
        self.iteration += 1
        config, terms, noise = self.config, self.terms, self.noise_user
        combiner = mmse_combiner(terms.h_eff, self.precoder, noise)
        weight = weight_matrix(mse_matrix(terms.h_eff, self.precoder, noise))
        precoder, lam0, mu = precoder_update(
            combiner,
            weight,
            self.links,
            self.phi,
            config.power_budget,
            crb_threshold=config.enforced_crb_threshold,
            include_si=self.sensing,
            phase_terms=terms,
        )
        if math.inf in mu.tolist():
            infeasible = mu == math.inf
            achieved = _bound(precoder[infeasible], terms.fisher[infeasible])
            for cell, value in zip(self.cells[infeasible], achieved.tolist()):
                self.outcomes[cell] = CrbInfeasibleError(
                    value, config.enforced_crb_threshold, context=f"outer iteration {self.iteration}"
                )
            self._leave(infeasible)
            if not len(self.cells):
                return
            keep = ~infeasible
            combiner, weight, precoder, lam0, mu = (a[keep] for a in (combiner, weight, precoder, lam0, mu))
            terms, noise = self.terms, self.noise_user
        evaluated = _evaluate(precoder, terms.h_eff, terms.leak, noise)
        if config.ris_enabled:
            factor, lin = ris_quadratics(precoder, combiner, weight, self.links, objective=self.objective)
            candidate = np.empty_like(self.phi)
            for row, (p, f, d) in enumerate(zip(self.phi, factor, lin)):
                candidate[row] = ris_optimize(p, f, d, RIS_TOL, MAX_RIS_ITER)[0]
            h_eff = effective_channel(self.links, candidate)
            leak = si_channel(self.links, candidate) if self.sensing else None
            proposed = _evaluate(precoder, h_eff, leak, noise)
            rows = [row for row, (new, old) in enumerate(zip(proposed[0].tolist(), evaluated[0].tolist())) if new <= old]
            if rows:
                if len(rows) == len(candidate):
                    rows = slice(None)
                self._accept(rows, candidate, h_eff, leak)
                evaluated = tuple(_put_rows(old, rows, new[rows]) for old, new in zip(evaluated, proposed))
        self.precoder = precoder
        merit = self._record(precoder, evaluated, lam0, mu)
        stalled = [
            abs(now - before) <= config.outer_tol * max(abs(before), 1e-300)
            for now, before in zip(merit.tolist(), self.merit.tolist())
        ]
        self.merit = merit
        if any(stalled):
            self._finish(np.array(stalled))

    def _accept(self, rows, candidate, h_eff, leak):
        """Move ``rows`` (a list, or ``slice(None)`` for every row) to their
        proposed phase and rebuild what depends on it, from the channels
        computed for the proposal."""
        self.phi = _put_rows(self.phi, rows, candidate[rows])
        if self.sensing:
            deriv, noise_cov = self._sensing_context(rows)
            self.deriv, self.noise_cov = _put_rows(self.deriv, rows, deriv), _put_rows(self.noise_cov, rows, noise_cov)
        new = self._phase_terms(h_eff[rows], None if leak is None else leak[rows], rows)
        self.terms = _PhaseTerms(
            *(None if old is None else _put_rows(old, rows, value) for old, value in zip(self.terms, new))
        )

    def run(self) -> list:
        """Step until every cell has stopped; returns ``outcomes``."""
        while len(self.cells) and self.iteration < self.config.max_outer:
            self.step()
        self._finish(np.ones(len(self.cells), dtype=bool))
        return self.outcomes


def _put_rows(stack, rows, values):
    """``stack`` with ``rows`` replaced by ``values``, as a new array;
    ``values`` itself when ``rows`` is every row."""
    if rows == slice(None):
        return values
    out = stack.copy()
    out[rows] = values
    return out


def jcas_optimize(
    scene: Scene,
    channels: ChannelSet,
    config: JcasConfig,
    coeffs: PathCoefficients,
) -> JcasResult:
    """Run the alternating design until the objective stalls.

    Each outer iteration updates the combiner, the stream weights, the
    precoder (power bisection, then the bound check), and finally the
    phase profile, after which the radar response derivative is refreshed
    since it depends on the profile.  A phase proposal from the inner solver is kept only
    when it does not increase the recorded objective: the phase quadratics
    penalize through-combiner signal power alongside the interference, so
    an unguarded step can undo precoder progress once the interference is
    small.  Without the surface the profile stays zero, so every reflected
    channel and echo term vanishes.  The trace records the end-of-iteration
    objective, rate, interference power, bound value and multipliers; row
    zero is the initialized state.  Infeasibility of the sensing constraint
    raises CrbInfeasibleError with the iteration index attached.

    What depends only on the phase profile (the effective channel, the SI
    channel and its Gram, and the Fisher core when the bound is enforced)
    is built at the start and again only when the guard accepts a phase,
    from the channels computed to evaluate the proposal, and reaches
    :func:`precoder_update` through its ``phase_terms`` keyword.  The cell
    runs as a batch of one of :func:`jcas_optimize_batch`.
    """
    (outcome,) = _Lockstep([(scene, channels, config, coeffs)]).run()
    if isinstance(outcome, CrbInfeasibleError):
        raise outcome
    return outcome


def jcas_optimize_batch(cells) -> list:
    """:func:`jcas_optimize` of every ``(scene, channels, config, coeffs)``
    cell, run in lockstep; None for a cell whose angle bound is infeasible.

    The cells must have the same dimensions and share every
    :class:`JcasConfig` option but ``seed``; scenes, channels (noise
    included) and coefficients may differ.  Each outer iteration stacks the
    cells still running into one call of every stage but the phase solver,
    and each cell's result is bit for bit the one it gets alone.
    """
    cells = list(cells)
    if not cells:
        return []
    return [None if isinstance(o, CrbInfeasibleError) else o for o in _Lockstep(cells).run()]


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
