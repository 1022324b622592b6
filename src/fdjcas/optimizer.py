"""Alternating transceiver design: weighted-MMSE combiner/weights, the
power- and CRB-constrained precoder with nested multiplier bisection, the
majorization-minimization phase-profile solver, and the outer loop tying
them together."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import ChannelSet
from .crb import UnobservableError, aoa_crb, fisher_core
from .geometry import Scene
from .steering import PathCoefficients, build_sensing_context

LN2 = math.log(2.0)
# MM phase solver: relative objective tolerance and step cap per call
RIS_TOL = 1e-5
MAX_RIS_ITER = 500
# multiplier bisections: relative tolerance, step cap, largest sensing multiplier
BISECT_TOL = 1e-6
MAX_BISECT = 200
MU_MAX = 1e12

RIS_OBJECTIVE_JCAS = "jcas"
RIS_OBJECTIVE_RATE = "rate"


class CrbInfeasibleError(RuntimeError):
    """The angle-accuracy constraint cannot be met at the power budget."""

    def __init__(self, achieved: float, threshold: float, context: str = ""):
        self.achieved = achieved
        self.threshold = threshold
        self.context = context
        prefix = f"{context}: " if context else ""
        super().__init__(
            f"{prefix}CRB constraint infeasible: achieved {achieved:.6g} rad^2 "
            f"against threshold {threshold:.6g} rad^2 at full power"
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


def _herm(mat):
    return 0.5 * (mat + mat.conj().T)


def effective_channel(channels: ChannelSet, phi) -> np.ndarray:
    """Downlink channel combining the direct link and the reflected path."""
    phi = np.asarray(phi)
    return channels.bs_to_user + channels.ris_to_user @ (phi[:, None] * channels.bs_to_ris)


def si_channel(channels: ChannelSet, phi) -> np.ndarray:
    """Deterministic self-interference channel seen by the radar receiver.

    Only the line-of-sight leakage and the reflected path enter the design
    objective; the stochastic residual is simulation-only.
    """
    phi = np.asarray(phi)
    return channels.si_los + channels.ris_to_bs @ (phi[:, None] * channels.bs_to_ris)


def mmse_combiner(h_eff, precoder, noise_user: float) -> np.ndarray:
    """MSE-optimal linear receive filter for the downlink streams."""
    hv = h_eff @ precoder
    rx_cov = _herm(hv @ hv.conj().T) + noise_user * np.eye(h_eff.shape[0])
    return np.linalg.solve(rx_cov, hv).conj().T


def mse_matrix(h_eff, precoder, noise_user: float) -> np.ndarray:
    """Stream error covariance under the MSE-optimal combiner.

    Hermitian with eigenvalues in (0, 1].
    """
    hv = h_eff @ precoder
    d = precoder.shape[1]
    core = np.eye(d) + hv.conj().T @ hv / noise_user
    return _herm(np.linalg.inv(_herm(core)))


def weight_matrix(mse, priority: float = 1.0) -> np.ndarray:
    """Stream weighting that ties MSE minimization to the rate objective."""
    return _herm((priority / LN2) * np.linalg.inv(mse))


def si_matrix(precoder, phi, channels: ChannelSet) -> np.ndarray:
    """Covariance of the residual self-interference hitting the radar array."""
    leak = si_channel(channels, phi) @ precoder
    return _herm(leak @ leak.conj().T)


def dl_rate(h_eff, precoder, noise_user: float) -> float:
    """Achievable downlink rate in bits/s/Hz."""
    hv = h_eff @ precoder
    gram = _herm(np.eye(h_eff.shape[0]) + hv @ hv.conj().T / noise_user)
    _, logdet = np.linalg.slogdet(gram)
    return float(logdet / LN2)


def _probe_power(lam, evals, row_power, out) -> float:
    """Precoder power ``float(np.sum(row_power / (evals + lam) ** 2))`` at
    the power multiplier ``lam``, computed in the buffer ``out`` with the
    same operations in the same order, so bit for bit the same value."""
    np.add(evals, lam, out=out)
    np.square(out, out=out)
    np.divide(row_power, out, out=out)
    return float(out.sum())


def _solve_power_constrained(core, rhs, power_budget):
    """Minimizer of the quadratic surrogate under the transmit power cap.

    Returns (precoder, lambda0).  The multiplier stays exactly zero when
    the unconstrained (min-norm) solution already fits the budget
    (complementary slackness); otherwise it is bisected until the power
    matches the budget to the relative tolerance.  The normal equations
    are diagonalized once so each multiplier probe is closed-form, and the
    probes share one preallocated buffer.
    """
    evals, evecs = np.linalg.eigh(_herm(core))
    rotated = evecs.conj().T @ rhs
    row_power = np.sum(np.abs(rotated) ** 2, axis=1)

    def precoder_at(lam):
        return evecs @ (rotated / (evals + lam)[:, None])

    total = float(np.sum(row_power))
    if total == 0.0:
        return np.zeros(rhs.shape, dtype=complex), 0.0
    cutoff = max(float(evals[-1]), 1.0) * 1e-12
    mask = evals > cutoff
    null_power = float(np.sum(row_power[~mask]))
    if null_power <= 1e-16 * total:
        safe = np.where(mask, evals, 1.0)
        v0 = evecs @ (np.where(mask, 1.0, 0.0)[:, None] * rotated / safe[:, None])
        p0 = float(np.sum(np.abs(v0) ** 2))
        if p0 <= power_budget:
            return v0, 0.0
    probe = np.empty_like(evals)
    lo, hi = 0.0, 1.0
    guard = 0
    while _probe_power(hi, evals, row_power, probe) >= power_budget and guard < 200:
        hi *= 2.0
        guard += 1
    for _ in range(MAX_BISECT):
        lam = 0.5 * (lo + hi)
        power = _probe_power(lam, evals, row_power, probe)
        if abs(power - power_budget) < BISECT_TOL * power_budget:
            precoder = precoder_at(lam)
            break
        if power > power_budget:
            lo = lam
        else:
            hi = lam
    else:
        lam = hi
        precoder = precoder_at(lam)
    return precoder, lam


class _PhaseTerms(NamedTuple):
    """Channel terms that depend on the phase profile alone.

    ``h_eff`` is the effective downlink channel, ``leak`` the SI channel and
    ``leak_gram`` its Gram ``leak^H leak`` (both None without the SI term),
    and ``fisher`` the Fisher core (None without the CRB constraint).
    """

    h_eff: np.ndarray
    leak: np.ndarray | None
    leak_gram: np.ndarray | None
    fisher: np.ndarray | None


def _phase_terms(h_eff, leak=None, path_response_deriv=None, noise_cov=None) -> _PhaseTerms:
    leak_gram = None if leak is None else leak.conj().T @ leak
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
    under the power budget and, when finite, the angle-accuracy bound.

    The stationary solution is a regularized normal-equations solve whose
    power multiplier is found by bisection (zero when slack).  When the
    CRB threshold is finite and violated at zero sensing multiplier, the
    multiplier is grown geometrically and bisected toward the smallest
    feasible value; if no multiplier up to ``MU_MAX`` satisfies the bound,
    CrbInfeasibleError reports the best bound achieved.

    ``phase_terms`` is the phase profile's channel terms that
    :func:`jcas_optimize` keeps from one outer iteration to the next: the
    effective channel, the SI channel and its Gram when ``include_si``,
    and the Fisher core when the threshold is finite.  Given, it replaces
    ``channels``, ``phi``, ``path_response_deriv`` and ``noise_cov``;
    otherwise the terms are built from those arguments.  Both ways give
    bit-identical results.

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
    h_eff = phase_terms.h_eff
    rhs = h_eff.conj().T @ combiner.conj().T @ weight
    fh = combiner @ h_eff
    gram = fh.conj().T @ weight @ fh
    if include_si:
        gram = gram + phase_terms.leak_gram
    gram = _herm(gram)

    if constrain:
        fisher_mat = phase_terms.fisher

        def crb_of(v):
            fisher = float(2.0 * np.sum(np.real(np.conj(v) * (fisher_mat @ v))))
            if not np.isfinite(fisher) or fisher <= 0.0:
                return math.inf
            return 1.0 / fisher

    def solve_at(mu):
        core = gram if mu == 0.0 else gram + (2.0 * mu) * fisher_mat
        return _solve_power_constrained(core, rhs, power_budget)

    precoder, lam = solve_at(0.0)
    if not constrain:
        return precoder, lam, 0.0
    achieved = crb_of(precoder)
    if achieved <= crb_threshold:
        return precoder, lam, 0.0

    best = achieved
    mu_lo, mu_hi = 0.0, 1.0
    feasible = None
    while mu_hi <= MU_MAX:
        cand, cand_lam = solve_at(mu_hi)
        cand_crb = crb_of(cand)
        best = min(best, cand_crb)
        if cand_crb <= crb_threshold:
            feasible = (cand, cand_lam, mu_hi, cand_crb)
            break
        mu_lo = mu_hi
        mu_hi *= 2.0
    if feasible is None:
        raise CrbInfeasibleError(best, crb_threshold)
    for _ in range(MAX_BISECT):
        if abs(feasible[3] - crb_threshold) <= BISECT_TOL * crb_threshold:
            break
        mid = 0.5 * (mu_lo + mu_hi)
        cand, cand_lam = solve_at(mid)
        cand_crb = crb_of(cand)
        if cand_crb <= crb_threshold:
            mu_hi = mid
            feasible = (cand, cand_lam, mid, cand_crb)
        else:
            mu_lo = mid
        if (mu_hi - mu_lo) <= BISECT_TOL * max(mu_hi, 1.0):
            break
    precoder, lam, mu, _ = feasible
    return precoder, lam, mu


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
    (``"rate"``) columns; the surface-sized ``M`` is never formed.
    """
    if objective not in (RIS_OBJECTIVE_JCAS, RIS_OBJECTIVE_RATE):
        raise ValueError(f"unknown ris objective {objective!r}")
    evals, evecs = np.linalg.eigh(_herm(weight))
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    x = (combiner @ channels.ris_to_user).conj().T @ root
    c = root.conj().T @ (combiner @ channels.bs_to_user @ precoder)
    if objective == RIS_OBJECTIVE_JCAS:
        x = np.hstack([x, channels.ris_to_bs.conj().T])
        c = np.vstack([c, channels.si_los @ precoder])
    else:
        c = c - root.conj().T
    u = channels.bs_to_ris @ precoder
    factor = (x[:, :, None] * u.conj()[:, None, :]).reshape(u.shape[0], -1)
    return factor, np.conj(factor @ c.ravel())


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
    if not 0 < n_streams <= h_eff.shape[1]:
        raise ValueError(f"n_streams {n_streams} must lie in [1, n_tx = {h_eff.shape[1]}]")
    cov = _herm(h_eff.conj().T @ h_eff)
    _, evecs = np.linalg.eigh(cov)
    top = evecs[:, -n_streams:][:, ::-1]
    return np.sqrt(power_budget / n_streams) * top


def jcas_optimize(
    scene: Scene,
    channels: ChannelSet,
    config: JcasConfig,
    coeffs: PathCoefficients,
) -> JcasResult:
    """Run the alternating design until the objective stalls.

    Each outer iteration updates the combiner, the stream weights, the
    precoder (with its multiplier searches), and finally the phase profile,
    after which the radar response derivative is refreshed since it depends
    on the profile.  A phase proposal from the inner solver is kept only
    when it does not increase the recorded objective: the phase quadratics
    penalize through-combiner signal power alongside the interference, so
    an unguarded step can undo precoder progress once the interference is
    small.  Without the surface the profile stays zero, so every reflected
    channel and echo term vanishes.  The trace records the end-of-iteration
    objective, rate, interference power, bound value and multipliers; row
    zero is the initialized state.  Infeasibility of the sensing constraint
    propagates with the iteration index attached.

    What depends only on the phase profile (the effective channel, the SI
    channel and its Gram, and the Fisher core when the bound is enforced)
    is built at the start and again only when the guard accepts a phase,
    from the channels computed to evaluate the proposal, and reaches
    :func:`precoder_update` through its ``phase_terms`` keyword.
    """
    if config.ris_enabled:
        rng = np.random.default_rng([config.seed, 0])
        phi = np.exp(2j * np.pi * rng.random(channels.n_ris))
    else:
        phi = np.zeros(channels.n_ris, dtype=complex)
    sensing = config.sensing_enabled
    constrain = math.isfinite(config.enforced_crb_threshold)
    objective = RIS_OBJECTIVE_JCAS if sensing else RIS_OBJECTIVE_RATE

    def phase_terms(h_eff, leak):
        # the Fisher core comes from ``ctx`` as it is at the call
        if not constrain:
            return _phase_terms(h_eff, leak)
        return _phase_terms(h_eff, leak, ctx.path_response_deriv, ctx.noise_cov)

    noise_user = channels.noise_user
    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar) if sensing else None
    leak = si_channel(channels, phi) if sensing else None
    terms = phase_terms(effective_channel(channels, phi), leak)
    precoder = dominant_precoder(terms.h_eff, config.n_streams, config.power_budget)

    trace = IterationTrace()
    lam0 = mu = 0.0
    previous = _record(
        trace, 0, precoder, ctx, _evaluate(precoder, terms.h_eff, terms.leak, noise_user), lam0, mu
    )

    for it in range(1, config.max_outer + 1):
        combiner = mmse_combiner(terms.h_eff, precoder, noise_user)
        weight = weight_matrix(mse_matrix(terms.h_eff, precoder, noise_user))
        try:
            precoder, lam0, mu = precoder_update(
                combiner,
                weight,
                channels,
                phi,
                config.power_budget,
                crb_threshold=config.enforced_crb_threshold,
                include_si=sensing,
                phase_terms=terms,
            )
        except CrbInfeasibleError as err:
            raise CrbInfeasibleError(
                err.achieved, err.threshold, context=f"outer iteration {it}"
            ) from err
        evaluated = _evaluate(precoder, terms.h_eff, terms.leak, noise_user)
        if config.ris_enabled:
            factor, lin = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
            candidate, _ = ris_optimize(phi, factor, lin, RIS_TOL, MAX_RIS_ITER)
            h_eff = effective_channel(channels, candidate)
            leak = si_channel(channels, candidate) if sensing else None
            proposed = _evaluate(precoder, h_eff, leak, noise_user)
            if proposed[0] <= evaluated[0]:
                phi = candidate
                evaluated = proposed
                if sensing:
                    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
                terms = phase_terms(h_eff, leak)
        current = _record(trace, it, precoder, ctx, evaluated, lam0, mu)
        if abs(current - previous) <= config.outer_tol * max(abs(previous), 1e-300):
            break
        previous = current

    return JcasResult(precoder=precoder, ris_phase=phi, trace=trace)


def _evaluate(precoder, h_eff, leak, noise_user):
    """Recorded objective, downlink rate and SI power of one state, given
    the effective channel and the SI channel of its phase profile.

    The objective is the interference power minus the rate: the
    rate-equivalent value of the weighted-MSE surrogate at the tight
    combiner/weight pair, the quantity the alternating updates provably do
    not increase.  ``leak`` is None when the run does not sense; the SI
    power is then NaN.

    Returns (objective, rate, si_power).
    """
    rate = dl_rate(h_eff, precoder, noise_user)
    value = -rate
    si_power = math.nan
    if leak is not None:
        leak_v = leak @ precoder
        si_power = float(np.real(np.trace(_herm(leak_v @ leak_v.conj().T))))
        value += si_power
    return value, rate, si_power


def _record(trace, iteration, precoder, ctx, evaluated, lam0, mu):
    objective, rate, si_power = evaluated
    crb_value = math.nan
    if ctx is not None:
        try:
            crb_value = aoa_crb(precoder, ctx.path_response_deriv, ctx.noise_cov)
        except UnobservableError:
            crb_value = math.nan
    trace.append(iteration, objective, rate, si_power, crb_value, lam0, mu)
    return objective
