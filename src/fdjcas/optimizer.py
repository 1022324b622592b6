"""Alternating transceiver design: weighted-MMSE combiner/weights, the
power- and CRB-constrained precoder with nested multiplier bisection, the
majorization-minimization phase-profile solver, and the outer loop tying
them together."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _solve_power_constrained(core, rhs, power_budget):
    """Minimizer of the quadratic surrogate under the transmit power cap.

    Returns (precoder, lambda0).  The multiplier stays exactly zero when
    the unconstrained (min-norm) solution already fits the budget
    (complementary slackness); otherwise it is bisected until the power
    matches the budget to the relative tolerance.  The normal equations
    are diagonalized once so each multiplier probe is closed-form.
    """
    evals, evecs = np.linalg.eigh(_herm(core))
    rotated = evecs.conj().T @ rhs
    row_power = np.sum(np.abs(rotated) ** 2, axis=1)

    def precoder_at(lam):
        return evecs @ (rotated / (evals + lam)[:, None])

    def power_at(lam):
        return float(np.sum(row_power / (evals + lam) ** 2))

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
    lo, hi = 0.0, 1.0
    guard = 0
    while power_at(hi) >= power_budget and guard < 200:
        hi *= 2.0
        guard += 1
    for _ in range(MAX_BISECT):
        lam = 0.5 * (lo + hi)
        power = power_at(lam)
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
):
    """Precoder minimizing the weighted-MSE-plus-interference surrogate
    under the power budget and, when finite, the angle-accuracy bound.

    The stationary solution is a regularized normal-equations solve whose
    power multiplier is found by bisection (zero when slack).  When the
    CRB threshold is finite and violated at zero sensing multiplier, the
    multiplier is grown geometrically and bisected toward the smallest
    feasible value; if no multiplier up to ``MU_MAX`` satisfies the bound,
    CrbInfeasibleError reports the best bound achieved.

    Returns (precoder, lambda0, mu).
    """
    phi = np.asarray(phi)
    h_eff = effective_channel(channels, phi)
    rhs = h_eff.conj().T @ combiner.conj().T @ weight
    fh = combiner @ h_eff
    gram = fh.conj().T @ weight @ fh
    if include_si:
        leak = si_channel(channels, phi)
        gram = gram + leak.conj().T @ leak
    gram = _herm(gram)

    constrain = math.isfinite(crb_threshold)
    if constrain:
        if path_response_deriv is None or noise_cov is None:
            raise ValueError("CRB constraint requires the response derivative and noise covariance")
        fisher_mat = fisher_core(path_response_deriv, noise_cov)

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
    residual, returned as (M, d, largest eigenvalue of M).

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
    ``M = F F^H``, ``d = conj(F c)``, and the top eigenvalue comes from the
    small Gram ``F^H F``: at most ``n_streams * (n_streams + n_bs_rx)``
    square instead of surface-sized.
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
    lam_max = float(np.linalg.eigvalsh(_herm(factor.conj().T @ factor))[-1])
    return factor @ factor.conj().T, np.conj(factor @ c.ravel()), lam_max


def _augmented(quad_matrix, linear) -> np.ndarray:
    """The (n+1) x n matrix ``A = [M; 2 d^T]``.  Its product with ``p`` holds
    ``M @ p`` in the first n entries (bit for bit for n >= 2) and
    ``2 d^T p`` in the last, so ``vdot([p; 1], A p).real`` is the objective."""
    aug = np.vstack((quad_matrix, linear)).astype(complex, copy=False)
    # doubling by addition is exact and keeps an infinite entry infinite
    aug[-1] += aug[-1]
    return aug


def _tie_break(phi, q, mag, out) -> np.ndarray:
    """q/|q| into ``out``; elements whose direction is exactly zero keep
    their phase from ``phi``."""
    nonzero = mag.real > 0.0
    out[...] = phi
    out[nonzero] = q[nonzero] / mag[nonzero]
    return out


def ris_objective_value(phi, quad_matrix, linear) -> float:
    """Value of the phase objective p^H M p + 2 Re(d^T p).

    Computed as ``vdot([p; 1], [M; 2 d^T] p).real``, the summation order of
    the values :func:`ris_optimize` returns.
    """
    phi = np.asarray(phi, dtype=complex)
    return float(np.vdot(np.append(phi, 1.0), _augmented(quad_matrix, linear).dot(phi)).real)


def mm_step(phi, quad_matrix, linear, lam_max: float | None = None) -> np.ndarray:
    """One majorization-minimization step on the unit-modulus constraint set:
    ``q = lam_max*p - M p - conj(d)``, then ``q/|q|``, with ``M p`` taken
    from the augmented product of :func:`ris_optimize`.

    Elements whose update direction is exactly zero keep their previous
    phase (tie break).
    """
    phi = np.asarray(phi, dtype=complex)
    if lam_max is None:
        lam_max = float(np.linalg.eigvalsh(_herm(quad_matrix))[-1])
    q, mag = np.empty_like(phi), np.zeros_like(phi)
    np.multiply(lam_max, phi, q)
    np.subtract(q, _augmented(quad_matrix, linear).dot(phi)[:-1], q)
    np.subtract(q, np.conj(linear), q)
    np.abs(q, mag.real)
    return _tie_break(phi, q, mag, np.empty_like(phi))


def ris_optimize(
    phi0,
    quad_matrix,
    linear,
    tol: float = RIS_TOL,
    max_iter: int = MAX_RIS_ITER,
    *,
    lam_max: float | None = None,
):
    """Iterate :func:`mm_step` until the objective change is small.

    Returns (phase profile, array of objective values including the start).
    The stopping rule is relative; it falls back to an absolute comparison
    when the current value is exactly zero.  ``lam_max`` is the top
    eigenvalue of ``quad_matrix`` (e.g. the third value of
    :func:`ris_quadratics`); without it a dense eigensolve supplies it.

    The augmented matrix ``A = [M; 2 d^T]`` is built once per call, and each
    step makes one product ``A p`` and one ``vdot([p; 1], A p)``: the first
    n entries of the product feed the next update and all of it the
    objective value.  The steps run in preallocated buffers, and the phase
    returned is an array of its own; ``phi0`` is not modified.  Phase and
    values match iterated :func:`mm_step` (with the same ``lam_max``) and
    :func:`ris_objective_value` bit for bit.  Raises ValueError for a
    non-square ``quad_matrix``, mismatched lengths or non-finite inputs.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    quad_matrix = np.asarray(quad_matrix)
    linear = np.asarray(linear)
    phi0 = np.asarray(phi0, dtype=complex)
    if quad_matrix.ndim != 2 or quad_matrix.shape[0] != quad_matrix.shape[1]:
        raise ValueError(f"quad_matrix must be square, got shape {quad_matrix.shape}")
    n = quad_matrix.shape[0]
    if phi0.shape != (n,) or linear.shape != (n,):
        raise ValueError(
            f"phi0 {phi0.shape} and linear {linear.shape} must both have length {n} "
            "to match quad_matrix"
        )
    for name, arr in (("quad_matrix", quad_matrix), ("phi0", phi0), ("linear", linear)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} has non-finite entries")
    aug = _augmented(quad_matrix, linear)
    if lam_max is None:
        lam_max = np.linalg.eigvalsh(_herm(quad_matrix))[-1]
    elif not math.isfinite(lam_max):
        raise ValueError("lam_max must be finite")
    product = aug.dot
    conj_linear = np.conj(linear)
    # [p; 1] and A p for the current (p) and next (x) phase; p, m_p, x, m_x
    # are views of their first n entries, swapped with them after each step;
    # |q| goes into the real part of the complex ``mag``, so q/mag needs no cast
    p_aug, x_aug = np.ones(n + 1, dtype=complex), np.ones(n + 1, dtype=complex)
    ap, ax = np.empty_like(p_aug), np.empty_like(p_aug)
    p, x, m_p, m_x = p_aug[:n], x_aug[:n], ap[:n], ax[:n]
    q, mag = np.empty(n, dtype=complex), np.zeros(n, dtype=complex)
    mag_real = mag.real
    multiply, subtract, absolute, divide, vdot = np.multiply, np.subtract, np.absolute, np.divide, np.vdot
    p[...] = phi0
    product(p, ap)
    value = float(vdot(p_aug, ap).real)
    values = [value]
    # A zero direction turns q/|q| into 0/0; the NaN it leaves in the
    # objective sends that step through the tie break instead.
    with np.errstate(invalid="ignore"):
        for _ in range(max_iter):
            multiply(lam_max, p, q)
            subtract(q, m_p, q)
            subtract(q, conj_linear, q)
            absolute(q, mag_real)
            divide(q, mag, x)
            product(x, ax)
            previous, value = value, float(vdot(x_aug, ax).real)
            if value != value:
                _tie_break(p, q, mag, x)
                product(x, ax)
                value = float(vdot(x_aug, ax).real)
            p_aug, x_aug, p, x, ap, ax, m_p, m_x = x_aug, p_aug, x, p, ax, ap, m_x, m_p
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
    """
    if config.ris_enabled:
        rng = np.random.default_rng([config.seed, 0])
        phi = np.exp(2j * np.pi * rng.random(channels.n_ris))
    else:
        phi = np.zeros(channels.n_ris, dtype=complex)
    sensing = config.sensing_enabled
    objective = RIS_OBJECTIVE_JCAS if sensing else RIS_OBJECTIVE_RATE

    noise_user = channels.noise_user
    h_eff = effective_channel(channels, phi)
    precoder = dominant_precoder(h_eff, config.n_streams, config.power_budget)
    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar) if sensing else None

    trace = IterationTrace()
    lam0 = mu = 0.0
    previous = _record(
        trace, 0, precoder, ctx, _evaluate(precoder, phi, channels, config), lam0, mu
    )

    for it in range(1, config.max_outer + 1):
        combiner = mmse_combiner(h_eff, precoder, noise_user)
        weight = weight_matrix(mse_matrix(h_eff, precoder, noise_user))
        try:
            precoder, lam0, mu = precoder_update(
                combiner,
                weight,
                channels,
                phi,
                config.power_budget,
                crb_threshold=config.enforced_crb_threshold,
                path_response_deriv=ctx.path_response_deriv if ctx is not None else None,
                noise_cov=ctx.noise_cov if ctx is not None else None,
                include_si=sensing,
            )
        except CrbInfeasibleError as err:
            raise CrbInfeasibleError(
                err.achieved, err.threshold, context=f"outer iteration {it}"
            ) from err
        if config.ris_enabled:
            quad, lin, lam_max = ris_quadratics(precoder, combiner, weight, channels, objective=objective)
            candidate, _ = ris_optimize(phi, quad, lin, RIS_TOL, MAX_RIS_ITER, lam_max=lam_max)
            proposed = _evaluate(precoder, candidate, channels, config)
            evaluated = _evaluate(precoder, phi, channels, config)
            if proposed[0] <= evaluated[0]:
                phi = candidate
                evaluated = proposed
                h_eff = effective_channel(channels, phi)
                if sensing:
                    ctx = build_sensing_context(scene, phi, coeffs, channels.noise_radar)
        else:
            evaluated = _evaluate(precoder, phi, channels, config)
        current = _record(trace, it, precoder, ctx, evaluated, lam0, mu)
        if abs(current - previous) <= config.outer_tol * max(abs(previous), 1e-300):
            break
        previous = current

    return JcasResult(precoder=precoder, ris_phase=phi, trace=trace)


def _evaluate(precoder, phi, channels, config):
    """Recorded objective, downlink rate and SI power of one state.

    The objective is the interference power minus the rate: the
    rate-equivalent value of the weighted-MSE surrogate at the tight
    combiner/weight pair, the quantity the alternating updates provably do
    not increase.  The SI power is NaN when the run does not sense.

    Returns (objective, rate, si_power).
    """
    rate = dl_rate(effective_channel(channels, phi), precoder, channels.noise_user)
    value = -rate
    si_power = math.nan
    if config.sensing_enabled:
        si_power = float(np.real(np.trace(si_matrix(precoder, phi, channels))))
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
