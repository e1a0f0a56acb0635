"""Primal-dual splitting iterations, step-size validation, and the solve loop.

Seven schemes share one step, ``primal_dual_step``: update the dual at the
extrapolated point xbar, take a forward-backward primal step, and cache the
gradient at the new point,

    s+ = prox_{delta h*}(s - delta*grad l*(s) + delta*A xbar)
    z+ = x - gamma*grad f(x) - gamma*A^T s+,    x+ = prox_{gamma g}(z+).

The schemes differ only in the next extrapolated point:

    pd3o               2 x+ - z+ - gamma*grad f(x+) - gamma*A^T s+
    pd3o-reformulated  2 x+ - x + gamma*grad f(x) - gamma*grad f(x+)
    condat-vu          2 x+ - x
    chambolle-pock     2 x+ - x, for f = 0
    pdfp               prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)
    papc               the pd3o rule, for g = 0
    davis-yin          the pd3o rule, for A = I and gamma*delta = 1

pd3o is the (z, s) form of the three-operator iteration and costs one g-prox,
one conjugate prox, one gradient, one A and one A^T per pass; the reformulated
rule gives the same iterates without z.  Only these two accept a smooth l*,
and only pd3o relaxes (theta != 1).  By Moreau, the davis-yin row is the
three-operator step z+ = z + prox_{gamma h}(w) - x, w = 2x - z - gamma*grad f(x).
AFBA keeps its own step: it takes the gradient at a point formed after s+ and
none at its carried x, two branches the shared step would serve for it alone.

``SCHEMES`` holds one row per scheme: its xbar rule and start, what it
requires of the problem, its step-size conditions and its g-prox calls.

Each step function maps a ``SolverState`` to the next one; ``solve`` wires a
chosen step into a stopping rule and per-iteration diagnostics collected into
a ``ConvergenceRecord``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .core import (
    INF,
    ProblemSpec,
    as_vector,
    at_most,
    evaluate_objective,
)
from .exceptions import (
    AlgorithmMisuseError,
    NumericalFailureError,
    StepSizeError,
)
from .linops import estimate_norm_AAt  # noqa: F401 -- bench/tracer.py rebinds this name
from .metrics import (
    ConvergenceRecord,
    IterationRow,
    LagrangianProbe,
    MNormContext,
    combined_norm_sq,
    euclidean_residual,
    fixed_point_from_primal_dual,
    fixed_point_residual,
    lagrangian,
)
from .prox import prox_conjugate

logger = logging.getLogger(__name__)

# How a value compares with the boundary 1 in a step-size condition.
_RELATIONS = {"<": lambda v: v < 1.0, "<=": lambda v: at_most(v, 1.0),
              "=": lambda v: at_most(v, 1.0) and at_most(1.0, v)}


class AlgorithmId(str, Enum):
    PD3O = "pd3o"
    PD3O_REFORMULATED = "pd3o-reformulated"
    CHAMBOLLE_POCK = "chambolle-pock"
    PAPC = "papc"
    DAVIS_YIN = "davis-yin"
    PDFP = "pdfp"
    CONDAT_VU = "condat-vu"
    AFBA = "afba"


@dataclass(frozen=True)
class StepSizes:
    """Primal step gamma, dual step delta, and the relaxation parameter theta.

    ``lam`` (= gamma*delta) is the parameterization the CLI sweeps over;
    ``from_lambda`` builds steps from it directly.  theta is a constant: any
    value in (0, 2 - gamma/(2 beta)) keeps the relaxed iteration convergent,
    and 1 means no relaxation.
    """

    gamma: float
    delta: float
    theta: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.delta > 0):
            raise ValueError("gamma and delta must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")

    @property
    def lam(self) -> float:
        return self.gamma * self.delta

    @classmethod
    def from_lambda(cls, gamma: float, lam: float, theta: float = 1.0) -> "StepSizes":
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        return cls(gamma=gamma, delta=lam / gamma, theta=theta)


@dataclass
class SolverState:
    """One splitting iterate: (z, s, x), the gradient of f at x, xbar and A^T s.

    ``z`` is always the argument of the latest g-prox and ``x`` its output
    (for the g-free scheme they coincide), so the pair (z, s) is comparable
    across algorithms.  ``xbar`` is the extrapolated point at which the next
    dual update evaluates A, and ``ats`` is A^T s at this state's s.  Every
    state that ``initial_state`` or a step builds carries all of them (AFBA's
    no gradient), and a step refuses a state that lacks one.
    """

    z: np.ndarray
    s: np.ndarray
    x: np.ndarray
    grad_f: np.ndarray | None = None
    xbar: np.ndarray | None = None
    ats: np.ndarray | None = None


def _ensure_finite(v: np.ndarray, sub_step: str) -> np.ndarray:
    # A NaN or inf entry makes v.v non-finite; only then, or on a finite
    # overflow of the sum, is the exact entrywise scan run.  (np.vdot, unlike
    # @, does not warn on that overflow.)
    if not math.isfinite(np.vdot(v, v)) and not np.all(np.isfinite(v)):
        raise NumericalFailureError(
            f"non-finite values produced in {sub_step}", sub_step=sub_step
        )
    return v


# What a step requires of the problem and the steps: (holds(spec, steps), what).
_ZERO_F = (lambda spec, steps: spec.f.is_zero, "f = 0")
_ZERO_G = (lambda spec, steps: spec.g.is_zero, "g = 0")
_IDENTITY = (lambda spec, steps: spec.A.is_identity and _RELATIONS["="](steps.lam),
             "A = I and gamma*delta = 1")
_ZERO_LSTAR = (lambda spec, steps: spec.lstar.is_zero, "l* = 0; use pd3o for smooth l*")
_UNRELAXED = (lambda spec, steps: steps.theta == 1.0, "theta = 1; only pd3o relaxes")
_PLAIN = (_ZERO_LSTAR, _UNRELAXED)  # every scheme but the two pd3o forms


def _require(needs, spec: ProblemSpec, steps: StepSizes, scheme: str):
    for holds, what in needs:
        if not holds(spec, steps):
            raise AlgorithmMisuseError(f"the {scheme} step requires {what}")


def _require_fields(state: SolverState, names: tuple, scheme: str):
    for name in names:
        if getattr(state, name) is None:
            raise AlgorithmMisuseError(
                f"the {scheme} step needs state.{name}; start from initial_state()")


# --- the scheme table ----------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One row of ``SCHEMES``: everything that sets one scheme apart.

    ``conditions`` are the step-size conditions, checked in order, each
    (what, value(t, r, lam), relation to 1).  ``rule(spec, gamma, prev, nxt,
    ats)`` gives xbar+ from the states before and after the shared step
    (nxt.xbar not yet set) and ats = A^T s+; ``start`` reads only nxt and ats,
    so it also gives xbar0 from the initial state.  A row without them keeps
    its own step.  ``needs`` is what the step requires, checked in order, and
    ``g_prox`` the g-prox calls of the start and of one pass.
    """

    conditions: tuple
    rule: Callable | None = None
    start: Callable | None = None
    needs: tuple = _PLAIN
    g_prox: tuple = (1, 1)


def _pd3o_point(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - nxt.z - gamma * nxt.grad_f - gamma * ats


def _gradient_corrected_reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x + gamma * prev.grad_f - gamma * nxt.grad_f


def _reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x


def _forward_backward_point(spec, gamma, prev, nxt, ats):
    return spec.g.prox(nxt.x - gamma * nxt.grad_f - gamma * ats, gamma)


_T_BELOW = ("gamma*delta*||AA^T||", lambda t, r, lam: t, "<")
_R_BELOW = ("gamma/(2 beta)", lambda t, r, lam: r, "<")
_T_AND_R = (_T_BELOW, _R_BELOW)
_T_AT_MOST = (("gamma*delta*||AA^T||", lambda t, r, lam: t, "<="),)

SCHEMES: dict[AlgorithmId, Scheme] = {
    AlgorithmId.PD3O: Scheme(_T_AND_R, _pd3o_point, _pd3o_point, ()),
    AlgorithmId.PD3O_REFORMULATED: Scheme(
        _T_AND_R, _gradient_corrected_reflection, _pd3o_point, (_UNRELAXED,)),
    AlgorithmId.CHAMBOLLE_POCK: Scheme(_T_AT_MOST, _reflection, _pd3o_point,
                                       (_ZERO_F, *_PLAIN)),
    AlgorithmId.PAPC: Scheme(_T_AND_R, _pd3o_point, _pd3o_point, (_ZERO_G, *_PLAIN)),
    AlgorithmId.DAVIS_YIN: Scheme((("gamma*delta", lambda t, r, lam: lam, "="), _R_BELOW),
                                  _pd3o_point, _pd3o_point, (_IDENTITY, *_PLAIN)),
    AlgorithmId.PDFP: Scheme(_T_AND_R, _forward_backward_point, _forward_backward_point,
                             g_prox=(2, 2)),
    AlgorithmId.CONDAT_VU: Scheme(
        (("gamma*delta*||AA^T|| + gamma/(2 beta)", lambda t, r, lam: t + r, "<="),),
        _reflection, _pd3o_point),
    AlgorithmId.AFBA: Scheme((("t/2 + sqrt(t/2)/2 + gamma/(2 beta)",
                               lambda t, r, lam: 0.5 * t + 0.5 * math.sqrt(0.5 * t) + r,
                               "<="),), g_prox=(2, 1)),
}


def initial_state(
    spec: ProblemSpec,
    steps: StepSizes,
    algorithm: AlgorithmId = AlgorithmId.PD3O,
    z0=None,
    s0=None,
) -> SolverState:
    """Default start: z0 = 0, s0 = 0, auxiliary variables derived consistently.

    The extrapolated point comes from the scheme's start rule, so every
    reduced scheme starts on the trajectory of the (z, s) form from the same
    (z0, s0).
    """
    algorithm = AlgorithmId(algorithm)
    gamma = steps.gamma
    z0 = np.zeros(spec.x_dim) if z0 is None else as_vector(z0, spec.x_dim, name="z0")
    s0 = np.zeros(spec.s_dim) if s0 is None else as_vector(s0, spec.s_dim, name="s0")
    x0 = spec.g.prox(z0, gamma)
    state = SolverState(z=z0, s=s0, x=x0, grad_f=spec.f.gradient(x0),
                        ats=spec.A.adjoint_apply(s0))
    if algorithm is AlgorithmId.AFBA:
        w0 = x0 - gamma * state.grad_f - gamma * state.ats
        xbar0 = spec.g.prox(w0, gamma)
        # the prox output is the iterate the scheme carries forward
        return SolverState(z=w0, s=s0, x=xbar0, xbar=xbar0, ats=state.ats)
    state.xbar = SCHEMES[algorithm].start(spec, gamma, None, state, state.ats)
    return state


# --- step functions -----------------------------------------------------------


def primal_dual_step(
    state: SolverState, spec: ProblemSpec, steps: StepSizes, scheme: AlgorithmId | str
) -> SolverState:
    """One pass of the shared skeleton, closed by the xbar+ rule of ``scheme``'s row.

    With theta != 1 (pd3o only), (z+, s+) and A^T s+ are relaxed toward
    (z, s) and A^T s before the g-prox, so the result is the state at
    theta*T(z, s) + (1 - theta)*(z, s).  A state lacking xbar, A^T s or the
    gradient raises ``AlgorithmMisuseError``.
    """
    scheme = AlgorithmId(scheme)
    row = SCHEMES[scheme]
    _require(row.needs, spec, steps, scheme.value)
    _require_fields(state, ("xbar", "ats", "grad_f"), scheme.value)
    gamma, delta, theta = steps.gamma, steps.delta, steps.theta

    arg = state.s + delta * spec.A.apply(state.xbar)
    if not spec.lstar.is_zero:
        arg = arg - delta * spec.lstar.gradient(state.s)
    s_next = _ensure_finite(prox_conjugate(spec.h, arg, delta), "s-update")
    ats = spec.A.adjoint_apply(s_next)
    z_next = state.x - gamma * state.grad_f - gamma * ats
    if theta != 1.0:
        z_next = state.z + theta * (z_next - state.z)
        s_next = state.s + theta * (s_next - state.s)
        ats = state.ats + theta * (ats - state.ats)
    x_next = _ensure_finite(spec.g.prox(z_next, gamma), "x-update")
    nxt = SolverState(z=z_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next), ats=ats)
    nxt.xbar = _ensure_finite(row.rule(spec, gamma, state, nxt, ats), "xbar-update")
    return nxt


def afba_step(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Asymmetric forward-backward-adjoint step (the three-function special case).

    s+    = prox_{delta h*}(s + delta*A xbar)
    x+    = xbar - gamma*(A^T s+ - A^T s)
    xbar+ = prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)

    The carried iterate (state.x) is the prox output xbar; A^T s comes from
    the state, so a pass applies A^T once.
    """
    _require(SCHEMES[AlgorithmId.AFBA].needs, spec, steps, "afba")
    _require_fields(state, ("xbar", "ats"), "afba")
    gamma, delta = steps.gamma, steps.delta

    s_next = _ensure_finite(
        prox_conjugate(spec.h, state.s + delta * spec.A.apply(state.xbar), delta), "s-update"
    )
    ats = spec.A.adjoint_apply(s_next)
    x_mid = _ensure_finite(state.xbar - gamma * (ats - state.ats), "x-update")
    z_next = x_mid - gamma * spec.f.gradient(x_mid) - gamma * ats
    xbar_next = _ensure_finite(spec.g.prox(z_next, gamma), "xbar-update")
    return SolverState(z=z_next, s=s_next, x=xbar_next, xbar=xbar_next, ats=ats)


# Each scheme's step, looked up by ``solve`` at call time: the shared step for
# a row with an xbar rule, AFBA's own step for the row without one.
STEP_FUNCTIONS: dict[AlgorithmId, Callable] = {
    scheme: afba_step if row.rule is None else partial(primal_dual_step, scheme=scheme)
    for scheme, row in SCHEMES.items()
}


# --- step-size conditions -----------------------------------------------------


@dataclass(frozen=True)
class StepSizeVerdict:
    valid: bool
    violated: str | None
    details: dict

    def __bool__(self):
        return self.valid


def validate_stepsizes(
    algorithm: AlgorithmId, steps: StepSizes, beta: float, norm_AAt: float
) -> StepSizeVerdict:
    """Check (gamma, delta) against the conditions of the scheme's row of
    ``SCHEMES``, stated in t = gamma*delta*||A A^T|| and r = gamma/(2 beta)
    (the README lists them).

    Strict bounds are exact.  Non-strict ones and the equality hold up to
    ``core.ROUNDING_SLACK`` (``at_most``), so exact-boundary configurations
    (e.g. t == 1 for chambolle-pock) validate.  A violation message prints
    the value at full precision; ``details`` holds t and r.
    """
    algorithm = AlgorithmId(algorithm)
    if not (beta > 0 and norm_AAt >= 0):
        raise ValueError("beta must be positive and norm_AAt nonnegative")
    t = steps.lam * norm_AAt
    r = 0.0 if beta == INF else steps.gamma / (2.0 * beta)
    details = {"t": t, "r": r}
    for what, value, relation in SCHEMES[algorithm].conditions:
        v = value(t, r, steps.lam)
        if not _RELATIONS[relation](v):
            return StepSizeVerdict(False, f"{what} = {v!r} must be {relation} 1", details)
    return StepSizeVerdict(True, None, details)


def admit(spec: ProblemSpec, algorithm: AlgorithmId | str, steps: StepSizes,
          norm_AAt: float, force: bool = False) -> StepSizeVerdict:
    """Whether ``algorithm`` may run on ``spec`` with ``steps``: the one check
    that ``solve`` and the CLI's validate and compare share.

    In order: the premises of the scheme's row (``AlgorithmMisuseError``);
    theta = 1 or theta in (0, 2 - gamma/(2 beta)) (``StepSizeError``); the
    step-size conditions of ``validate_stepsizes``, whose failure raises
    ``StepSizeError`` unless ``force`` is set.  Returns that verdict.
    """
    algorithm = AlgorithmId(algorithm)
    _require(SCHEMES[algorithm].needs, spec, steps, algorithm.value)
    cap = 2.0 if spec.beta == INF else 2.0 - steps.gamma / (2.0 * spec.beta)
    if steps.theta != 1.0 and not steps.theta < cap:
        raise StepSizeError(f"theta = {steps.theta} must lie in (0, {cap:.6g}) for these steps")
    verdict = validate_stepsizes(algorithm, steps, spec.beta, norm_AAt)
    if not (verdict.valid or force):
        raise StepSizeError(f"step sizes rejected for {algorithm.value}: {verdict.violated}")
    return verdict


# --- optimality / fixed-point checks -------------------------------------------


@dataclass(frozen=True)
class FixedPointResiduals:
    primal: float
    dual: float


def fixed_point_residuals(spec: ProblemSpec, steps: StepSizes, z, s) -> FixedPointResiduals:
    """How far (z, s) is from the fixed-point characterization.

    primal: ||z - (x - gamma*grad f(x) - gamma*A^T s)|| with x = prox_{gamma g}(z);
    dual:   ||s - prox_{delta h*}(s + delta*(A x - grad l*(s)))||, the resolvent
    form of A x in subdiff h*(s) + grad l*(s).
    """
    gamma, delta = steps.gamma, steps.delta
    z = as_vector(z, spec.x_dim, name="z")
    s = as_vector(s, spec.s_dim, name="s")
    x = spec.g.prox(z, gamma)
    r_primal = np.linalg.norm(z - fixed_point_from_primal_dual(spec, x, s, gamma))
    ax = spec.A.apply(x)
    if not spec.lstar.is_zero:
        ax = ax - spec.lstar.gradient(s)
    r_dual = np.linalg.norm(s - prox_conjugate(spec.h, s + delta * ax, delta))
    return FixedPointResiduals(primal=float(r_primal), dual=float(r_dual))


# --- the outer loop -------------------------------------------------------------


def oracle_calls(spec: ProblemSpec, algorithm: AlgorithmId, passes: int,
                 started: bool) -> dict:
    """The oracle calls of ``passes`` steps, after ``initial_state`` if ``started``.

    A pass calls grad f, the h*-prox, A and A^T once each, and grad l* once
    when l* != 0; the start calls grad f and A^T.  The g-prox calls of the
    start and of a pass are the scheme's row's ``g_prox``.
    """
    start = int(started)
    g_start, g_pass = SCHEMES[algorithm].g_prox
    return {"f_grad": start + passes, "g_prox": start * g_start + passes * g_pass,
            "h_prox": passes,
            "lstar_grad": 0 if spec.lstar.is_zero else passes,
            "a_apply": passes, "a_adjoint": start + passes}


def check_loop_settings(max_iters: int, residual_tol: float, log_every: int) -> None:
    """Raise ``ValueError`` for a loop setting ``solve`` cannot honour (a NaN tol too)."""
    for name, value, least in (("max_iters", max_iters, 1), ("residual_tol", residual_tol, 0),
                               ("log_every", log_every, 0)):
        if not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def solve(
    spec: ProblemSpec,
    algorithm: AlgorithmId | str,
    steps: StepSizes,
    *,
    init: SolverState | None = None,
    max_iters: int = 1000,
    residual_tol: float = 0.0,
    norm_AAt: float | None = None,
    reference: tuple | None = None,
    log_every: int = 1,
    hooks: Iterable[Callable] = (),
    force: bool = False,
) -> ConvergenceRecord:
    """Iterate the chosen step until the combined-norm fixed-point residual
    drops below ``residual_tol`` or ``max_iters`` is reached.

    ``admit`` checks the scheme's premises, theta and the step sizes before
    any oracle call; invalid step sizes raise ``StepSizeError`` unless
    ``force`` is set (the override is recorded in the metadata).
    ``norm_AAt`` defaults to ``spec.A.norm_AAt_bound()``.  The residual is
    measured in the combined norm, in the metric regime ``MNormContext`` reads
    off t = gamma*delta*norm_AAt: a norm for t < 1, a seminorm (with a
    warning) at t = 1 up to ``core.ROUNDING_SLACK``, and past that, where the
    metric is indefinite (a forced run, or AFBA), the Euclidean norm of the
    step; ``metadata["residual_metric"]`` says which.  When
    theta != 1 (pd3o only) each step returns the relaxed iterate
    theta*T(z,s) + (1-theta)*(z,s), and the residual, the distance between
    consecutive iterates divided by theta, is still ||T(z,s) - (z,s)||.

    ``reference``, when given as a pair (x_ref, s_ref), populates the
    distance-to-reference column and, for gamma <= beta runs, the ergodic
    gap column evaluated at that probe; the probe's own terms of the
    Lagrangian are computed on the first gap row and reused after.  When f
    exposes a residual (``SmoothTerm.residual``), each iterate's residual is
    fetched once, right after its step, and feeds its row's objective
    (bit-identical to a fresh evaluation) and, with a gap, the running mean
    of residuals that gives f at the running average of x with no data
    matvec (equal to a fresh evaluation to roundoff).  AFBA's fetch is a
    matvec, so it fetches only for gap rows at ``log_every == 1``; otherwise
    its gap evaluates f at the average afresh.
    ``log_every`` thins the recorded rows, but iterations 0-10 and the final
    iteration are always kept.
    ``hooks`` are called as hook(k, state, next_state, residual) every
    iteration on the solving thread; on a relaxed run next_state is the
    relaxed iterate.  An ``init`` lacking xbar, A^T s or (but for AFBA) the
    gradient, which ``initial_state`` sets, makes the first step raise
    ``AlgorithmMisuseError``.
    ``metadata["oracle_calls"]`` is declared by ``oracle_calls``, not counted:
    the start's calls if ``solve`` built the state, plus one pass's per
    iteration; the diagnostics' calls are not in it.
    ``metadata["stop_reason"]`` says which rule ended the run: ``converged``
    (the residual rule, which wins on the last iteration) or ``max_iters``.
    """
    algorithm = AlgorithmId(algorithm)
    check_loop_settings(max_iters, residual_tol, log_every)
    step_fn = STEP_FUNCTIONS[algorithm]
    beta = spec.beta
    if norm_AAt is None:
        norm_AAt = spec.A.norm_AAt_bound()
    verdict = admit(spec, algorithm, steps, norm_AAt, force)
    if not verdict.valid:
        logger.warning("forcing run with invalid step sizes: %s", verdict.violated)

    theta = steps.theta

    ctx = MNormContext(steps.gamma, steps.delta, spec.A, norm_AAt=norm_AAt)
    euclidean = ctx.indefinite
    if euclidean:
        logger.warning("gamma*delta*||AA^T|| > 1: dual metric is indefinite; "
                       "residuals use the Euclidean norm")
    elif ctx.semidefinite:
        logger.warning("gamma*delta*||AA^T|| = 1: dual metric is only a seminorm; "
                       "residuals use the seminorm")

    state = initial_state(spec, steps, algorithm) if init is None else init

    ref_x = ref_s = gap_probe = gap_probe_dist_sq = None
    if reference is not None:
        ref_x = as_vector(reference[0], spec.x_dim, name="x_ref")
        ref_s = as_vector(reference[1], spec.s_dim, name="s_ref")
        if (theta == 1.0 and at_most(steps.gamma, beta)
                and spec.h.conjugate_value is not None and spec.lstar.is_zero):
            gap_probe = LagrangianProbe(ref_x, ref_s)

    # f's residual at each iterate, fetched once and carried to its row.  Every
    # step but AFBA's takes the gradient at its new x, so a fetch finds it in
    # f's memo; AFBA's gradient point is not its x, so there a fetch is a
    # matvec, made only when every row is logged and the gap sums residuals.
    residual_of = spec.f.residual
    fetch = residual_of is not None and (algorithm is not AlgorithmId.AFBA
                                         or (gap_probe is not None and log_every == 1))
    r = residual_of(state.x) if fetch else None
    if gap_probe is not None:
        if not euclidean:
            z_probe = fixed_point_from_primal_dual(spec, ref_x, ref_s, steps.gamma)
            gap_probe_dist_sq = combined_norm_sq(ctx, z_probe - state.z, ref_s - state.s)
        x_sum, s_sum = state.x.copy(), np.zeros(spec.s_dim)
        r_sum = r.copy() if fetch else None
    rows: list[IterationRow] = []
    t_start = time.perf_counter()
    res = math.inf

    k = 0
    for k in range(max_iters):
        try:
            nxt = step_fn(state, spec, steps)
        except NumericalFailureError as err:
            err.iteration = k
            raise
        r_next = residual_of(nxt.x) if fetch else None
        res = (euclidean_residual(state, nxt) if euclidean
               else fixed_point_residual(ctx, state, nxt)) / theta
        if gap_probe is not None:
            s_sum += nxt.s

        stop = res <= residual_tol or k == max_iters - 1
        log_this = stop or k <= 10 or (log_every > 0 and k % log_every == 0)
        if log_this:
            # objective values are only defined for the l = indicator-of-0 case
            obj = (evaluate_objective(spec, state.x, residual=r, screened=True)
                   if spec.lstar.is_zero else math.nan)
            dist = None if ref_x is None else math.sqrt(np.vdot(d := state.x - ref_x, d))
            gap = None
            if gap_probe is not None:
                r_bar = None if r_sum is None else r_sum / (k + 1)
                gap = (lagrangian(spec, x_sum / (k + 1), ref_s, gap_probe,
                                  residual=r_bar, screened=True)
                       - lagrangian(spec, ref_x, s_sum / (k + 1), gap_probe, screened=True))
            rows.append(IterationRow(
                iter=k, objective=obj, residual_im=res, dist_to_ref=dist, gap=gap,
                wall_time_s=time.perf_counter() - t_start,
            ))

        for hook in hooks:
            hook(k, state, nxt, res)

        state, r = nxt, r_next
        if gap_probe is not None:
            x_sum += state.x
            if r_sum is not None:
                r_sum += r

        if stop:
            break

    stop_reason = "converged" if res <= residual_tol else "max_iters"
    metadata = {
        "algorithm": algorithm.value,
        "gamma": steps.gamma,
        "delta": steps.delta,
        "lambda": steps.lam,
        "theta": theta,
        "beta": beta,
        "norm_AAt": norm_AAt,
        "stepsize_valid": verdict.valid,
        "forced": not verdict.valid,
        "iterations": k + 1,
        "converged": stop_reason == "converged",
        "stop_reason": stop_reason,
        "final_objective": (
            evaluate_objective(spec, state.x, residual=r) if spec.lstar.is_zero else math.nan
        ),
        "final_residual": res,
        "residual_metric": "euclidean" if euclidean else "M",
        "log_every": log_every,
        "oracle_calls": oracle_calls(spec, algorithm, k + 1, started=init is None),
    }
    if gap_probe_dist_sq is not None:
        metadata["gap_probe_dist_sq"] = gap_probe_dist_sq
    return ConvergenceRecord(rows=rows, metadata=metadata, final_state=state)
