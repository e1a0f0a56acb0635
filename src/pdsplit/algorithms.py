"""Primal-dual splitting iterations, step-size validation, and the solve loop.

Seven schemes share one step, ``primal_dual_step``: update the dual at the
extrapolated point xbar, take a forward-backward primal step, and cache the
gradient at the new point,

    s+ = prox_{delta h*}(s - delta*grad l*(s) + delta*A xbar)
    z+ = x - gamma*grad f(x) - gamma*A^T s+,    x+ = prox_{gamma g}(z+).

The schemes differ only in the next extrapolated point (``EXTRAPOLATIONS``):

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

Each step function maps a ``SolverState`` to the next one; ``solve`` wires a
chosen step into a stopping rule and per-iteration diagnostics collected into
a ``ConvergenceRecord``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .core import (
    INF,
    ProblemSpec,
    as_vector,
    evaluate_objective,
)
from .exceptions import (
    AlgorithmMisuseError,
    NumericalFailureError,
    StepSizeError,
)
from .linops import LinearMap
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

_EPS = 1e-12  # slack on non-strict step-size boundaries


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
        return cls(gamma=gamma, delta=lam / gamma, theta=theta)


@dataclass
class SolverState:
    """One splitting iterate: (z, s, x), the gradient of f at x, xbar and A^T s.

    ``z`` is always the argument of the latest g-prox and ``x`` its output
    (for the g-free scheme they coincide), so the pair (z, s) is comparable
    across algorithms.  ``xbar`` is the extrapolated point at which the next
    dual update evaluates A, and ``ats`` is A^T s at this state's s.  Every
    state that ``initial_state`` or a step builds carries all of them; in a
    state built by hand, a missing ``grad_f`` or ``ats`` is computed when a
    step needs it.
    """

    z: np.ndarray
    s: np.ndarray
    x: np.ndarray
    grad_f: np.ndarray | None = None
    xbar: np.ndarray | None = None
    ats: np.ndarray | None = None

    def copy(self) -> "SolverState":
        return SolverState(*(None if getattr(self, f.name) is None
                             else getattr(self, f.name).copy() for f in fields(self)))


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
_IDENTITY = (lambda spec, steps: spec.A.is_identity and abs(steps.lam - 1.0) <= _EPS,
             "A = I and gamma*delta = 1")
_ZERO_LSTAR = (lambda spec, steps: spec.lstar.is_zero, "l* = 0; use pd3o for smooth l*")
_UNRELAXED = (lambda spec, steps: steps.theta == 1.0, "theta = 1; only pd3o relaxes")
_PLAIN = (_ZERO_LSTAR, _UNRELAXED)  # every scheme but the two pd3o forms


def _require(needs, spec: ProblemSpec, steps: StepSizes, scheme: str):
    for holds, what in needs:
        if not holds(spec, steps):
            raise AlgorithmMisuseError(f"the {scheme} step requires {what}")


# --- the shared primal-dual step and its extrapolation table --------------------


@dataclass(frozen=True)
class Extrapolation:
    """One row of the xbar table: the scheme's rules and the problems it accepts.

    ``rule(spec, gamma, prev, nxt, ats)`` gives xbar+ from the states before
    and after the step (nxt.xbar not yet set) and ats = A^T s+.  ``start``
    reads only nxt and ats, so it also gives xbar0 from the initial state.
    """

    rule: Callable
    start: Callable
    needs: tuple = _PLAIN  # what the step requires, checked in order


def _pd3o_point(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - nxt.z - gamma * nxt.grad_f - gamma * ats


def _gradient_corrected_reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x + gamma * prev.grad_f - gamma * nxt.grad_f


def _reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x


def _forward_backward_point(spec, gamma, prev, nxt, ats):
    return spec.g.prox(nxt.x - gamma * nxt.grad_f - gamma * ats, gamma)


EXTRAPOLATIONS: dict[AlgorithmId, Extrapolation] = {
    AlgorithmId.PD3O: Extrapolation(_pd3o_point, _pd3o_point, ()),
    AlgorithmId.PD3O_REFORMULATED: Extrapolation(
        _gradient_corrected_reflection, _pd3o_point, (_UNRELAXED,)),
    AlgorithmId.CONDAT_VU: Extrapolation(_reflection, _pd3o_point),
    AlgorithmId.CHAMBOLLE_POCK: Extrapolation(_reflection, _pd3o_point, (_ZERO_F, *_PLAIN)),
    AlgorithmId.PDFP: Extrapolation(_forward_backward_point, _forward_backward_point),
    AlgorithmId.PAPC: Extrapolation(_pd3o_point, _pd3o_point, (_ZERO_G, *_PLAIN)),
    AlgorithmId.DAVIS_YIN: Extrapolation(_pd3o_point, _pd3o_point, (_IDENTITY, *_PLAIN)),
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
    state.xbar = EXTRAPOLATIONS[algorithm].start(spec, gamma, None, state, state.ats)
    return state


# --- step functions -----------------------------------------------------------


def primal_dual_step(
    state: SolverState, spec: ProblemSpec, steps: StepSizes, scheme: AlgorithmId
) -> SolverState:
    """One pass of the shared skeleton, closed by ``scheme``'s xbar+ rule.

    With theta != 1 (pd3o only), (z+, s+) and A^T s+ are relaxed toward
    (z, s) and A^T s before the g-prox, so the result is the state at
    theta*T(z, s) + (1 - theta)*(z, s).
    A state lacking xbar or the gradient is rebuilt from (z, s) by rows whose
    xbar+ is the pd3o point; the others compute the gradient and need xbar.
    """
    ext = EXTRAPOLATIONS[scheme]
    _require(ext.needs, spec, steps, scheme.value)
    if state.xbar is None or state.grad_f is None:
        if ext.rule is _pd3o_point:
            state = initial_state(spec, steps, scheme, state.z, state.s)
        elif state.xbar is None:
            raise AlgorithmMisuseError(f"the {scheme.value} step needs state.xbar")
        else:
            state = replace(state, grad_f=spec.f.gradient(state.x))
    gamma, delta, theta = steps.gamma, steps.delta, steps.theta

    arg = state.s + delta * spec.A.apply(state.xbar)
    if not spec.lstar.is_zero:
        arg = arg - delta * spec.lstar.gradient(state.s)
    s_next = _ensure_finite(prox_conjugate(spec.h, arg, delta), "s-update")
    ats = spec.A.adjoint_apply(s_next)
    z_next = state.x - gamma * state.grad_f - gamma * ats
    if theta != 1.0:
        ats0 = spec.A.adjoint_apply(state.s) if state.ats is None else state.ats
        z_next = state.z + theta * (z_next - state.z)
        s_next = state.s + theta * (s_next - state.s)
        ats = ats0 + theta * (ats - ats0)
    x_next = _ensure_finite(spec.g.prox(z_next, gamma), "x-update")
    nxt = SolverState(z=z_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next), ats=ats)
    nxt.xbar = _ensure_finite(ext.rule(spec, gamma, state, nxt, ats), "xbar-update")
    return nxt


pd3o_step = partial(primal_dual_step, scheme=AlgorithmId.PD3O)
pd3o_step_reformulated = partial(primal_dual_step, scheme=AlgorithmId.PD3O_REFORMULATED)
chambolle_pock_step = partial(primal_dual_step, scheme=AlgorithmId.CHAMBOLLE_POCK)
pdfp_step = partial(primal_dual_step, scheme=AlgorithmId.PDFP)
condat_vu_step = partial(primal_dual_step, scheme=AlgorithmId.CONDAT_VU)
papc_step = partial(primal_dual_step, scheme=AlgorithmId.PAPC)
davis_yin_step = partial(primal_dual_step, scheme=AlgorithmId.DAVIS_YIN)


def afba_step(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Asymmetric forward-backward-adjoint step (the three-function special case).

    s+    = prox_{delta h*}(s + delta*A xbar)
    x+    = xbar - gamma*(A^T s+ - A^T s)
    xbar+ = prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)

    The carried iterate (state.x) is the prox output xbar; A^T s comes from
    the state, so a pass applies A^T once.
    """
    _require(_PLAIN, spec, steps, "afba")
    if state.xbar is None:
        raise AlgorithmMisuseError("the afba step needs state.xbar")
    gamma, delta = steps.gamma, steps.delta

    s_next = _ensure_finite(
        prox_conjugate(spec.h, state.s + delta * spec.A.apply(state.xbar), delta), "s-update"
    )
    ats = spec.A.adjoint_apply(s_next)
    ats0 = spec.A.adjoint_apply(state.s) if state.ats is None else state.ats
    x_mid = _ensure_finite(state.xbar - gamma * (ats - ats0), "x-update")
    z_next = x_mid - gamma * spec.f.gradient(x_mid) - gamma * ats
    xbar_next = _ensure_finite(spec.g.prox(z_next, gamma), "xbar-update")
    return SolverState(z=z_next, s=s_next, x=xbar_next, xbar=xbar_next, ats=ats)


STEP_FUNCTIONS: dict[AlgorithmId, Callable] = {
    AlgorithmId.PD3O: pd3o_step,
    AlgorithmId.PD3O_REFORMULATED: pd3o_step_reformulated,
    AlgorithmId.CHAMBOLLE_POCK: chambolle_pock_step,
    AlgorithmId.PAPC: papc_step,
    AlgorithmId.DAVIS_YIN: davis_yin_step,
    AlgorithmId.PDFP: pdfp_step,
    AlgorithmId.CONDAT_VU: condat_vu_step,
    AlgorithmId.AFBA: afba_step,
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
    """Check (gamma, delta) against the convergence condition of each scheme.

    With t = gamma*delta*||A A^T|| and r = gamma/(2 beta):

      pd3o, pdfp, papc:  t < 1  and  r < 1
      condat-vu:         t + r <= 1
      afba:              t/2 + sqrt(t/2)/2 + r <= 1
      chambolle-pock:    t <= 1
      davis-yin:         gamma*delta = 1  and  r < 1

    Non-strict boundaries get 1e-12 slack so exact-boundary configurations
    (e.g. t == 1 for chambolle-pock) validate cleanly.
    """
    algorithm = AlgorithmId(algorithm)
    if not (beta > 0 and norm_AAt >= 0):
        raise ValueError("beta must be positive and norm_AAt nonnegative")
    t = steps.lam * norm_AAt
    r = 0.0 if beta == INF else steps.gamma / (2.0 * beta)
    details = {"t": t, "r": r}

    def verdict(ok: bool, msg: str | None) -> StepSizeVerdict:
        return StepSizeVerdict(valid=ok, violated=None if ok else msg, details=details)

    if algorithm in (AlgorithmId.PD3O, AlgorithmId.PD3O_REFORMULATED, AlgorithmId.PDFP,
                     AlgorithmId.PAPC):
        if not t < 1.0:
            return verdict(False, f"gamma*delta*||AA^T|| = {t:.6g} must be < 1")
        if not r < 1.0:
            return verdict(False, f"gamma/(2 beta) = {r:.6g} must be < 1")
        return verdict(True, None)
    if algorithm is AlgorithmId.CONDAT_VU:
        lhs = t + r
        details["condition"] = lhs
        ok = lhs <= 1.0 + _EPS
        return verdict(ok, None if ok else
                       f"gamma*delta*||AA^T|| + gamma/(2 beta) = {lhs:.6g} must be <= 1")
    if algorithm is AlgorithmId.AFBA:
        lhs = 0.5 * t + 0.5 * math.sqrt(0.5 * t) + r
        details["condition"] = lhs
        ok = lhs <= 1.0 + _EPS
        return verdict(ok, None if ok else
                       f"t/2 + sqrt(t/2)/2 + gamma/(2 beta) = {lhs:.6g} must be <= 1")
    if algorithm is AlgorithmId.CHAMBOLLE_POCK:
        ok = t <= 1.0 + _EPS
        return verdict(ok, None if ok else
                       f"gamma*delta*||AA^T|| = {t:.6g} must be <= 1")
    if algorithm is AlgorithmId.DAVIS_YIN:
        if abs(steps.lam - 1.0) > _EPS:
            return verdict(False, f"gamma*delta = {steps.lam:.6g} must equal 1")
        if not r < 1.0:
            return verdict(False, f"gamma = {steps.gamma:.6g} must be < 2*beta")
        return verdict(True, None)
    raise ValueError(f"unknown algorithm {algorithm}")


def check_theta(theta: float, gamma: float, beta: float) -> None:
    """Raise ``StepSizeError`` unless theta = 1 or theta lies in the admissible
    relaxation interval (0, 2 - gamma/(2 beta)) for primal step gamma."""
    cap = 2.0 if beta == INF else 2.0 - gamma / (2.0 * beta)
    if theta != 1.0 and not theta < cap:
        raise StepSizeError(f"theta = {theta} must lie in (0, {cap:.6g}) for these steps")


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


# --- oracle-call instrumentation ------------------------------------------------


@dataclass
class OracleCounters:
    f_grad: int = 0
    g_prox: int = 0
    h_prox: int = 0
    lstar_grad: int = 0
    a_apply: int = 0
    a_adjoint: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _CountingMap(LinearMap):
    def __init__(self, inner: LinearMap, counters: OracleCounters):
        super().__init__(inner.in_dim, inner.out_dim)
        self._inner = inner
        self._counters = counters

    @property
    def is_identity(self) -> bool:
        return self._inner.is_identity

    def norm_AAt_bound(self) -> float:
        return self._inner.norm_AAt_bound()

    def _apply(self, x):
        self._counters.a_apply += 1
        return self._inner.apply(x)

    def _adjoint(self, s):
        self._counters.a_adjoint += 1
        return self._inner.adjoint_apply(s)


def instrument(spec: ProblemSpec) -> tuple[ProblemSpec, OracleCounters]:
    """Wrap a spec so prox/gradient/operator calls are counted."""
    counters = OracleCounters()

    def count(counter_name, fn):
        def wrapped(*args):
            setattr(counters, counter_name, getattr(counters, counter_name) + 1)
            return fn(*args)
        return wrapped

    f = replace(spec.f, gradient=count("f_grad", spec.f.gradient))
    g = replace(spec.g, prox=count("g_prox", spec.g.prox))
    h = replace(spec.h, prox=count("h_prox", spec.h.prox))
    lstar = replace(spec.lstar, gradient=count("lstar_grad", spec.lstar.gradient))
    wrapped = ProblemSpec(f=f, g=g, h=h, lstar=lstar,
                          A=_CountingMap(spec.A, counters))
    return wrapped, counters


# --- the outer loop -------------------------------------------------------------


def solve(
    spec: ProblemSpec,
    algorithm: AlgorithmId | str,
    steps: StepSizes,
    *,
    init: SolverState | None = None,
    max_iters: int = 1000,
    residual_tol: float = 0.0,
    objective_tol: float | None = None,
    norm_AAt: float | None = None,
    reference: tuple | None = None,
    log_every: int = 1,
    hooks: Iterable[Callable] = (),
    force: bool = False,
    descriptor: dict | None = None,
) -> ConvergenceRecord:
    """Iterate the chosen step until the combined-norm fixed-point residual
    drops below ``residual_tol`` or ``max_iters`` is reached.

    Step sizes are validated first; invalid ones raise ``StepSizeError``
    unless ``force`` is set (the override is recorded in the metadata).
    ``norm_AAt`` defaults to ``spec.A.norm_AAt_bound()``.  The residual is
    measured in the combined norm; past gamma*delta*||AA^T|| = 1, where the
    dual metric is indefinite (a forced run), it falls back to the Euclidean
    norm of the step and ``metadata["residual_metric"]`` says which.  When
    theta != 1 (pd3o only) each step returns the relaxed iterate
    theta*T(z,s) + (1-theta)*(z,s), and the residual, the distance between
    consecutive iterates divided by theta, is still ||T(z,s) - (z,s)||.

    ``reference``, when given as a pair (x_ref, s_ref), populates the
    distance-to-reference column and, for gamma <= beta runs, the ergodic
    gap column evaluated at that probe; the probe's own terms of the
    Lagrangian are computed on the first gap row and reused after.  When f
    exposes a residual (``SmoothTerm.residual``) and the scheme's state
    carries the gradient at its own x (every scheme but AFBA), f at the
    running average of x comes from the running mean of the residuals the
    gradient formed, so a gap row applies no data matvec; the gap column then
    agrees with a fresh evaluation to roundoff rather than bit for bit.
    ``log_every`` thins the recorded rows, but iterations 0-10 and the final
    iteration are always kept.
    ``hooks`` are called as hook(k, state, next_state, residual) every
    iteration on the solving thread; on a relaxed run next_state is the
    relaxed iterate.

    Objective-based stopping (``objective_tol``, relative change between
    logged rows) is a secondary criterion for cross-algorithm comparisons.
    ``metadata["stop_reason"]`` says which rule ended the run: ``converged``
    (the residual rule, which wins a tie), ``objective_tol`` or ``max_iters``.
    """
    algorithm = AlgorithmId(algorithm)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    step_fn = STEP_FUNCTIONS[algorithm]
    beta = spec.beta
    if norm_AAt is None:
        norm_AAt = spec.A.norm_AAt_bound()
    verdict = validate_stepsizes(algorithm, steps, beta, norm_AAt)
    forced = False
    if not verdict.valid:
        if not force:
            raise StepSizeError(
                f"step sizes rejected for {algorithm.value}: {verdict.violated}"
            )
        forced = True
        logger.warning("forcing run with invalid step sizes: %s", verdict.violated)

    theta = steps.theta
    check_theta(theta, steps.gamma, beta)

    ctx = MNormContext(steps.gamma, steps.delta, spec.A, norm_AAt=norm_AAt)
    euclidean = steps.lam * norm_AAt > 1.0 and not ctx.semidefinite
    if euclidean:
        logger.warning("gamma*delta*||AA^T|| > 1: dual metric is indefinite; "
                       "residuals use the Euclidean norm")
    if ctx.semidefinite:
        if spec.lstar.is_zero:
            logger.warning(
                "gamma*delta*||AA^T|| = 1: dual metric is only a seminorm; "
                "residuals use the seminorm"
            )
        elif not force:
            raise StepSizeError(
                "gamma*delta*||AA^T|| = 1 requires grad l* constant (l* = 0 here)"
            )

    ispec, counters = instrument(spec)
    state = init.copy() if init is not None else initial_state(ispec, steps, algorithm)

    ref_x = ref_s = None
    gap_probe = None
    gap_probe_dist_sq = None
    if reference is not None:
        ref_x = as_vector(reference[0], spec.x_dim, name="x_ref")
        ref_s = as_vector(reference[1], spec.s_dim, name="s_ref")
        gap_enabled = (
            theta == 1.0
            and steps.gamma <= beta * (1.0 + 1e-12)
            and spec.h.conjugate_value is not None
            and spec.lstar.is_zero
        )
        if gap_enabled:
            gap_probe = LagrangianProbe(ref_x, ref_s)
            if not euclidean:
                z_probe = fixed_point_from_primal_dual(spec, ref_x, ref_s, steps.gamma)
                gap_probe_dist_sq = combined_norm_sq(ctx, z_probe - state.z,
                                                     ref_s - state.s)

    x_sum = state.x.copy()
    s_sum = np.zeros(spec.s_dim)
    # f(xbar) from the mean of the residuals the gradient formed at each x_j,
    # when f exposes them and the state carries the gradient at its own x
    # (AFBA's gradient point is not its x, so its lookups would miss)
    r_sum = None
    if gap_probe is not None and spec.f.residual is not None and state.grad_f is not None:
        r_sum = spec.f.residual(state.x).copy()
    rows: list[IterationRow] = []
    t_start = time.perf_counter()
    stop_reason = "max_iters"
    prev_logged_obj = None
    res = math.inf

    k = 0
    for k in range(max_iters):
        try:
            nxt = step_fn(state, ispec, steps)
        except NumericalFailureError as err:
            err.iteration = k
            raise
        res = (euclidean_residual(state, nxt) if euclidean
               else fixed_point_residual(ctx, state, nxt)) / theta
        s_sum += nxt.s

        stop = res <= residual_tol or k == max_iters - 1
        log_this = stop or k <= 10 or (log_every > 0 and k % log_every == 0)
        if log_this:
            # objective values are only defined for the l = indicator-of-0 case
            obj = (evaluate_objective(spec, state.x, screened=True) if spec.lstar.is_zero
                   else math.nan)
            dist = None if ref_x is None else float(np.linalg.norm(state.x - ref_x))
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
            if (objective_tol is not None and prev_logged_obj is not None
                    and math.isfinite(obj)
                    and abs(obj - prev_logged_obj) <= objective_tol * max(1.0, abs(obj))):
                stop = True
                stop_reason = "objective_tol"
            prev_logged_obj = obj

        for hook in hooks:
            hook(k, state, nxt, res)

        state = nxt
        x_sum += state.x
        if r_sum is not None:
            r_sum += spec.f.residual(state.x)

        if stop:
            if res <= residual_tol:
                stop_reason = "converged"
            break

    metadata = {
        "algorithm": algorithm.value,
        "gamma": steps.gamma,
        "delta": steps.delta,
        "lambda": steps.lam,
        "theta": theta,
        "beta": beta,
        "norm_AAt": norm_AAt,
        "stepsize_valid": verdict.valid,
        "forced": forced,
        "iterations": k + 1,
        "converged": stop_reason == "converged",
        "stop_reason": stop_reason,
        "final_objective": (
            evaluate_objective(spec, state.x) if spec.lstar.is_zero else math.nan
        ),
        "final_residual": res,
        "residual_metric": "euclidean" if euclidean else "M",
        "log_every": log_every,
        "oracle_calls": counters.as_dict(),
        "problem": dict(descriptor or {}),
    }
    if gap_probe_dist_sq is not None:
        metadata["gap_probe_dist_sq"] = gap_probe_dist_sq
    return ConvergenceRecord(rows=rows, metadata=metadata, final_state=state)
