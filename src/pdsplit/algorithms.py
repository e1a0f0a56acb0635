"""Primal-dual splitting iterations, step-size validation, and the solve loop.

PD3O, Chambolle-Pock, Condat-Vu and PDFP share one step, ``primal_dual_step``:
update the dual at the extrapolated point xbar, take a forward-backward primal
step, and cache the gradient at the new point,

    s+ = prox_{delta h*}(s - delta*grad l*(s) + delta*A xbar)
    z+ = x - gamma*grad f(x) - gamma*A^T s+,    x+ = prox_{gamma g}(z+).

The schemes differ only in the next extrapolated point (``EXTRAPOLATIONS``):

    pd3o               2 x+ - z+ - gamma*grad f(x+) - gamma*A^T s+
    pd3o-reformulated  2 x+ - x + gamma*grad f(x) - gamma*grad f(x+)
    condat-vu          2 x+ - x
    chambolle-pock     2 x+ - x, for f = 0
    pdfp               prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)

pd3o is the (z, s) form of the three-operator iteration and costs one g-prox,
one conjugate prox, one gradient, one A and one A^T per pass; the reformulated
rule gives the same iterates without z.  Only these two accept a smooth l*.
AFBA (its gradient point depends on s+), PAPC (pd3o with g = 0) and Davis-Yin
(A = I, gamma*delta = 1) keep their own steps.

Each step function maps a ``SolverState`` to the next one; ``solve`` wires a
chosen step into a stopping rule, optional relaxation, and per-iteration
diagnostics collected into a ``ConvergenceRecord``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .core import (
    INF,
    ConjugateSmoothTerm,
    ProblemSpec,
    ProxTerm,
    SmoothTerm,
    as_vector,
    evaluate_objective,
)
from .exceptions import (
    AlgorithmMisuseError,
    NumericalFailureError,
    StepSizeError,
)
from .linops import LinearMap, estimate_norm_AAt
from .metrics import (
    ConvergenceRecord,
    IterationRow,
    LagrangianProbe,
    MNormContext,
    combined_norm_sq,
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
    """One splitting iterate: (z, s, x) plus the cached gradient of f at x.

    ``z`` is always the argument of the latest g-prox and ``x`` its output
    (for the g-free scheme they coincide), so the pair (z, s) is comparable
    across algorithms.  ``xbar`` is the extrapolated point at which the next
    dual update evaluates A; it is None for the schemes that do not carry one
    (PAPC, Davis-Yin).
    """

    z: np.ndarray
    s: np.ndarray
    x: np.ndarray
    grad_f: np.ndarray | None = None
    xbar: np.ndarray | None = None

    @classmethod
    def fresh(cls, spec: ProblemSpec, steps: StepSizes, z, s) -> "SolverState":
        """State with x = prox_{gamma g}(z), its gradient and the pd3o xbar cached."""
        z = as_vector(z, spec.x_dim, name="z")
        s = as_vector(s, spec.s_dim, name="s")
        x = spec.g.prox(z, steps.gamma)
        state = cls(z=z, s=s, x=x, grad_f=spec.f.gradient(x))
        state.xbar = _pd3o_point(spec, steps.gamma, None, state, spec.A.adjoint_apply(s))
        return state

    def copy(self) -> "SolverState":
        dup = lambda a: None if a is None else a.copy()
        return SolverState(self.z.copy(), self.s.copy(), self.x.copy(),
                           dup(self.grad_f), dup(self.xbar))


def _ensure_finite(v: np.ndarray, sub_step: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise NumericalFailureError(
            f"non-finite values produced in {sub_step}", sub_step=sub_step
        )
    return v


def _require_lstar_zero(spec: ProblemSpec, name: str):
    if not spec.lstar.is_zero:
        raise AlgorithmMisuseError(f"{name} assumes l* = 0; use pd3o for smooth l*")


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
    smooth_lstar: bool = False  # accepts l* != 0
    needs_zero_f: bool = False


def _pd3o_point(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - nxt.z - gamma * nxt.grad_f - gamma * ats


def _gradient_corrected_reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x + gamma * prev.grad_f - gamma * nxt.grad_f


def _reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x


def _forward_backward_point(spec, gamma, prev, nxt, ats):
    return spec.g.prox(nxt.x - gamma * nxt.grad_f - gamma * ats, gamma)


EXTRAPOLATIONS: dict[AlgorithmId, Extrapolation] = {
    AlgorithmId.PD3O: Extrapolation(_pd3o_point, _pd3o_point, smooth_lstar=True),
    AlgorithmId.PD3O_REFORMULATED: Extrapolation(
        _gradient_corrected_reflection, _pd3o_point, smooth_lstar=True),
    AlgorithmId.CONDAT_VU: Extrapolation(_reflection, _pd3o_point),
    AlgorithmId.CHAMBOLLE_POCK: Extrapolation(_reflection, _pd3o_point, needs_zero_f=True),
    AlgorithmId.PDFP: Extrapolation(_forward_backward_point, _forward_backward_point),
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
    state = SolverState(z=z0, s=s0, x=x0, grad_f=spec.f.gradient(x0))
    if algorithm in EXTRAPOLATIONS:
        state.xbar = EXTRAPOLATIONS[algorithm].start(
            spec, gamma, None, state, spec.A.adjoint_apply(s0))
    elif algorithm is AlgorithmId.AFBA:
        w0 = x0 - gamma * state.grad_f - gamma * spec.A.adjoint_apply(s0)
        xbar0 = spec.g.prox(w0, gamma)
        # the prox output is the iterate the scheme carries forward
        state = SolverState(z=w0, s=s0, x=xbar0, grad_f=None, xbar=xbar0)
    return state


# --- step functions -----------------------------------------------------------


def primal_dual_step(
    state: SolverState, spec: ProblemSpec, steps: StepSizes, scheme: AlgorithmId
) -> SolverState:
    """One pass of the shared skeleton, closed by ``scheme``'s xbar+ rule.

    A pd3o state without xbar or a cached gradient is rebuilt from (z, s);
    the other schemes compute a missing gradient and need xbar.
    """
    ext = EXTRAPOLATIONS[scheme]
    if ext.needs_zero_f and not spec.f.is_zero:
        raise AlgorithmMisuseError(f"the {scheme.value} step requires f = 0")
    if not ext.smooth_lstar:
        _require_lstar_zero(spec, f"the {scheme.value} step")
    if state.xbar is None or state.grad_f is None:
        if scheme is AlgorithmId.PD3O:
            state = SolverState.fresh(spec, steps, state.z, state.s)
        elif state.xbar is None:
            raise AlgorithmMisuseError(f"the {scheme.value} step needs state.xbar")
        else:
            state = replace(state, grad_f=spec.f.gradient(state.x))
    gamma, delta = steps.gamma, steps.delta

    arg = state.s + delta * spec.A.apply(state.xbar)
    if not spec.lstar.is_zero:
        arg = arg - delta * spec.lstar.gradient(state.s)
    s_next = _ensure_finite(prox_conjugate(spec.h, arg, delta), "s-update")
    ats = spec.A.adjoint_apply(s_next)
    z_next = state.x - gamma * state.grad_f - gamma * ats
    x_next = _ensure_finite(spec.g.prox(z_next, gamma), "x-update")
    nxt = SolverState(z=z_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next))
    nxt.xbar = _ensure_finite(ext.rule(spec, gamma, state, nxt, ats), "xbar-update")
    return nxt


pd3o_step = partial(primal_dual_step, scheme=AlgorithmId.PD3O)
pd3o_step_reformulated = partial(primal_dual_step, scheme=AlgorithmId.PD3O_REFORMULATED)
chambolle_pock_step = partial(primal_dual_step, scheme=AlgorithmId.CHAMBOLLE_POCK)
pdfp_step = partial(primal_dual_step, scheme=AlgorithmId.PDFP)
condat_vu_step = partial(primal_dual_step, scheme=AlgorithmId.CONDAT_VU)


def papc_step(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Proximal step on h* interleaved with gradient steps, for g = 0 (x == z)."""
    if not spec.g.is_zero:
        raise AlgorithmMisuseError("papc_step requires g = 0")
    _require_lstar_zero(spec, "papc_step")
    gamma, delta = steps.gamma, steps.delta
    x, s = state.x, state.s
    grad = state.grad_f if state.grad_f is not None else spec.f.gradient(x)

    u = x - gamma * grad - gamma * spec.A.adjoint_apply(s)
    s_next = _ensure_finite(
        prox_conjugate(spec.h, s + delta * spec.A.apply(u), delta), "s-update"
    )
    x_next = _ensure_finite(
        x - gamma * grad - gamma * spec.A.adjoint_apply(s_next), "x-update"
    )
    return SolverState(z=x_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next))


def davis_yin_step(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Three-operator step for A = I and gamma*delta = 1.

    z+ = z + prox_{gamma h}(2x - z - gamma*grad f(x)) - x, with the dual
    s+ = delta*(I - prox_{gamma h})(2x - z - gamma*grad f(x)) maintained for
    diagnostics.
    """
    if not spec.A.is_identity:
        raise AlgorithmMisuseError("davis_yin_step requires A = I")
    if abs(steps.gamma * steps.delta - 1.0) > _EPS:
        raise AlgorithmMisuseError("davis_yin_step requires gamma*delta = 1")
    _require_lstar_zero(spec, "davis_yin_step")
    gamma, delta = steps.gamma, steps.delta
    if state.x is None or state.grad_f is None:
        state = SolverState.fresh(spec, steps, state.z, state.s)
    x, z, grad = state.x, state.z, state.grad_f

    w = 2.0 * x - z - gamma * grad
    u = _ensure_finite(spec.h.prox(w, gamma), "h-prox")
    z_next = _ensure_finite(z + u - x, "z-update")
    s_next = delta * (w - u)
    x_next = _ensure_finite(spec.g.prox(z_next, gamma), "x-update")
    return SolverState(z=z_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next))


def afba_step(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Asymmetric forward-backward-adjoint step (the three-function special case).

    s+    = prox_{delta h*}(s + delta*A xbar)
    x+    = xbar - gamma*A^T (s+ - s)
    xbar+ = prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)

    The carried iterate (state.x) is the prox output xbar.
    """
    _require_lstar_zero(spec, "afba_step")
    if state.xbar is None:
        raise AlgorithmMisuseError("afba_step needs state.xbar")
    gamma, delta = steps.gamma, steps.delta
    s = state.s

    s_next = _ensure_finite(
        prox_conjugate(spec.h, s + delta * spec.A.apply(state.xbar), delta), "s-update"
    )
    x_mid = _ensure_finite(
        state.xbar - gamma * spec.A.adjoint_apply(s_next - s), "x-update"
    )
    z_next = x_mid - gamma * spec.f.gradient(x_mid) - gamma * spec.A.adjoint_apply(s_next)
    xbar_next = _ensure_finite(spec.g.prox(z_next, gamma), "xbar-update")
    return SolverState(z=z_next, s=s_next, x=xbar_next, grad_f=None, xbar=xbar_next)


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

    f = SmoothTerm(value=spec.f.value, gradient=count("f_grad", spec.f.gradient),
                   beta=spec.f.beta, is_zero=spec.f.is_zero)
    g = ProxTerm(value=spec.g.value, prox=count("g_prox", spec.g.prox),
                 conjugate_value=spec.g.conjugate_value, is_zero=spec.g.is_zero)
    h = ProxTerm(value=spec.h.value, prox=count("h_prox", spec.h.prox),
                 conjugate_value=spec.h.conjugate_value, is_zero=spec.h.is_zero)
    lstar = ConjugateSmoothTerm(gradient=count("lstar_grad", spec.lstar.gradient),
                                beta_l=spec.lstar.beta_l, is_zero=spec.lstar.is_zero,
                                value=spec.lstar.value)
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
    unless ``force`` is set (the override is recorded in the metadata).  When
    theta != 1 the relaxed update theta*T(z,s) + (1-theta)*(z,s) is applied
    (plain form only) and the cached prox/gradient are refreshed.

    ``reference``, when given as a pair (x_ref, s_ref), populates the
    distance-to-reference column and, for gamma <= beta runs, the ergodic
    gap column evaluated at that probe; the probe's own terms of the
    Lagrangian are computed on the first gap row and reused after.
    ``log_every`` thins the recorded rows, but iterations 0-10 and the final
    iteration are always kept.
    ``hooks`` are called as hook(k, state, next_state, residual) every
    iteration on the solving thread.

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
        norm_AAt = estimate_norm_AAt(spec.A, tol=1e-6, max_iters=500_000)
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
    if theta != 1.0:
        if algorithm is not AlgorithmId.PD3O:
            raise AlgorithmMisuseError("relaxation (theta != 1) is supported for pd3o only")
        theta_cap = 2.0 if beta == INF else 2.0 - steps.gamma / (2.0 * beta)
        if not theta < theta_cap:
            raise StepSizeError(
                f"theta = {theta} must lie in (0, {theta_cap:.6g}) for these steps"
            )

    ctx = MNormContext(steps.gamma, steps.delta, spec.A, norm_AAt=norm_AAt)
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
            z_probe = fixed_point_from_primal_dual(spec, ref_x, ref_s, steps.gamma)
            gap_probe_dist_sq = combined_norm_sq(ctx, z_probe - state.z, ref_s - state.s)

    x_sum = state.x.copy()
    s_sum = np.zeros(spec.s_dim)
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
        res = fixed_point_residual(ctx, state, nxt)
        s_sum += nxt.s

        stop = res <= residual_tol or k == max_iters - 1
        log_this = stop or k <= 10 or (log_every > 0 and k % log_every == 0)
        if log_this:
            # objective values are only defined for the l = indicator-of-0 case
            obj = evaluate_objective(spec, state.x) if spec.lstar.is_zero else math.nan
            dist = None if ref_x is None else float(np.linalg.norm(state.x - ref_x))
            gap = None
            if gap_probe is not None:
                gap = (lagrangian(spec, x_sum / (k + 1), ref_s, gap_probe)
                       - lagrangian(spec, ref_x, s_sum / (k + 1), gap_probe))
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

        if theta != 1.0:
            z_rel = state.z + theta * (nxt.z - state.z)
            s_rel = state.s + theta * (nxt.s - state.s)
            state = SolverState.fresh(ispec, steps, z_rel, s_rel)
        else:
            state = nxt
        x_sum += state.x

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
        "log_every": log_every,
        "oracle_calls": counters.as_dict(),
        "problem": dict(descriptor or {}),
    }
    if gap_probe_dist_sq is not None:
        metadata["gap_probe_dist_sq"] = gap_probe_dist_sq
    return ConvergenceRecord(rows=rows, metadata=metadata, final_state=state)
