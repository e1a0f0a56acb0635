"""Primal-dual splitting iterations, step-size validation, and the solve loop.

Seven schemes share one pass: update the dual at the extrapolated point xbar,
take a forward-backward primal step, and cache the gradient at the new point,

    s+ = prox_{delta h*}(s - delta*grad l*(s) + delta*A xbar)
    z+ = x - gamma*(grad f(x) + A^T s+),    x+ = prox_{gamma g}(z+).

The schemes differ only in the next extrapolated point:

    pd3o               2 x+ - z+ - gamma*(grad f(x+) + A^T s+)
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
AFBA keeps its own pass: it takes the gradient at a point formed after s+ and
none at its carried x, two branches the shared pass would serve for it alone.

``SCHEMES`` holds one row per scheme: its xbar rule and start, what it
requires of the problem, its step-size conditions and its g-prox calls.

``STEP_FUNCTIONS`` maps each scheme to its bare pass, a map from one
``SolverState`` to the next that makes no check.  ``primal_dual_step`` is the
one checked pass: premises and state fields before it, finiteness after.
``solve`` checks once on entry; each iteration is a bare pass, its residual,
its screen and the hooks, the first of which (``_Rows``) records the rows.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, replace
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
    GeometryViolationError,
    NumericalFailureError,
    StepSizeError,
)
from .linops import LinearMap
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

# Nothing calls this name: bench/tracer.py rebinds it, and it goes when that rebinding does.
estimate_norm_AAt = LinearMap.norm_AAt_bound

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
        # gamma/delta weighs the dual metric M, so it must be finite as well
        if not (0 < self.gamma < INF and 0 < self.delta < INF and self.gamma / self.delta < INF):
            raise ValueError("gamma, delta and gamma/delta must be positive and finite, got "
                             f"gamma={self.gamma!r} delta={self.delta!r}")
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


def _name_non_finite(state: SolverState, nxt: SolverState, gamma: float, afba: bool,
                     iteration: int | None = None) -> None:
    """Raise ``NumericalFailureError`` for the first of s+, x+ (AFBA: its gradient
    point) and xbar+ of the pass from ``state`` to ``nxt`` with a NaN or inf entry."""
    x = state.xbar - gamma * (nxt.ats - state.ats) if afba else nxt.x
    for sub_step, v in (("s-update", nxt.s), ("x-update", x), ("xbar-update", nxt.xbar)):
        if not np.all(np.isfinite(v)):
            raise NumericalFailureError(f"non-finite values produced in {sub_step}",
                                        sub_step=sub_step, iteration=iteration)


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


def _check_fields(state: SolverState, scheme: AlgorithmId):
    """Refuse a state that lacks a field the scheme's pass reads."""
    for name in ("xbar", "ats") + (() if SCHEMES[scheme].rule is None else ("grad_f",)):
        if getattr(state, name) is None:
            raise AlgorithmMisuseError(
                f"the {scheme.value} step needs state.{name}; start from initial_state()")


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


def _forward(x, grad, ats, gamma):
    """The forward step x - gamma*(grad + ats), in one new array."""
    out = grad + ats
    out *= -gamma
    out += x
    return out


def _pd3o_point(spec, gamma, prev, nxt, ats):
    out = _forward(nxt.x, nxt.grad_f, ats, gamma)
    out += nxt.x
    out -= nxt.z
    return out


def _gradient_corrected_reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x + gamma * prev.grad_f - gamma * nxt.grad_f


def _reflection(spec, gamma, prev, nxt, ats):
    return 2.0 * nxt.x - prev.x


def _forward_backward_point(spec, gamma, prev, nxt, ats):
    return spec.g.prox(_forward(nxt.x, nxt.grad_f, ats, gamma), gamma)


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
        w0 = _forward(x0, state.grad_f, state.ats, gamma)
        xbar0 = spec.g.prox(w0, gamma)
        # the prox output is the iterate the scheme carries forward
        return SolverState(z=w0, s=s0, x=xbar0, xbar=xbar0, ats=state.ats)
    state.xbar = SCHEMES[algorithm].start(spec, gamma, None, state, state.ats)
    return state


# --- step functions -----------------------------------------------------------


def _shared_pass(state: SolverState, spec: ProblemSpec, steps: StepSizes,
                 scheme: AlgorithmId) -> SolverState:
    """One pass of the shared skeleton, closed by the xbar+ rule of ``scheme``'s row.

    With theta != 1 (pd3o only), (z+, s+) and A^T s+ are relaxed toward
    (z, s) and A^T s before the g-prox, so the result is the state at
    theta*T(z, s) + (1 - theta)*(z, s).
    """
    gamma, delta, theta = steps.gamma, steps.delta, steps.theta

    arg = delta * spec.A.apply(state.xbar)
    arg += state.s
    if not spec.lstar.is_zero:
        arg = arg - delta * spec.lstar.gradient(state.s)
    s_next = prox_conjugate(spec.h, arg, delta)
    ats = spec.A.adjoint_apply(s_next)
    z_next = _forward(state.x, state.grad_f, ats, gamma)
    if theta != 1.0:
        z_next = state.z + theta * (z_next - state.z)
        s_next = state.s + theta * (s_next - state.s)
        ats = state.ats + theta * (ats - state.ats)
    x_next = spec.g.prox(z_next, gamma)
    nxt = SolverState(z=z_next, s=s_next, x=x_next, grad_f=spec.f.gradient(x_next), ats=ats)
    nxt.xbar = SCHEMES[scheme].rule(spec, gamma, state, nxt, ats)
    return nxt


def _afba_pass(state: SolverState, spec: ProblemSpec, steps: StepSizes) -> SolverState:
    """Asymmetric forward-backward-adjoint pass (the three-function special case).

    s+    = prox_{delta h*}(s + delta*A xbar)
    x+    = xbar - gamma*(A^T s+ - A^T s)
    xbar+ = prox_{gamma g}(x+ - gamma*grad f(x+) - gamma*A^T s+)

    The carried iterate (state.x) is the prox output xbar; A^T s comes from
    the state, so a pass applies A^T once.
    """
    gamma, delta = steps.gamma, steps.delta

    arg = delta * spec.A.apply(state.xbar)
    arg += state.s
    s_next = prox_conjugate(spec.h, arg, delta)
    ats = spec.A.adjoint_apply(s_next)
    x_mid = state.xbar - gamma * (ats - state.ats)
    z_next = _forward(x_mid, spec.f.gradient(x_mid), ats, gamma)
    xbar_next = spec.g.prox(z_next, gamma)
    return SolverState(z=z_next, s=s_next, x=xbar_next, xbar=xbar_next, ats=ats)


# Each scheme's bare pass, called as fn(state, spec, steps) and looked up by
# ``solve`` at call time: the shared pass for a row with an xbar rule, AFBA's
# own pass for the row without one.
STEP_FUNCTIONS: dict[AlgorithmId, Callable] = {
    scheme: _afba_pass if row.rule is None else partial(_shared_pass, scheme=scheme)
    for scheme, row in SCHEMES.items()
}


def primal_dual_step(state: SolverState, spec: ProblemSpec, steps: StepSizes,
                     scheme: AlgorithmId | str) -> SolverState:
    """The pass of ``STEP_FUNCTIONS[scheme]`` (by id or name), checked: a broken
    premise or a state lacking a field the pass reads raises ``AlgorithmMisuseError``
    before any oracle call, and a NaN or inf in s+, x+ (AFBA: its gradient point)
    or xbar+ raises ``NumericalFailureError``."""
    scheme = AlgorithmId(scheme)
    _require(SCHEMES[scheme].needs, spec, steps, scheme.value)
    _check_fields(state, scheme)
    nxt = STEP_FUNCTIONS[scheme](state, spec, steps)
    _name_non_finite(state, nxt, steps.gamma, afba=scheme is AlgorithmId.AFBA)
    return nxt


# --- step-size conditions -----------------------------------------------------


@dataclass(frozen=True)
class StepSizeVerdict:
    valid: bool
    violated: str | None
    details: dict
    norm_AAt: float

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
            return StepSizeVerdict(False, f"{what} = {v!r} must be {relation} 1", details,
                                   norm_AAt)
    return StepSizeVerdict(True, None, details, norm_AAt)


def admit(spec: ProblemSpec, algorithm: AlgorithmId | str, steps: StepSizes,
          norm_AAt: float | None, force: bool = False) -> StepSizeVerdict:
    """Whether ``algorithm`` may run on ``spec`` with ``steps``: the one check
    that ``solve`` and the CLI's validate and compare share.

    In order: the premises of the scheme's row (``AlgorithmMisuseError``);
    theta = 1 or theta in (0, 2 - gamma/(2 beta)) (``StepSizeError``); the
    step-size conditions of ``validate_stepsizes``, whose failure raises
    ``StepSizeError`` unless ``force`` is set.  Returns that verdict, with the
    ``norm_AAt`` used: None reads ``spec.A.norm_AAt_bound()`` after theta.
    """
    algorithm = AlgorithmId(algorithm)
    _require(SCHEMES[algorithm].needs, spec, steps, algorithm.value)
    cap = 2.0 if spec.beta == INF else 2.0 - steps.gamma / (2.0 * spec.beta)
    if steps.theta != 1.0 and not steps.theta < cap:
        raise StepSizeError(f"theta = {steps.theta} must lie in (0, {cap:.6g}) for these steps")
    if norm_AAt is None:
        norm_AAt = spec.A.norm_AAt_bound()
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


def averagedness_inequality_check(spec: ProblemSpec, steps: StepSizes, pairs: Iterable) -> float:
    """Numerically certify the one-step averagedness inequality.

    For each pair ((z1, s1), (z2, s2)) applies one unrelaxed pd3o step T
    (theta = 1, whatever ``steps.theta`` is) to both and evaluates

        ||out-diff||^2 - ||in-diff||^2 + c * ||displacement-diff||^2,

    all in the combined norm, with c = (2*beta - gamma) / (2*beta).  Returns
    the maximum over pairs; a nonpositive value (up to roundoff) certifies the
    contraction.  When f = 0 (beta = inf) the coefficient becomes 1 and the
    same expression is the firm-nonexpansiveness inequality.
    """
    steps = replace(steps, theta=1.0)
    beta, gamma = spec.beta, steps.gamma
    coeff = 1.0 if beta == INF else (2.0 * beta - gamma) / (2.0 * beta)
    ctx = MNormContext(gamma, steps.delta, spec.A)
    worst = -INF
    for pair in pairs:
        st1, st2 = (initial_state(spec, steps, "pd3o", z, s) for z, s in pair)
        out1, out2 = (primal_dual_step(st, spec, steps, AlgorithmId.PD3O) for st in (st1, st2))
        out_diff = combined_norm_sq(ctx, out1.z - out2.z, out1.s - out2.s)
        in_diff = combined_norm_sq(ctx, st1.z - st2.z, st1.s - st2.s)
        disp = combined_norm_sq(ctx, (out1.z - st1.z) - (out2.z - st2.z),
                                (out1.s - st1.s) - (out2.s - st2.s))
        worst = max(worst, out_diff - in_diff + coeff * disp)
    return worst


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
    """Raise ``ValueError`` for a loop setting ``solve`` cannot honour: a count that
    is not an integer (numpy's pass), or a value below its least (a NaN tol too)."""
    for name, value, least in (("max_iters", max_iters, 1), ("residual_tol", residual_tol, 0),
                               ("log_every", log_every, 0)):
        if name != "residual_tol" and not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


class _Rows:
    """The rows of one ``solve``, kept by its first hook, hook(k, state, nxt, res).

    Row k holds ``state.x`` and the residual ``res`` of the pass that leaves
    it; rows 0-10, every ``log_every``-th and the last are logged.
    ``reference``, a pair (x_ref, s_ref) or None, populates the
    distance-to-reference column and, for gamma <= beta runs, the ergodic gap
    at that probe, whose own terms of the Lagrangian (A^T s_ref too) are kept.
    Call k adds x_k and s_{k+1} to the gap's running sums and, when f exposes
    ``SmoothTerm.residual``, f's residual at x_k, whose mean gives f at the
    mean of x with no data matvec (equal to a fresh evaluation to roundoff).
    Objectives are ``evaluate_objective`` at the iterate, whose f reads f's
    memo.  AFBA's residual is a matvec, so it is summed only at
    ``log_every == 1``, where every iterate's row reads it anyway.
    """

    def __init__(self, spec, steps, ctx, state, reference, last, residual_tol, log_every, afba):
        self.spec, self.last, self.tol, self.log_every = spec, last, residual_tol, log_every
        self.ref_x = self.ref_s = self.probe = self.gap_probe_dist_sq = None
        if reference is not None:
            try:
                ref_x, ref_s = reference
            except (TypeError, ValueError):
                raise ValueError("reference must be an (x_ref, s_ref) pair") from None
            self.ref_x = as_vector(ref_x, spec.x_dim, name="x_ref")
            self.ref_s = as_vector(ref_s, spec.s_dim, name="s_ref")
            if (steps.theta == 1.0 and at_most(steps.gamma, spec.beta)
                    and spec.h.conjugate_value is not None and spec.lstar.is_zero):
                self.probe = LagrangianProbe(self.ref_x, self.ref_s)
        if self.probe is not None:
            if not ctx.indefinite:
                z_probe = fixed_point_from_primal_dual(spec, self.ref_x, self.ref_s, steps.gamma)
                self.gap_probe_dist_sq = combined_norm_sq(ctx, z_probe - state.z,
                                                          self.ref_s - state.s)
            # the running sums, arrays from the first call on
            self.x_sum = self.s_sum = 0.0
            self.r_sum = (0.0 if spec.f.residual is not None and (not afba or log_every == 1)
                          else None)
        self.rows, self.t_start = [], time.perf_counter()

    def __call__(self, k, state, nxt, res):
        if self.probe is not None:
            self.x_sum += state.x
            self.s_sum += nxt.s
            if self.r_sum is not None:
                self.r_sum += self.spec.f.residual(state.x)
        if (res <= self.tol or k <= 10 or k == self.last
                or (self.log_every > 0 and k % self.log_every == 0)):
            self._row(k, state, res)

    def _row(self, k, state, res):
        spec, n = self.spec, k + 1
        obj = self.objective(state.x)
        dist = None if self.ref_x is None else math.sqrt(np.vdot(d := state.x - self.ref_x, d))
        gap = None if self.probe is None else (
            lagrangian(spec, self.x_sum / n, self.ref_s, self.probe, screened=True,
                       residual=None if self.r_sum is None else self.r_sum / n)
            - lagrangian(spec, self.ref_x, self.s_sum / n, self.probe, screened=True))
        self.rows.append(IterationRow(iter=k, objective=obj, residual_im=res, dist_to_ref=dist,
                                      gap=gap, wall_time_s=time.perf_counter() - self.t_start))

    def objective(self, x) -> float:
        """The objective at an iterate of ``solve``, which its screen has checked."""
        return (evaluate_objective(self.spec, x, screened=True) if self.spec.lstar.is_zero
                else math.nan)


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
    ``force`` is set (recorded in the metadata).  ``norm_AAt`` defaults to
    ``spec.A.norm_AAt_bound()``.  The residual is measured in the combined
    norm, in the regime ``MNormContext`` reads off t = gamma*delta*norm_AAt: a
    norm for t < 1, a seminorm (with a warning) at t = 1 up to
    ``core.ROUNDING_SLACK``, and past that, where the metric is indefinite (a
    forced run, or AFBA), the Euclidean norm of the step;
    ``metadata["residual_metric"]`` says which.  When theta != 1 (pd3o only)
    each step returns the relaxed iterate theta*T(z,s) + (1-theta)*(z,s), and
    the residual, the distance between consecutive iterates divided by theta,
    is still ||T(z,s) - (z,s)||.

    Each iteration is a pass, its residual, its screen and the hooks: first
    ``_Rows``, which records the rows, then ``hooks``, each called as
    hook(k, state, next_state, residual) on the solving thread (next_state is
    relaxed on a relaxed run).  Checks run once, on entry: the loop settings
    (a count that is not an integer raises ``ValueError``), ``admit``, the
    start's fields (``AlgorithmMisuseError`` if an ``init`` lacks one) and the
    reference (``ValueError`` if it is not a pair).  Each bare pass of
    ``STEP_FUNCTIONS`` is screened once: its residual covers z+ and s+, a dot
    product xbar+ (and for pdfp, whose xbar+ is a g-prox of x+, x+).  A failed
    screen scans s+, x+ and xbar+; a NaN or inf raises ``NumericalFailureError``
    with its ``sub_step`` and ``iteration``.
    ``metadata["oracle_calls"]`` is declared by ``oracle_calls``, not counted:
    the start's calls if ``solve`` built the state, plus one pass's per
    iteration; the diagnostics' calls are not in it.
    ``metadata["stop_reason"]`` says which rule ended the run: ``converged``
    (the residual rule, which wins on the last iteration) or ``max_iters``.
    """
    algorithm = AlgorithmId(algorithm)
    check_loop_settings(max_iters, residual_tol, log_every)
    step_fn = STEP_FUNCTIONS[algorithm]
    verdict = admit(spec, algorithm, steps, norm_AAt, force)
    if not verdict.valid:
        logger.warning("forcing run with invalid step sizes: %s", verdict.violated)

    ctx = MNormContext(steps.gamma, steps.delta, spec.A, norm_AAt=verdict.norm_AAt)
    if ctx.indefinite:
        logger.warning("gamma*delta*||AA^T|| > 1: dual metric is indefinite; "
                       "residuals use the Euclidean norm")
    elif ctx.semidefinite:
        logger.warning("gamma*delta*||AA^T|| = 1: dual metric is only a seminorm; "
                       "residuals use the seminorm")

    state = initial_state(spec, steps, algorithm) if init is None else init
    # once: every state a pass returns carries what the next one reads
    _check_fields(state, algorithm)
    afba, screen_x = algorithm is AlgorithmId.AFBA, algorithm is AlgorithmId.PDFP
    rows = _Rows(spec, steps, ctx, state, reference, max_iters - 1, residual_tol, log_every, afba)
    hooks = (rows, *hooks)

    for k in range(max_iters):  # at least once: check_loop_settings wants max_iters >= 1
        nxt = step_fn(state, spec, steps)
        try:
            res = (euclidean_residual(state, nxt) if ctx.indefinite
                   else fixed_point_residual(ctx, state, nxt)) / steps.theta
        except GeometryViolationError:  # a non-finite pass is named first
            _name_non_finite(state, nxt, steps.gamma, afba, k)
            raise
        # the pass's one finiteness screen: res covers z+ and s+, xbar+ the rest; pdfp's
        # xbar+ is a g-prox of x+, which may map a NaN or inf back, so x+ as well
        if not (math.isfinite(res) and math.isfinite(np.vdot(nxt.xbar, nxt.xbar))
                and (not screen_x or math.isfinite(np.vdot(nxt.x, nxt.x)))):
            _name_non_finite(state, nxt, steps.gamma, afba, k)
        for hook in hooks:
            hook(k, state, nxt, res)
        state = nxt
        if res <= residual_tol:
            break

    stop_reason = "converged" if res <= residual_tol else "max_iters"
    metadata = {
        "algorithm": algorithm.value, "gamma": steps.gamma, "delta": steps.delta,
        "lambda": steps.lam, "theta": steps.theta, "beta": spec.beta, "norm_AAt": verdict.norm_AAt,
        "stepsize_valid": verdict.valid, "forced": not verdict.valid, "iterations": k + 1,
        "converged": stop_reason == "converged", "stop_reason": stop_reason,
        "final_objective": rows.objective(state.x), "final_residual": res,
        "residual_metric": "euclidean" if ctx.indefinite else "M", "log_every": log_every,
        "oracle_calls": oracle_calls(spec, algorithm, k + 1, started=init is None),
    }
    if rows.gap_probe_dist_sq is not None:
        metadata["gap_probe_dist_sq"] = rows.gap_probe_dist_sq
    return ConvergenceRecord(rows=rows.rows, metadata=metadata, final_state=state)
