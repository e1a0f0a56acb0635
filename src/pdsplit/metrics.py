"""Convergence diagnostics: the dual metric, residuals, gaps, rate certificates.

The dual block is measured in the metric M = (gamma/delta) * (I - gamma*delta*A A^T),
which is positive semidefinite exactly when gamma*delta*||A A^T|| <= 1.  The
combined norm ||(z, s)|| = sqrt(||z||^2 + ||s||_M^2) is the geometry in which
the splitting iteration is an averaged operator, so every certificate here is
stated in it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .core import INF, ProblemSpec, as_vector, at_most
from .exceptions import (
    GeometryViolationError,
    HypothesisViolationError,
    UnsupportedMetricError,
)
from .linops import LinearMap

# Relative band below zero inside which the bracket ||s||^2 - gamma*delta*||A^T s||^2
# of m_norm_sq is treated as roundoff.  Each dot product sums terms whose total
# is at most ||s||^2 (for t <= 1), so the bracket errs by about
# (x_dim + s_dim)*eps*||s||^2 at most, which stays inside 1e-10*||s||^2 up to
# x_dim + s_dim = 1e-10/eps, about 450,000; paper scale (10,000 + 9,999) sits
# 22x below that.  The band applies to the bracket before the gamma/delta
# scaling, so it does not widen or narrow with the step ratio.
_PSD_BAND = 1e-10
# Where the squares underflow (as in the rescaled norm of a step whose z part is
# 1e150 times its s part), the bracket errs by a few subnormal spacings instead.
_UNDERFLOW = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MNormContext:
    """Step sizes and operator fixing the dual metric.

    Given ``norm_AAt``, t = gamma*delta*norm_AAt sets the regime: M is
    definite for t < 1, ``semidefinite`` (a seminorm on the dual) for
    1 <= t <= 1 + ``core.ROUNDING_SLACK``, and ``indefinite`` beyond.
    """

    gamma: float
    delta: float
    A: LinearMap
    norm_AAt: float | None = None
    semidefinite: bool = field(init=False, default=False)
    indefinite: bool = field(init=False, default=False)

    def __post_init__(self):
        if not (self.gamma > 0 and self.delta > 0):
            raise ValueError("step sizes must be positive")
        if self.norm_AAt is not None:
            t = self.gamma * self.delta * self.norm_AAt
            object.__setattr__(self, "indefinite", not at_most(t, 1.0))
            object.__setattr__(self, "semidefinite", 1.0 <= t and not self.indefinite)


def m_norm_sq(ctx: MNormContext, s) -> float:
    """<s, M s> computed matrix-free as (gamma/delta)(||s||^2 - gamma*delta*||A^T s||^2).

    A bracket inside [-1e-10 * ||s||^2 - ``_UNDERFLOW``, 0] is clamped to 0
    (roundoff at the semidefinite boundary); anything below that band means M
    is not PSD and raises ``GeometryViolationError``.
    """
    s = np.asarray(s, dtype=float)
    ss = float(np.vdot(s, s))
    ats = ctx.A.adjoint_apply(s)
    bracket = ss - ctx.gamma * ctx.delta * float(np.vdot(ats, ats))
    if bracket < 0.0:
        if bracket < -_PSD_BAND * ss - _UNDERFLOW:
            raise GeometryViolationError(
                f"<s, M s> = {(ctx.gamma / ctx.delta) * bracket} < 0: M is not positive "
                "semidefinite; the step sizes violate gamma*delta*||A A^T|| <= 1"
            )
        return 0.0
    return (ctx.gamma / ctx.delta) * bracket


def combined_norm_sq(ctx: MNormContext, z, s) -> float:
    """||z||^2 + ||s||_M^2."""
    z = np.asarray(z, dtype=float)
    return float(np.vdot(z, z)) + m_norm_sq(ctx, s)


def _root(square, z, s) -> float:
    """sqrt(square(z, s)) for a quadratic ``square``; when that square is not
    finite, c*sqrt(square((z, s)/c)) with c the largest entry of (z, s) (c if inf)."""
    sq = square(z, s)
    if math.isfinite(sq):
        return math.sqrt(sq)
    z, s = np.asarray(z, dtype=float), np.asarray(s, dtype=float)
    c = max(np.abs(z).max(initial=0.0), np.abs(s).max(initial=0.0))
    if not math.isfinite(c):  # an inf or NaN entry
        return c
    return c * math.sqrt(square(z / c, s / c))


def combined_norm(ctx: MNormContext, z, s) -> float:
    return _root(lambda z, s: combined_norm_sq(ctx, z, s), z, s)


def fixed_point_residual(ctx: MNormContext, state, nxt) -> float:
    """||nxt - state|| over (z, s) in the combined norm: ||T(z, s) - (z, s)||
    for an unrelaxed step, theta times it for a relaxed one."""
    return combined_norm(ctx, nxt.z - state.z, nxt.s - state.s)


def euclidean_residual(state, nxt) -> float:
    """||nxt - state|| over (z, s) in the Euclidean norm, for steps past
    gamma*delta*||A A^T|| = 1 where M is indefinite."""
    return _root(lambda dz, ds: float(np.vdot(dz, dz)) + float(np.vdot(ds, ds)),
                 nxt.z - state.z, nxt.s - state.s)


@dataclass
class LagrangianProbe:
    """A fixed pair (x, s) whose terms of L ``lagrangian`` computes only once.

    Passed to every ``lagrangian`` call of one solve: when the x (or s)
    argument is the probe's own array, its f + g and A x (or h*, l* and
    A^T s) are computed on first use, kept in ``terms`` and reused.  The
    arrays must not be modified while the probe is in use.
    """

    x: np.ndarray
    s: np.ndarray
    terms: dict = field(default_factory=dict)


def lagrangian(spec: ProblemSpec, x, s, probe: LagrangianProbe | None = None, *,
               residual: np.ndarray | None = None, screened: bool = False) -> float:
    """L(x, s) = f(x) + g(x) + <A x, s> - h*(s) - l*(s); may be +-inf.

    With ``probe``, the terms of the probe's own x or s come from its cache
    (see ``LagrangianProbe``), and another x pairs with the probe's s as
    <x, A^T s>, so no A is applied to it.  ``residual`` is f's residual at x
    (``SmoothTerm.residual``) when the caller already has it, e.g. a mean of
    residuals; f(x) is then ``f.value_from_residual(residual, x)``, with no
    data matvec.  Both agree with a fresh evaluation to roundoff.
    ``screened`` skips the ``as_vector`` checks, for checked arrays.
    """
    if spec.h.conjugate_value is None:
        raise UnsupportedMetricError("h has no conjugate value oracle")
    if spec.lstar.value is None and not spec.lstar.is_zero:
        raise UnsupportedMetricError("l* has no value oracle")
    if not screened:
        x = as_vector(x, spec.x_dim)
        s = as_vector(s, spec.s_dim, name="s")
    on_x, on_s = probe is not None and x is probe.x, probe is not None and s is probe.s

    def kept(on_probe, key, compute):  # compute(), kept in the probe if on_probe
        if not on_probe:
            return compute()
        if key not in probe.terms:
            probe.terms[key] = compute()
        return probe.terms[key]

    hstar, lstar = kept(on_s, "dual", lambda: (
        spec.h.conjugate_value(s), 0.0 if spec.lstar.is_zero else spec.lstar.value(s)))
    if hstar == INF or lstar == INF:
        return -INF
    f_x = None if residual is None else spec.f.value_from_residual(residual, x)
    primal = kept(on_x and f_x is None, "primal", lambda: (
        (spec.f.value(x) if f_x is None else f_x) + spec.g.value(x)))
    if primal == INF:
        return INF
    if on_s and not on_x:  # <A x, s*> as <x, A^T s*>: no A applied to x
        coupling = x @ kept(True, "ats", lambda: spec.A.adjoint_apply(s))
    else:
        coupling = kept(on_x, "ax", lambda: spec.A.apply(x)) @ s
    return primal + float(coupling) - hstar - lstar


def fixed_point_from_primal_dual(spec: ProblemSpec, x, s, gamma: float) -> np.ndarray:
    """z such that (z, s) is the fixed point whose g-prox recovers x:
    z = x - gamma*grad f(x) - gamma*A^T s."""
    x = as_vector(x, spec.x_dim)
    s = as_vector(s, spec.s_dim, name="s")
    return x - gamma * spec.f.gradient(x) - gamma * spec.A.adjoint_apply(s)


@dataclass(frozen=True)
class GapCheck:
    lhs: float
    rhs: float
    holds: bool


def ergodic_gap_bound_check(
    spec: ProblemSpec,
    ctx: MNormContext,
    x_avg,
    s_avg,
    probe_x,
    probe_s,
    z0,
    s0,
    k: int,
    beta: float,
    tol: float = 1e-9,
) -> GapCheck:
    """Check L(x_avg, probe_s) - L(probe_x, s_avg) against its O(1/k) bound.

    The averages must be x_avg = mean(x^0..x^k) and s_avg = mean(s^1..s^{k+1});
    the bound is ||(z, s) - (z^0, s^0)||^2 / (2 (k+1) gamma) with
    z = probe_x - gamma*grad f(probe_x) - gamma*A^T probe_s.  Requires the run
    step gamma <= beta, else ``HypothesisViolationError``.
    """
    if not at_most(ctx.gamma, beta):
        raise HypothesisViolationError(
            f"ergodic gap bound needs gamma <= beta (gamma={ctx.gamma}, beta={beta})"
        )
    probe_x = as_vector(probe_x, spec.x_dim, name="probe_x")
    probe_s = as_vector(probe_s, spec.s_dim, name="probe_s")
    z_probe = fixed_point_from_primal_dual(spec, probe_x, probe_s, ctx.gamma)
    lhs = lagrangian(spec, x_avg, probe_s) - lagrangian(spec, probe_x, s_avg)
    rhs = combined_norm_sq(ctx, z_probe - z0, probe_s - s0) / (2.0 * (k + 1) * ctx.gamma)
    return GapCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol)


def sublinear_rate_bound(k: int, init_dist_sq: float, beta: float, gamma: float) -> float:
    """Right-hand side (2*beta / (2*beta - gamma)) * init_dist_sq / (k + 1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if init_dist_sq < 0:
        raise ValueError("init_dist_sq must be nonnegative")
    if beta == INF:
        factor = 1.0
    else:
        if not gamma < 2.0 * beta:
            raise ValueError(f"need gamma < 2*beta, got gamma={gamma}, beta={beta}")
        factor = 2.0 * beta / (2.0 * beta - gamma)
    return factor * init_dist_sq / (k + 1)


def linear_rate_rho(
    gamma: float,
    beta: float,
    tau_f: float,
    tau_g: float,
    tau_hstar: float,
    tau_lstar: float,
    Lg: float,
) -> float:
    """Linear contraction factor for the strongly convex regime.

    rho = max( (1 - (2*gamma - gamma^2/beta) * tau_lstar) / (1 + 2*gamma*tau_hstar),
               1 - ((2*gamma - gamma^2/beta) * tau_f + 2*gamma*tau_g) / (1 + gamma*Lg) ).

    rho < 1 exactly when tau_hstar + tau_lstar > 0 and tau_f + tau_g > 0 (with
    finite Lg).  The moduli are declared by the caller per instance.
    """
    if not gamma < 2.0 * beta:
        raise ValueError(f"need gamma < 2*beta, got gamma={gamma}, beta={beta}")
    for name, v in (("tau_f", tau_f), ("tau_g", tau_g), ("tau_hstar", tau_hstar),
                    ("tau_lstar", tau_lstar), ("Lg", Lg)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    slope = 2.0 * gamma - gamma * gamma / beta
    branch_dual = (1.0 - slope * tau_lstar) / (1.0 + 2.0 * gamma * tau_hstar)
    denom = 1.0 + gamma * Lg
    branch_primal = 1.0 if denom == INF else 1.0 - (slope * tau_f + 2.0 * gamma * tau_g) / denom
    return max(branch_dual, branch_primal)


# --- convergence history ------------------------------------------------------

CSV_HEADER = ("iter", "objective", "residual_im", "dist_to_ref", "gap", "wall_time_s")


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


@dataclass
class IterationRow:
    iter: int
    objective: float
    residual_im: float
    dist_to_ref: float | None = None
    gap: float | None = None
    wall_time_s: float = 0.0


@dataclass
class ConvergenceRecord:
    """Per-iteration diagnostics plus run metadata.

    ``rows`` is thinned by the solver's log-every policy; ``metadata`` carries
    the algorithm, step sizes, oracle-call counts and final-state summaries
    (``run`` adds the problem descriptor).  ``final_state`` is the in-memory
    last iterate and is not serialized.
    """

    rows: list[IterationRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    final_state: object | None = None

    def iters(self) -> np.ndarray:
        return np.array([r.iter for r in self.rows], dtype=int)

    def residuals(self) -> np.ndarray:
        return np.array([r.residual_im for r in self.rows])

    def write_csv(self, fh: IO[str], series_id: str | None = None) -> None:
        """Write rows in the stable CSV schema (17 significant digits)."""
        writer = csv.writer(fh, lineterminator="\n")
        header = CSV_HEADER if series_id is None else ("series_id",) + CSV_HEADER
        writer.writerow(header)
        for r in self.rows:
            cells = [
                str(r.iter),
                _fmt(r.objective),
                _fmt(r.residual_im),
                _fmt(r.dist_to_ref),
                _fmt(r.gap),
                _fmt(r.wall_time_s),
            ]
            if series_id is not None:
                cells.insert(0, series_id)
            writer.writerow(cells)
