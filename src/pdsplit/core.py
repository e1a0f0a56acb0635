"""Oracle contracts and the problem bundle consumed by every solver and metric.

A problem instance is ``minimize f(x) + g(x) + (h [] l)(A x)`` with f smooth
(beta-cocoercive gradient), g and h prox-capable, l entering only through the
gradient of its conjugate, and A a linear operator.  All oracles are
deterministic functions of their arguments, so trajectories are bitwise
reproducible for a fixed BLAS thread count (another count may sum a matvec in
another order), and every term is safe to share between solver runs.  A term
may keep a private memo that never changes a result: the least-squares term
keeps the residual A x - b of its latest gradient point for ``residual`` to
reuse (``problems.least_squares_term``).  A smooth term whose value is a
function of an affine residual r = A x - b and of x may expose both
(``SmoothTerm.residual`` and ``value_from_residual``); ``solve`` then fetches
the residual of each iterate whose row it logs, for its objective, and
evaluates f at the running average of its iterates from the average of
their residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatchError, UnsupportedObjectiveError
from .linops import LinearMap

INF = math.inf

# Rounding slack of a step-size boundary.  t = gamma*delta*||AA^T|| and
# r = gamma/(2 beta) come from delta = lambda/gamma, the products gamma*delta
# and (gamma*delta)*||AA^T||, the quotient gamma/(2 beta) and the sum t + r;
# with lambda itself rounded (e.g. 1/||AA^T||) that is six roundings of
# relative size eps/2 each, so at an exact boundary the computed value is
# within 3 eps of 1 (so is afba's t/2 + sqrt(t/2)/2 + r, whose terms sum to
# 1 and carry at most 2 eps each).  4 eps covers the second-order terms.
ROUNDING_SLACK = 4.0 * float(np.finfo(float).eps)


def at_most(a: float, b: float) -> bool:
    """a <= b up to ``ROUNDING_SLACK``: the one test of every non-strict boundary."""
    return a <= b * (1.0 + ROUNDING_SLACK)


def as_vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce to a finite 1-D float vector, checking the dimension if given."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must have length {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class SmoothTerm:
    """Differentiable convex term: value and gradient oracles plus its beta.

    ``beta`` is the cocoercivity constant of the gradient,
    <x1-x2, grad(x1)-grad(x2)> >= beta * ||grad(x1)-grad(x2)||^2,
    equivalently 1/beta is a Lipschitz constant of the gradient.  It is
    declared by the caller, not estimated.

    ``residual`` and ``value_from_residual``, when present, split the value
    as f(x) = value_from_residual(residual(x), x) with residual affine in x,
    so the mean of residuals is the residual of the mean.  ``residual`` may
    return a memoized array, which callers must not modify.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    beta: float
    is_zero: bool = False
    residual: Callable[[np.ndarray], np.ndarray] | None = None
    value_from_residual: Callable[[np.ndarray, np.ndarray], float] | None = None

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if (self.residual is None) != (self.value_from_residual is None):
            raise ValueError("residual and value_from_residual must be given together")


@dataclass(frozen=True)
class ProxTerm:
    """Prox-capable convex term.

    ``prox(v, t)`` must return the minimizer of t*g(x) + ||x - v||^2 / 2.
    ``value`` may return +inf (indicators return exactly 0 or +inf).
    ``conjugate_value``, when present, is the Fenchel conjugate g*.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]
    conjugate_value: Callable[[np.ndarray], float] | None = None
    is_zero: bool = False

    @property
    def conj_prox(self) -> Callable[[np.ndarray, float], np.ndarray] | None:
        """prox of delta*g* at v as conj_prox(v, delta), if the prox carries one."""
        return getattr(self.prox, "conj_prox", None)


@dataclass(frozen=True)
class ConjugateSmoothTerm:
    """The third term's smoothing component l, seen through grad(l*).

    With ``is_zero`` set, l is the indicator of the origin, l* == 0, and the
    gradient oracle is identically zero; this is the common case and the only
    one for which objective values are computed.  Admission (``algorithms.admit``)
    checks only the scheme's premises, theta, t and r, no cocoercivity of
    grad(l*): with a smooth l*, step sizes that suit it are the caller's choice.
    """

    gradient: Callable[[np.ndarray], np.ndarray]
    is_zero: bool = True
    value: Callable[[np.ndarray], float] | None = None


def zero_smooth() -> SmoothTerm:
    """The zero smooth term (f = 0); cocoercive with any beta, so beta = inf."""
    return SmoothTerm(
        value=lambda x: 0.0,
        gradient=np.zeros_like,
        beta=INF,
        is_zero=True,
    )


def zero_conjugate_smooth() -> ConjugateSmoothTerm:
    """l = indicator of the origin, so l* = 0 and grad(l*) = 0."""
    return ConjugateSmoothTerm(
        gradient=np.zeros_like,
        is_zero=True,
        value=lambda s: 0.0,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Bundle of oracles defining one composite minimization instance.

    ``A`` maps primal vectors (length ``x_dim``) to dual vectors (length
    ``s_dim``); all oracle dimensions must be consistent with it.
    """

    f: SmoothTerm
    g: ProxTerm
    h: ProxTerm
    lstar: ConjugateSmoothTerm
    A: LinearMap

    @property
    def x_dim(self) -> int:
        return self.A.in_dim

    @property
    def s_dim(self) -> int:
        return self.A.out_dim

    @property
    def beta(self) -> float:
        return self.f.beta


def evaluate_objective(spec: ProblemSpec, x, *, residual: np.ndarray | None = None,
                       screened: bool = False) -> float:
    """Objective f(x) + g(x) + h(A x); may be +inf if an indicator is violated.

    Only defined when l is the indicator of the origin (the infimal
    convolution then collapses to h); anything else raises
    ``UnsupportedObjectiveError``.  ``residual``, f's residual at x when the
    caller has it, gives f(x) as ``f.value_from_residual(residual, x)``.
    ``screened`` skips the ``as_vector`` check, for the iterates of ``solve``,
    whose passes it screens for NaN and inf.
    """
    if not spec.lstar.is_zero:
        raise UnsupportedObjectiveError(
            "objective values are only computed when l is the indicator of 0"
        )
    if not screened:
        x = as_vector(x, spec.x_dim)
    f_x = spec.f.value(x) if residual is None else spec.f.value_from_residual(residual, x)
    total = f_x + spec.g.value(x)
    if total == INF:
        return INF
    return total + spec.h.value(spec.A.apply(x))
