"""Closed-form proximal operators and the Moreau bridge to conjugate proxes.

All functions are stateless and elementwise where applicable.  The prox of a
conjugate is never hand-coded: ``prox_conjugate`` derives it from the prox of
the function itself via the Moreau decomposition, keeping a single source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import INF, ProxTerm

# Feasibility slack for indicator-type conjugates: prox outputs land exactly
# on the constraint set, but running averages of them can stray by roundoff.
_BOX_SLACK = 1e-9


def _check_positive(**kwargs):
    for name, val in kwargs.items():
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")


def prox_l1(v, t: float, mu: float) -> np.ndarray:
    """Soft thresholding: prox of t * mu * ||.||_1 at v.

    Ties (|v_i| == t*mu) map to 0, the unique minimizer there.
    """
    _check_positive(t=t, mu=mu)
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t * mu, 0.0)


def prox_sq_l2(v, t: float, mu: float) -> np.ndarray:
    """Prox of t * mu * ||.||_2^2 at v: shrink by 1 / (1 + 2*t*mu)."""
    _check_positive(t=t, mu=mu)
    return np.asarray(v, dtype=float) / (1.0 + 2.0 * t * mu)


def project_nonneg(v) -> np.ndarray:
    """Project onto the nonnegative orthant (idempotent)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def prox_conjugate(h: ProxTerm, v, delta: float) -> np.ndarray:
    """prox of delta * h^* at v, via the Moreau decomposition.

    prox_{delta h*}(v) = v - delta * prox_{h/delta}(v/delta).
    """
    _check_positive(delta=delta)
    v = np.asarray(v, dtype=float)
    return v - delta * h.prox(v / delta, 1.0 / delta)


def _probe_directions(dim: int) -> np.ndarray:
    """±coordinate directions plus 8 fixed random unit vectors seeded by dim."""
    eye = np.eye(dim)
    probes = [eye, -eye]
    rng = np.random.default_rng(dim)
    extra = rng.standard_normal((8, dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    probes.append(extra)
    return np.vstack(probes)


def prox_optimality_residual(term: ProxTerm, v, t: float, eps: float = 1e-4) -> float:
    """Certify that term.prox(v, t) minimizes t*g(y) + ||y - v||^2 / 2.

    Probes the objective along a fixed direction set at step ``eps`` and
    returns the largest observed improvement per unit step,
    max_d [F(p) - F(p + eps*d)] / eps, floored at 0.  A residual near 0
    certifies (first-order) minimality; a broken prox shows up at the scale
    of its gradient error.
    """
    _check_positive(t=t, eps=eps)
    v = np.asarray(v, dtype=float)
    p = term.prox(v, t)

    def objective(y):
        val = term.value(y)
        if val == INF:
            return INF
        return t * val + 0.5 * float((y - v) @ (y - v))

    base = objective(p)
    worst = 0.0
    for d in _probe_directions(v.shape[0]):
        trial = objective(p + eps * d)
        if trial == INF:
            continue
        worst = max(worst, (base - trial) / eps)
    return worst


# --- catalog -----------------------------------------------------------------


def l1(mu: float) -> ProxTerm:
    """mu * ||.||_1; conjugate is the indicator of the inf-norm ball of radius mu."""
    _check_positive(mu=mu)

    def conj(s):
        s = np.asarray(s, dtype=float)
        bound = mu * (1.0 + _BOX_SLACK) + 1e-15
        return 0.0 if np.max(np.abs(s), initial=0.0) <= bound else INF

    return ProxTerm(
        value=lambda x: mu * float(np.sum(np.abs(x))),
        prox=lambda v, t: prox_l1(v, t, mu),
        conjugate_value=conj,
    )


def squared_l2(mu: float) -> ProxTerm:
    """mu * ||.||_2^2; conjugate is ||s||^2 / (4 mu)."""
    _check_positive(mu=mu)
    return ProxTerm(
        value=lambda x: mu * float(x @ x),
        prox=lambda v, t: prox_sq_l2(v, t, mu),
        conjugate_value=lambda s: float(s @ s) / (4.0 * mu),
    )


def nonneg_indicator() -> ProxTerm:
    """Indicator of the nonnegative orthant; prox is the projection."""

    def value(x):
        return 0.0 if np.all(np.asarray(x) >= 0.0) else INF

    def conj(s):
        s = np.asarray(s, dtype=float)
        return 0.0 if np.max(s, initial=0.0) <= _BOX_SLACK else INF

    return ProxTerm(value=value, prox=lambda v, t: project_nonneg(v), conjugate_value=conj)


def zero_prox() -> ProxTerm:
    """The zero function; prox is the identity, conjugate the indicator of 0."""

    def conj(s):
        s = np.asarray(s, dtype=float)
        return 0.0 if np.max(np.abs(s), initial=0.0) <= 1e-12 else INF

    return ProxTerm(
        value=lambda x: 0.0,
        prox=lambda v, t: np.asarray(v, dtype=float).copy(),
        conjugate_value=conj,
        is_zero=True,
    )


@dataclass(frozen=True)
class ProxCatalogEntry:
    """Named builder + parameters, so property tests can sweep the catalog."""

    name: str
    builder: Callable[..., ProxTerm]
    params: dict = field(default_factory=dict)
    finite_valued: bool = True  # false for indicators (prox -> identity limit fails)

    def make(self) -> ProxTerm:
        return self.builder(**self.params)


CATALOG: tuple[ProxCatalogEntry, ...] = (
    ProxCatalogEntry("l1", l1, {"mu": 1.0}),
    ProxCatalogEntry("l1_heavy", l1, {"mu": 20.0}),
    ProxCatalogEntry("half_sq_l2", squared_l2, {"mu": 0.5}),
    ProxCatalogEntry("sq_l2", squared_l2, {"mu": 2.0}),
    ProxCatalogEntry("nonneg", nonneg_indicator, {}, finite_valued=False),
    ProxCatalogEntry("zero", zero_prox, {}, finite_valued=False),
)
