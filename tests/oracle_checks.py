"""Sampling checks of oracles and the prox catalog the oracle tests sweep.

These are test tools, not certificates: a sampled inequality can expose a
wrong constant or a broken prox, but cannot prove a right one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pdsplit.core import INF, ProxTerm
from pdsplit.prox import l1, squared_l2, zero_prox


def sample_cocoercivity(term, samples: int, dim: int, rng_seed: int = 0,
                        slack: float = 1e-12) -> tuple[bool, float]:
    """Test <dx, dgrad> >= beta * ||dgrad||^2 on ``samples`` random pairs.

    Returns whether the inequality held for every pair (with ``slack``
    absolute tolerance) and the worst ratio <dx, dgrad> / ||dgrad||^2.
    """
    rng = np.random.default_rng(rng_seed)
    ok, worst = True, INF
    for _ in range(samples):
        x1, x2 = rng.standard_normal(dim), rng.standard_normal(dim)
        dgrad = term.gradient(x1) - term.gradient(x2)
        denom = float(dgrad @ dgrad)
        if denom == 0.0:
            continue
        inner = float((x1 - x2) @ dgrad)
        worst = min(worst, inner / denom)
        ok = ok and inner >= term.beta * denom - slack
    return ok, worst


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
    """Check that term.prox(v, t) minimizes t*g(y) + ||y - v||^2 / 2.

    Probes the objective along a fixed direction set at step ``eps`` and
    returns the largest observed improvement per unit step,
    max_d [F(p) - F(p + eps*d)] / eps, floored at 0.  A residual near 0
    indicates (first-order) minimality; a broken prox shows up at the scale
    of its gradient error.
    """
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


def orthant_indicator() -> ProxTerm:
    """Indicator of the nonnegative orthant: prox is the projection, conjugate
    the indicator of the nonpositive orthant."""
    return ProxTerm(
        value=lambda x: 0.0 if np.all(np.asarray(x) >= 0.0) else INF,
        prox=lambda v, t: np.maximum(np.asarray(v, dtype=float), 0.0),
        conjugate_value=lambda s: 0.0 if np.max(s, initial=0.0) <= 1e-9 else INF,
    )


@dataclass(frozen=True)
class ProxCatalogEntry:
    """A named factory and its parameters, so property tests can sweep the catalog."""

    name: str
    factory: Callable[..., ProxTerm]
    params: dict = field(default_factory=dict)
    finite_valued: bool = True  # false for indicators (prox -> identity limit fails)

    def make(self) -> ProxTerm:
        return self.factory(**self.params)


CATALOG: tuple[ProxCatalogEntry, ...] = (
    ProxCatalogEntry("l1", l1, {"mu": 1.0}),
    ProxCatalogEntry("l1_heavy", l1, {"mu": 20.0}),
    ProxCatalogEntry("half_sq_l2", squared_l2, {"mu": 0.5}),
    ProxCatalogEntry("sq_l2", squared_l2, {"mu": 2.0}),
    ProxCatalogEntry("nonneg", orthant_indicator, {}, finite_valued=False),
    ProxCatalogEntry("zero", zero_prox, {}, finite_valued=False),
)
