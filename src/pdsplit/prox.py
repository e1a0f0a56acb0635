"""Closed-form proximal operators and the Moreau bridge to conjugate proxes.

All functions are stateless and elementwise where applicable.  The prox of a
conjugate is never hand-coded: ``prox_conjugate`` derives it from the prox of
the function itself via the Moreau decomposition, keeping a single source of
truth.
"""

from __future__ import annotations

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


def prox_conjugate(h: ProxTerm, v, delta: float) -> np.ndarray:
    """prox of delta * h^* at v, via the Moreau decomposition.

    prox_{delta h*}(v) = v - delta * prox_{h/delta}(v/delta).
    """
    _check_positive(delta=delta)
    v = np.asarray(v, dtype=float)
    return v - delta * h.prox(v / delta, 1.0 / delta)


# --- catalog -----------------------------------------------------------------


def l1(mu: float) -> ProxTerm:
    """mu * ||.||_1; conjugate is the indicator of the inf-norm ball of radius mu."""
    _check_positive(mu=mu)

    def conj(s):
        s = np.asarray(s, dtype=float)
        bound = mu * (1.0 + _BOX_SLACK) + 1e-15
        return 0.0 if np.abs(s).max(initial=0.0) <= bound else INF

    return ProxTerm(
        value=lambda x: mu * float(np.abs(x).sum()),
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
