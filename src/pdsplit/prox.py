"""Closed-form proximal operators, with closed-form conjugate proxes.

All functions are stateless and elementwise where applicable.  A catalog
term's prox carries its conjugate's prox in closed form, which
``prox_conjugate`` uses; a term without one gets the Moreau decomposition.
``tests/test_prox.py`` checks every closed form against the Moreau form.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import INF, ProxTerm

# Feasibility slack for indicator-type conjugates: prox outputs land exactly
# on the constraint set, but running averages of them can stray by roundoff.
_BOX_SLACK = 1e-9


def _check_positive(**kwargs):
    for name, val in kwargs.items():
        if not val > 0:
            raise ValueError(f"{name} must be positive, got {val}")


def with_conjugate(prox, conj_prox):
    """A new callable: ``prox``, carrying ``conj_prox(v, delta)`` = prox_{delta g*}(v) for a
    float array v.  ``prox`` is unchanged; a term with another prox falls back to Moreau."""
    carrier = functools.partial(prox)  # a new callable that takes attributes
    carrier.conj_prox = conj_prox
    return carrier


def prox_l1(v, t: float, mu: float) -> np.ndarray:
    """Soft thresholding: prox of t * mu * ||.||_1 at v, as v - clip(v, -t mu, t mu).

    Ties (|v_i| == t*mu) map to 0, the unique minimizer there.
    """
    _check_positive(t=t, mu=mu)
    v = np.asarray(v, dtype=float)
    return v - v.clip(-t * mu, t * mu)


def prox_sq_l2(v, t: float, mu: float) -> np.ndarray:
    """Prox of t * mu * ||.||_2^2 at v: shrink by 1 / (1 + 2*t*mu)."""
    _check_positive(t=t, mu=mu)
    return np.asarray(v, dtype=float) / (1.0 + 2.0 * t * mu)


def prox_conjugate(h: ProxTerm, v, delta: float) -> np.ndarray:
    """prox of delta * h^* at v: h's closed form, else the Moreau decomposition

    prox_{delta h*}(v) = v - delta * prox_{h/delta}(v/delta).
    """
    _check_positive(delta=delta)
    v = np.asarray(v, dtype=float)
    closed_form = h.conj_prox
    if closed_form is not None:
        return closed_form(v, delta)
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
        prox=with_conjugate(lambda v, t: prox_l1(v, t, mu),
                            lambda v, delta: v.clip(-mu, mu)),
        conjugate_value=conj,
    )


def squared_l2(mu: float) -> ProxTerm:
    """mu * ||.||_2^2; conjugate is ||s||^2 / (4 mu)."""
    _check_positive(mu=mu)
    return ProxTerm(
        value=lambda x: mu * float(x @ x),
        prox=with_conjugate(lambda v, t: prox_sq_l2(v, t, mu),
                            lambda v, delta: v / (1.0 + delta / (2.0 * mu))),
        conjugate_value=lambda s: float(s @ s) / (4.0 * mu),
    )


def zero_prox() -> ProxTerm:
    """The zero function; prox is the identity, conjugate the indicator of 0."""

    def conj(s):
        s = np.asarray(s, dtype=float)
        return 0.0 if np.max(np.abs(s), initial=0.0) <= 1e-12 else INF

    return ProxTerm(
        value=lambda x: 0.0,
        prox=with_conjugate(lambda v, t: np.asarray(v, dtype=float).copy(),
                            lambda v, delta: np.zeros_like(v)),
        conjugate_value=conj,
        is_zero=True,
    )
