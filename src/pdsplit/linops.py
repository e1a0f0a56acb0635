"""Linear operators with adjoints and certified bounds on ||A A^T||.

Every operator knows its input/output dimensions and exposes ``apply`` and
``adjoint_apply``.  ``norm_AAt_bound`` returns an upper bound on ||A A^T||,
rounding included, which is the number the step-size conditions consume:
closed forms for the structured operators, an eigensolve of the smaller Gram
matrix for the others.  ``estimate_norm_AAt`` is a plain power-iteration
estimate of the same norm; it may fall below it.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError, NormEstimateError

_MACHINE_EPS = float(np.finfo(float).eps)


def _gram_bound(m: np.ndarray) -> float:
    """Upper bound on ||M M^T|| = sigma_max(M)^2 from the smaller Gram matrix.

    For M of shape (n, p) with k = min(n, p) and K = max(n, p), the computed
    Gram matrix is within K*eps*||M||_F^2 of the exact one in the 2-norm, and a
    backward-stable symmetric eigensolve adds at most a small multiple of
    k*eps*||G||; the slack (K + k)*eps*||M||_F^2 covers both.  ||M||_F^2 is the
    trace of the Gram matrix.
    """
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    top = max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
    return top + sum(m.shape) * _MACHINE_EPS * float(np.trace(gram))


class LinearMap:
    """Base class: a bounded linear operator between coordinate spaces."""

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("operator dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    @property
    def is_identity(self) -> bool:
        return False

    def norm_AAt_bound(self) -> float:
        """An upper bound on ||A A^T||, rounding included.

        This generic rule applies the operator to the k = min(in_dim, out_dim)
        unit vectors of its smaller side, which gives the whole matrix, and
        bounds the top eigenvalue of its k-by-k Gram matrix.  It costs k
        operator calls and in_dim*out_dim floats; operators with a closed form
        or an explicit matrix override it.
        """
        if self.in_dim <= self.out_dim:
            m = np.column_stack([self.apply(e) for e in np.eye(self.in_dim)])
        else:
            m = np.vstack([self.adjoint_apply(e) for e in np.eye(self.out_dim)])
        return _gram_bound(m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check(x, self.in_dim, "apply")
        return self._apply(np.asarray(x, dtype=float))

    def adjoint_apply(self, s: np.ndarray) -> np.ndarray:
        self._check(s, self.out_dim, "adjoint_apply")
        return self._adjoint(np.asarray(s, dtype=float))

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, s):
        raise NotImplementedError

    def _check(self, v, dim, what):
        v = np.asarray(v)
        if v.ndim != 1 or v.shape[0] != dim:
            raise DimensionMismatchError(
                f"{type(self).__name__}.{what}: expected a vector of length {dim}, "
                f"got shape {v.shape}"
            )


class DenseMatrixOp(LinearMap):
    """Operator backed by an explicit (row-major) dense matrix."""

    def __init__(self, matrix: np.ndarray):
        m = np.ascontiguousarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-D")
        super().__init__(m.shape[1], m.shape[0])
        self.matrix = m

    def norm_AAt_bound(self) -> float:
        return _gram_bound(self.matrix)

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, s):
        return self.matrix.T @ s


class IdentityOp(LinearMap):
    """The identity on a space of the given dimension."""

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    @property
    def is_identity(self) -> bool:
        return True

    def norm_AAt_bound(self) -> float:
        return 1.0

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, s):
        return s.copy()


class ScaledIdentityOp(LinearMap):
    """c * I; useful as a coupling operator with a tunable norm."""

    def __init__(self, dim: int, scale: float):
        super().__init__(dim, dim)
        self.scale = float(scale)

    def norm_AAt_bound(self) -> float:
        """scale^2, rounded up."""
        return math.nextafter(self.scale * self.scale, math.inf)

    def _apply(self, x):
        return self.scale * x

    def _adjoint(self, s):
        return self.scale * s


class DifferenceOp(LinearMap):
    """First-order difference operator, (Dx)_i = x_{i+1} - x_i.

    Matrix-free: the bidiagonal matrix is never stored, so the input
    dimension p can be large.  Output dimension is p - 1.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("DifferenceOp needs p >= 2")
        super().__init__(p, p - 1)

    def norm_AAt_bound(self) -> float:
        """The top eigenvalue 4 sin^2(pi (p-1) / (2p)) of D D^T, with 1 + 8 eps
        covering the rounding of its evaluation."""
        p = self.in_dim
        return 4.0 * math.sin(math.pi * (p - 1) / (2 * p)) ** 2 * (1.0 + 8.0 * _MACHINE_EPS)

    def _apply(self, x):
        return x[1:] - x[:-1]

    def _adjoint(self, s):
        out = np.empty(self.in_dim)
        out[0] = -s[0]
        out[-1] = s[-1]
        out[1:-1] = s[:-1] - s[1:]
        return out


def estimate_norm_AAt(
    op: LinearMap,
    tol: float = 1e-9,
    max_iters: int = 200_000,
    rng_seed: int = 0,
) -> float:
    """Estimate ||A A^T|| = max_{||s||=1} ||A A^T s|| by power iteration.

    Iterates s -> A(A^T s) from a seeded random unit vector and stops once two
    successive Rayleigh quotients differ by less than ``tol`` times the current
    one, and returns the last quotient times (1 + 10 * tol).  This is an
    estimate, not a bound: when the top eigenvalues are close together the
    stop rule fires well below ||A A^T||.  Step-size checks use
    ``LinearMap.norm_AAt_bound`` instead.

    Deterministic for a fixed ``rng_seed``.  Raises ``NormEstimateError``
    (carrying the last estimate) when the tolerance is not met in
    ``max_iters`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    rng = np.random.default_rng(rng_seed)
    s = rng.standard_normal(op.out_dim)
    norm_s = np.linalg.norm(s)
    if norm_s == 0.0:  # out_dim >= 1 makes this unreachable in practice
        s = np.ones(op.out_dim)
        norm_s = np.linalg.norm(s)
    s /= norm_s

    rq_prev = None
    rq = 0.0
    for _ in range(max_iters):
        w = op.apply(op.adjoint_apply(s))
        rq = float(s @ w)  # Rayleigh quotient of AA^T at the unit vector s
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        s = w / norm_w
        if rq_prev is not None and abs(rq - rq_prev) <= tol * max(abs(rq), 1e-300):
            return rq * (1.0 + 10.0 * tol)
        rq_prev = rq
    raise NormEstimateError(
        f"power iteration did not converge to tol={tol} in {max_iters} iterations",
        last_estimate=rq,
    )
