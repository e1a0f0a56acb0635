"""Linear operators with adjoints and certified bounds on ||A A^T||.

Every operator knows its input/output dimensions and exposes ``apply`` and
``adjoint_apply``.  ``norm_AAt_bound`` returns an upper bound on ||A A^T||,
rounding included, which is the number the step-size conditions consume:
closed forms for the structured operators, an eigensolve of the smaller Gram
matrix for the others.  It is the package's only source of that norm.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError

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
        return self._apply(self._vector(x, self.in_dim, "apply"))

    def adjoint_apply(self, s: np.ndarray) -> np.ndarray:
        return self._adjoint(self._vector(s, self.out_dim, "adjoint_apply"))

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, s):
        raise NotImplementedError

    def _vector(self, v, dim, what) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (dim,):
            raise DimensionMismatchError(
                f"{type(self).__name__}.{what}: expected a vector of length {dim}, "
                f"got shape {v.shape}"
            )
        return v


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
        np.subtract(s[:-1], s[1:], out=out[1:-1])
        return out

