from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from pdsplit.exceptions import DimensionMismatchError
from pdsplit.linops import (
    DenseMatrixOp,
    DifferenceOp,
    IdentityOp,
    LinearMap,
    ScaledIdentityOp,
)

EPS = float(np.finfo(float).eps)


def all_ops(rng):
    return [
        DenseMatrixOp(rng.standard_normal((5, 8))),
        DenseMatrixOp(rng.standard_normal((8, 5))),
        DifferenceOp(12),
        IdentityOp(7),
        ScaledIdentityOp(6, 2.5),
        DenseMatrixOp(np.zeros((9, 4))),
        MatrixFree(rng.standard_normal((5, 8))),
        MatrixFree(rng.standard_normal((8, 5))),
    ]


class TestApply:
    def test_difference(self):
        np.testing.assert_array_equal(
            DifferenceOp(4).apply(np.array([1.0, 2.0, 4.0, 8.0])), [1.0, 2.0, 4.0]
        )

    def test_difference_equals_numpy_diff(self, rng):
        x = rng.standard_normal(1001)
        assert np.array_equal(DifferenceOp(1001).apply(x), np.diff(x))

    def test_identity(self, rng):
        v = rng.standard_normal(7)
        np.testing.assert_array_equal(IdentityOp(7).apply(v), v)

    def test_dense(self):
        op = DenseMatrixOp(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]))
        np.testing.assert_array_equal(op.apply(np.ones(3)), [3.0, 0.0])

    def test_linearity(self, rng):
        for op in all_ops(rng):
            x, y = rng.standard_normal(op.in_dim), rng.standard_normal(op.in_dim)
            a, b = 0.7, -1.3
            lhs = op.apply(a * x + b * y)
            rhs = a * op.apply(x) + b * op.apply(y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DifferenceOp(4).apply(np.ones(5))
        with pytest.raises(DimensionMismatchError):
            DifferenceOp(4).adjoint_apply(np.ones(4))

    def test_null_space_of_difference(self):
        d = DifferenceOp(50)
        np.testing.assert_array_equal(d.apply(np.full(50, 3.7)), np.zeros(49))


class TestAdjoint:
    def test_difference_adjoint_explicit(self):
        # transpose of [[-1, 1, 0], [0, -1, 1]] applied to (1, 1)
        np.testing.assert_array_equal(
            DifferenceOp(3).adjoint_apply(np.array([1.0, 1.0])), [-1.0, 0.0, 1.0]
        )

    def test_identity_adjoint(self, rng):
        v = rng.standard_normal(7)
        np.testing.assert_array_equal(IdentityOp(7).adjoint_apply(v), v)

    def test_dense_adjoint_recovers_rows(self, rng):
        m = rng.standard_normal((4, 6))
        op = DenseMatrixOp(m)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            np.testing.assert_allclose(op.adjoint_apply(e), m[i], atol=1e-15)

    def test_adjoint_consistency(self, rng):
        for op in all_ops(rng):
            for _ in range(200):
                x = rng.standard_normal(op.in_dim)
                s = rng.standard_normal(op.out_dim)
                lhs = float(op.apply(x) @ s)
                rhs = float(x @ op.adjoint_apply(s))
                scale = 1.0 + abs(lhs) + abs(rhs)
                assert abs(lhs - rhs) <= 1e-10 * scale


class TestNormEstimate:
    def test_upper_bounds_rayleigh_quotient(self, rng):
        # ||Ax||^2 <= ||A A^T|| ||x||^2 for every x, with equality at the top right
        # singular vector; the slack covers only the rounding of the two sides
        for op in all_ops(rng):
            bound = op.norm_AAt_bound()
            slack = 1.0 + 4 * (op.in_dim + op.out_dim) * EPS
            top = np.linalg.svd(np.column_stack([op.apply(e) for e in np.eye(op.in_dim)]))[2][0]
            for x in [top, *rng.standard_normal((100, op.in_dim))]:
                ax = op.apply(x)
                assert float(ax @ ax) <= bound * float(x @ x) * slack


# --- certified bounds: checked on the sign, against exact values ---------------

PI_BELOW = Fraction(314159265358979323846, 10**20)


def difference_norm_above(p: int) -> Fraction:
    """A rational number at or above ||D D^T|| = 2 + 2 cos(pi/p).

    cos is decreasing on [0, pi], so cos(pi/p) <= cos(x) for x = PI_BELOW/p,
    and a Taylor sum of cos that ends on a positive term lies above cos.  The
    excess is below 1e-20.
    """
    x = PI_BELOW / p
    cos_above = sum(Fraction((-1) ** k) * x ** (2 * k) / factorial(2 * k)
                    for k in range(41))
    return 2 + 2 * cos_above


def clustered_matrix(n: int = 32) -> np.ndarray:
    """A = H diag(d) H^T for the n-by-n Sylvester Hadamard matrix H.

    Every entry is a sum of dyadic numbers and exact in floating point, and
    A A^T = n^2 H diag(d^2) H^T / n, so ||A A^T|| = n^2 exactly.  The four top
    singular values lie within 3 * 2^-20 of each other, so an iterative
    estimate that stops once its Rayleigh quotient settles can stop well below
    the norm on this matrix.
    """
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    d = np.full(n, 0.5)
    d[:4] = 1.0 - np.arange(4) * 2.0**-20
    return (h * d) @ h.T


class MatrixFree(LinearMap):
    """A matrix seen only through apply/adjoint_apply: the generic bound."""

    def __init__(self, m):
        super().__init__(m.shape[1], m.shape[0])
        self._m = m

    def _apply(self, x):
        return self._m @ x

    def _adjoint(self, s):
        return self._m.T @ s


class TestNormBound:
    @pytest.mark.parametrize("p", [2, 3, 500, 10000])
    def test_difference_closed_form_is_above(self, p):
        assert Fraction(DifferenceOp(p).norm_AAt_bound()) >= difference_norm_above(p)

    def test_difference_closed_form_is_tight(self):
        bound = DifferenceOp(500).norm_AAt_bound()
        assert float(bound - difference_norm_above(500)) <= 1e-14 * bound

    def test_trivial_operators(self):
        assert IdentityOp(9).norm_AAt_bound() == 1.0
        assert DenseMatrixOp(np.zeros((4, 3))).norm_AAt_bound() == 0.0
        for scale in (0.1, 2.5, 1.0 / 3.0, 7.3e-3, -1.7):
            op = ScaledIdentityOp(6, scale)
            assert Fraction(op.norm_AAt_bound()) >= Fraction(scale) ** 2

    def test_dense_clustered_spectrum(self):
        a = clustered_matrix()
        n = a.shape[0]
        for m, exact in ((a, n * n), (np.hstack([a, a]), 2 * n * n),
                         (np.vstack([a, a]), 2 * n * n)):
            assert DenseMatrixOp(m).norm_AAt_bound() >= exact
            assert MatrixFree(m).norm_AAt_bound() >= exact
            assert DenseMatrixOp(m).norm_AAt_bound() <= exact * (1.0 + 1e-12)
