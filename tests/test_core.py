import numpy as np
import pytest

from oracle_checks import orthant_indicator, sample_cocoercivity
from pdsplit.core import (
    INF,
    ProblemSpec,
    SmoothTerm,
    evaluate_objective,
    zero_conjugate_smooth,
    zero_smooth,
)
from pdsplit.exceptions import DimensionMismatchError, UnsupportedObjectiveError
from pdsplit.linops import IdentityOp
from pdsplit.problems import (
    gen_fused_lasso,
    least_squares_term,
    quadratic_distance_term,
)
from pdsplit.prox import l1, zero_prox


def make_spec(f, g, h, A):
    return ProblemSpec(f=f, g=g, h=h, lstar=zero_conjugate_smooth(), A=A)


class TestObjective:
    def test_quadratic_plus_l1(self):
        spec = make_spec(quadratic_distance_term(np.zeros(2)), zero_prox(), l1(1.0),
                         IdentityOp(2))
        assert evaluate_objective(spec, np.array([3.0, -4.0])) == pytest.approx(19.5)

    def test_indicator_violation_is_infinite(self):
        spec = make_spec(zero_smooth(), orthant_indicator(), zero_prox(), IdentityOp(2))
        assert evaluate_objective(spec, np.array([-1.0, 0.0])) == INF

    def test_fused_lasso_at_origin(self):
        inst = gen_fused_lasso(n=30, p=80, seed=11)
        expected = 0.5 * float(inst.b @ inst.b)
        assert evaluate_objective(inst.spec, np.zeros(80)) == pytest.approx(expected)

    def test_rejects_nonzero_lstar(self):
        from pdsplit.core import ConjugateSmoothTerm

        spec = ProblemSpec(
            f=zero_smooth(), g=zero_prox(), h=zero_prox(),
            lstar=ConjugateSmoothTerm(gradient=lambda s: s, is_zero=False),
            A=IdentityOp(2),
        )
        with pytest.raises(UnsupportedObjectiveError):
            evaluate_objective(spec, np.zeros(2))

    def test_dimension_checked(self):
        spec = make_spec(zero_smooth(), zero_prox(), zero_prox(), IdentityOp(3))
        with pytest.raises(DimensionMismatchError):
            evaluate_objective(spec, np.zeros(4))

    def test_convex_along_segments(self, rng):
        inst = gen_fused_lasso(n=20, p=50, seed=4)
        for _ in range(20):
            x, y = rng.standard_normal(50), rng.standard_normal(50)
            fx = evaluate_objective(inst.spec, x)
            fy = evaluate_objective(inst.spec, y)
            for theta in (0.25, 0.5, 0.9):
                mid = evaluate_objective(inst.spec, theta * x + (1 - theta) * y)
                assert mid <= theta * fx + (1 - theta) * fy + 1e-9


class TestSmoothTerm:
    @pytest.mark.parametrize("given", ["residual", "value_from_residual"])
    def test_a_residual_comes_with_its_value_rule(self, given):
        with pytest.raises(ValueError, match="together"):
            SmoothTerm(value=lambda x: 0.0, gradient=np.zeros_like, beta=1.0,
                       **{given: lambda *args: args[0]})


class TestCocoercivity:
    def test_identity_gradient(self):
        term = quadratic_distance_term(np.zeros(6))
        ok, worst = sample_cocoercivity(term, samples=100, dim=6, rng_seed=0)
        assert ok
        assert worst >= 1.0 - 1e-12

    def test_least_squares_with_certified_beta(self, rng):
        A = rng.standard_normal((7, 5))
        term = least_squares_term(A, rng.standard_normal(7))
        assert term.beta <= 1.0 / float(np.linalg.eigvalsh(A.T @ A)[-1])
        assert sample_cocoercivity(term, samples=200, dim=5, rng_seed=1)[0]

    def test_overdeclared_beta_fails(self):
        term = SmoothTerm(value=lambda x: 0.5 * float(x @ x),
                          gradient=lambda x: x, beta=2.0)
        ok, worst = sample_cocoercivity(term, samples=50, dim=4, rng_seed=2)
        assert not ok
        assert worst == pytest.approx(1.0)


class TestGradientsMatchFiniteDifferences:
    @pytest.mark.parametrize("case", ["quadratic", "least_squares", "ridge"])
    def test_central_differences(self, case, rng):
        if case == "quadratic":
            term, dim = quadratic_distance_term(rng.standard_normal(9)), 9
        elif case == "least_squares":
            term, dim = least_squares_term(rng.standard_normal((6, 9)),
                                           rng.standard_normal(6)), 9
        else:
            term, dim = least_squares_term(rng.standard_normal((6, 9)),
                                           rng.standard_normal(6), ridge=1.3), 9
        h = 1e-6
        for _ in range(5):
            x = rng.standard_normal(dim)
            grad = term.gradient(x)
            fd = np.zeros(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd[i] = (term.value(x + e) - term.value(x - e)) / (2 * h)
            err = np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad))
            assert err <= 1e-5
