import itertools
import logging
import math
import re
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import pdsplit.algorithms as alg
from pdsplit.algorithms import (
    AlgorithmId,
    SolverState,
    StepSizes,
    fixed_point_residuals,
    initial_state,
    solve,
    validate_stepsizes,
)
from pdsplit.core import (
    INF,
    ROUNDING_SLACK,
    ConjugateSmoothTerm,
    ProblemSpec,
    ProxTerm,
    SmoothTerm,
    evaluate_objective,
    zero_conjugate_smooth,
    zero_smooth,
)
from pdsplit.exceptions import (
    AlgorithmMisuseError,
    GeometryViolationError,
    NumericalFailureError,
    StepSizeError,
)
from pdsplit.linops import DenseMatrixOp, IdentityOp, LinearMap
from pdsplit.metrics import LagrangianProbe, MNormContext, fixed_point_residual, lagrangian
from pdsplit.problems import (
    gen_fused_lasso,
    gen_toy_quadratic,
    least_squares_term,
    quadratic_distance_term,
)
from pdsplit.prox import l1, squared_l2, with_conjugate, zero_prox


def random_instance(rng, n=20, p=30, with_f=True, with_g=True):
    """Small well-scaled composite instance for trajectory comparisons."""
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    f = (least_squares_term(rng.standard_normal((n, p)) / np.sqrt(n),
                            rng.standard_normal(n))
         if with_f else zero_smooth())
    g = l1(0.5) if with_g else zero_prox()
    spec = ProblemSpec(f=f, g=g, h=l1(0.8), lstar=zero_conjugate_smooth(),
                       A=DenseMatrixOp(B))
    return spec, spec.A.norm_AAt_bound()


def run_steps(algorithm, spec, steps, z0, s0, k):
    """The initial state of ``algorithm`` at (z0, s0) and its next k states."""
    step = alg.STEP_FUNCTIONS[AlgorithmId(algorithm)]
    out = [initial_state(spec, steps, algorithm, z0, s0)]
    for _ in range(k):
        out.append(step(out[-1], spec, steps))
    return out


def max_deviation(states_a, states_b, attrs=("x", "s")):
    dev = 0.0
    for a, b in zip(states_a[1:], states_b[1:]):
        for attr in attrs:
            dev = max(dev, float(np.abs(getattr(a, attr) - getattr(b, attr)).max()))
    return dev


class TestStepSizes:
    def test_lambda_product(self):
        steps = StepSizes(0.5, 4.0)
        assert steps.lam == 2.0

    def test_from_lambda(self):
        steps = StepSizes.from_lambda(0.25, 0.125)
        assert steps.delta == pytest.approx(0.5)
        assert steps.lam == pytest.approx(0.125)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StepSizes(0.0, 1.0)
        with pytest.raises(ValueError):
            StepSizes(1.0, 1.0, theta=0.0)

    @pytest.mark.parametrize("gamma, delta", [
        (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (1.0, 1e-320),  # gamma/delta, the weight of the dual metric, overflows
    ])
    def test_rejects_what_the_solver_cannot_represent(self, gamma, delta):
        with pytest.raises(ValueError, match="finite"):
            StepSizes(gamma, delta)


class TestPd3oStep:
    def test_fixed_point_of_trivial_quadratic(self):
        # optimal x* = c gives the fixed pair (z*, s*) = (c, 0)
        inst = gen_toy_quadratic(dim=6, seed=5)
        steps = StepSizes.from_lambda(1.0, 0.5)
        state = initial_state(inst.spec, steps, "pd3o", inst.c, np.zeros(6))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PD3O](state, inst.spec, steps)
        assert np.abs(nxt.z - state.z).max() <= 1e-12
        assert np.abs(nxt.s - state.s).max() <= 1e-12

    def test_one_dimensional_two_step_solve(self):
        # f = x^2/2, g = h = 0, A the 1x1 zero map, gamma = 1, z0 = 2:
        # x = 2, s+ = 0, z+ = 0, and the next prox lands on the minimizer 0
        f = SmoothTerm(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
                       beta=1.0)
        spec = ProblemSpec(f=f, g=zero_prox(), h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(np.zeros((1, 1))))
        steps = StepSizes(1.0, 1.0)
        state = initial_state(spec, steps, "pd3o", np.array([2.0]), np.zeros(1))
        assert state.x[0] == 2.0 and state.grad_f[0] == 2.0
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PD3O](state, spec, steps)
        assert nxt.s[0] == 0.0
        assert nxt.z[0] == 0.0
        assert nxt.x[0] == 0.0

    def test_smooth_lstar_term(self):
        # with l*(s) = c*||s||^2/2 the third term becomes the infimal
        # convolution of h = ||.||^2/2 with a quadratic; for f = ||x - d||^2/2
        # and A = I the minimizer is d*(1+c)/(2+c)
        dim, c = 6, 0.7
        d = np.arange(1.0, dim + 1)
        lstar = ConjugateSmoothTerm(gradient=lambda s: c * s, is_zero=False,
                                    value=lambda s: 0.5 * c * float(s @ s))
        spec = ProblemSpec(f=quadratic_distance_term(d), g=zero_prox(),
                           h=squared_l2(0.5), lstar=lstar, A=IdentityOp(dim))
        rec = solve(spec, "pd3o", StepSizes.from_lambda(0.9, 0.5), max_iters=500,
                    residual_tol=1e-13, norm_AAt=1.0)
        np.testing.assert_allclose(rec.final_state.x, d * (1 + c) / (2 + c),
                                   atol=1e-10)


class TestReductions:
    def test_chambolle_pock_when_f_zero(self, rng):
        spec, norm = random_instance(rng, with_f=False)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        pd = run_steps("pd3o", spec, steps, z0, s0, 100)
        cp = run_steps("chambolle-pock", spec, steps, z0, s0, 100)
        assert max_deviation(pd, cp) <= 1e-10

    def test_papc_when_g_zero(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        pd = run_steps("pd3o", spec, steps, z0, s0, 100)
        papc = run_steps("papc", spec, steps, z0, s0, 100)
        assert max_deviation(pd, papc) <= 1e-10

    def test_davis_yin_z_sequence_when_identity(self, rng):
        p = 30
        f = least_squares_term(rng.standard_normal((p, p)) / np.sqrt(p),
                               rng.standard_normal(p))
        spec = ProblemSpec(f=f, g=l1(0.3), h=l1(0.4),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(p))
        gamma = spec.beta
        steps = StepSizes(gamma, 1.0 / gamma)
        z0, s0 = rng.standard_normal(p), rng.standard_normal(p)
        pd = run_steps("pd3o", spec, steps, z0, s0, 100)
        dy = run_steps("davis-yin", spec, steps, z0, s0, 100)
        assert max_deviation(pd, dy, attrs=("z",)) <= 1e-10

    def test_pdfp_reduces_to_papc(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        papc = run_steps("papc", spec, steps, z0, s0, 100)
        pdfp = run_steps("pdfp", spec, steps, z0, s0, 100)
        assert max_deviation(papc, pdfp) <= 1e-10

    def test_afba_reduces_to_papc(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        papc = run_steps("papc", spec, steps, z0, s0, 100)
        afba = run_steps("afba", spec, steps, z0, s0, 100)
        # afba carries the prox output; with g = 0 it equals papc's pre-prox
        # point, so compare duals directly and primals shifted by one report
        dev = max_deviation(papc, afba, attrs=("s",))
        gamma = steps.gamma
        for p_st, a_st in zip(papc[1:], afba[1:]):
            papc_pre_prox = (p_st.x - gamma * p_st.grad_f
                             - gamma * spec.A.adjoint_apply(p_st.s))
            dev = max(dev, float(np.abs(a_st.x - papc_pre_prox).max()))
        assert dev <= 1e-10

    def test_condat_vu_reduces_to_chambolle_pock(self, rng):
        spec, norm = random_instance(rng, with_f=False)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        cp = run_steps("chambolle-pock", spec, steps, z0, s0, 100)
        cv = run_steps("condat-vu", spec, steps, z0, s0, 100)
        assert max_deviation(cp, cv) <= 1e-10


class TestReformulated:
    def test_matches_plain_form(self, rng):
        spec, norm = random_instance(rng)
        steps = StepSizes.from_lambda(1.3 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        plain = run_steps("pd3o", spec, steps, z0, s0, 100)
        ref = run_steps("pd3o-reformulated", spec, steps, z0, s0, 100)
        assert max_deviation(plain, ref) <= 1e-10

    def test_extrapolation_without_f(self, rng):
        spec, norm = random_instance(rng, with_f=False)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        state = initial_state(spec, steps, "pd3o-reformulated",
                              rng.standard_normal(30), rng.standard_normal(20))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PD3O_REFORMULATED](state, spec, steps)
        np.testing.assert_array_equal(nxt.xbar, 2.0 * nxt.x - state.x)

    def test_fixed_point_preserved(self):
        inst = gen_toy_quadratic(dim=4, seed=9)
        steps = StepSizes.from_lambda(1.0, 0.5)
        z_star, s_star = inst.c, np.zeros(4)
        state = initial_state(inst.spec, steps, "pd3o-reformulated", z_star, s_star)
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PD3O_REFORMULATED](state, inst.spec, steps)
        assert np.abs(nxt.x - state.x).max() <= 1e-12
        assert np.abs(nxt.s - state.s).max() <= 1e-12


class TestChambollePock:
    def test_requires_zero_f(self, rng):
        spec, norm = random_instance(rng, with_f=True)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        state = initial_state(spec, steps, "chambolle-pock")
        with pytest.raises(AlgorithmMisuseError):
            alg.primal_dual_step(state, spec, steps, "chambolle-pock")

    def test_scalar_hand_example(self):
        # g the indicator of {0}, h = (.)^2/2, gamma = delta = 0.5, from
        # x = xbar = 1, s = 0: s+ = 1/3, x+ = 0, xbar+ = -1
        g = ProxTerm(value=lambda x: 0.0 if np.all(x == 0.0) else np.inf,
                     prox=lambda v, t: np.zeros_like(v))
        spec = ProblemSpec(f=zero_smooth(), g=g, h=squared_l2(0.5),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(1))
        steps = StepSizes(0.5, 0.5)
        state = SolverState(z=np.array([1.0]), s=np.array([0.0]), x=np.array([1.0]),
                            xbar=np.array([1.0]))
        state.grad_f, state.ats = np.zeros(1), state.s.copy()  # f = 0 and A = I
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.CHAMBOLLE_POCK](state, spec, steps)
        assert nxt.s[0] == pytest.approx(1.0 / 3.0)
        assert nxt.x[0] == 0.0
        assert nxt.xbar[0] == -1.0

    def test_stationary_when_g_h_zero(self, rng):
        spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(4))
        steps = StepSizes(0.5, 0.5)
        x = rng.standard_normal(4)
        state = SolverState(z=x.copy(), s=rng.standard_normal(4), x=x.copy(),
                            xbar=x.copy())
        state.grad_f, state.ats = np.zeros(4), state.s.copy()  # f = 0 and A = I
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.CHAMBOLLE_POCK](state, spec, steps)
        np.testing.assert_array_equal(nxt.s, np.zeros(4))
        np.testing.assert_array_equal(nxt.x, x)


class TestPapc:
    def test_requires_zero_g(self, rng):
        spec, norm = random_instance(rng, with_g=True)
        steps = StepSizes.from_lambda(spec.beta, 0.5 / norm)
        state = initial_state(spec, steps, "papc")
        with pytest.raises(AlgorithmMisuseError):
            alg.primal_dual_step(state, spec, steps, "papc")

    def test_gradient_descent_when_h_zero(self, rng):
        c = rng.standard_normal(5)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=zero_prox(),
                           h=zero_prox(), lstar=zero_conjugate_smooth(),
                           A=IdentityOp(5))
        steps = StepSizes(0.8, 0.9)
        state = initial_state(spec, steps, "papc", rng.standard_normal(5))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PAPC](state, spec, steps)
        np.testing.assert_array_equal(nxt.s, np.zeros(5))
        np.testing.assert_allclose(nxt.x, state.x - 0.8 * (state.x - c), atol=1e-15)

    def test_converges_to_kkt_enumeration_solution(self):
        # minimize ||x - c||^2/2 + mu*||A x||_1 in 2-D; the exact solution
        # comes from enumerating sign patterns of A x and solving the
        # stationarity system for each
        A = np.array([[1.0, 0.5], [-0.3, 1.0]])
        c = np.array([2.0, -0.5])
        mu = 0.8

        def kkt_solutions():
            sols = []
            for sig in itertools.product((-1, 0, 1), repeat=2):
                fixed = [i for i in range(2) if sig[i] != 0]
                zero = [i for i in range(2) if sig[i] == 0]
                u = np.zeros(2)
                for i in fixed:
                    u[i] = mu * sig[i]
                c0 = c - A.T @ u
                if zero:
                    G = A[zero] @ A[zero].T
                    try:
                        u_zero = np.linalg.solve(G, A[zero] @ c0)
                    except np.linalg.LinAlgError:
                        continue
                    if np.any(np.abs(u_zero) > mu + 1e-12):
                        continue
                    for idx, i in enumerate(zero):
                        u[i] = u_zero[idx]
                x = c - A.T @ u
                ax = A @ x
                if any(abs(ax[i]) > 1e-10 for i in zero):
                    continue
                if any(ax[i] * sig[i] < -1e-12 for i in fixed):
                    continue
                sols.append(x)
            return sols

        sols = kkt_solutions()
        assert sols, "KKT enumeration found no candidate"
        objective = lambda x: 0.5 * float((x - c) @ (x - c)) + mu * float(
            np.abs(A @ x).sum())
        x_star = min(sols, key=objective)

        spec = ProblemSpec(f=quadratic_distance_term(c), g=zero_prox(), h=l1(mu),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(A))
        norm = spec.A.norm_AAt_bound()
        rec = solve(spec, "papc", StepSizes.from_lambda(1.0, 0.5 / norm),
                    max_iters=5000, residual_tol=1e-13, norm_AAt=norm)
        assert np.abs(rec.final_state.x - x_star).max() <= 1e-6


class TestDavisYin:
    def test_requires_identity_and_unit_product(self, rng):
        spec, norm = random_instance(rng)
        steps = StepSizes.from_lambda(spec.beta, 0.5 / norm)
        state = initial_state(spec, steps, "pd3o")
        with pytest.raises(AlgorithmMisuseError):
            alg.primal_dual_step(state, spec, steps, "davis-yin")

        inst = gen_toy_quadratic(dim=4, seed=0)
        bad = StepSizes(0.5, 1.0)
        with pytest.raises(AlgorithmMisuseError):
            alg.primal_dual_step(initial_state(inst.spec, bad, "davis-yin"), inst.spec, bad,
                                 "davis-yin")

    def test_forward_backward_when_h_zero(self, rng):
        c = rng.standard_normal(5)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.2), h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(5))
        steps = StepSizes(0.9, 1.0 / 0.9)
        state = initial_state(spec, steps, "davis-yin", rng.standard_normal(5))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.DAVIS_YIN](state, spec, steps)
        np.testing.assert_allclose(nxt.z, state.x - 0.9 * state.grad_f, atol=1e-15)

    def test_dual_maintained_via_moreau_split(self, rng):
        # s+ = delta*(w - prox_{gamma h}(w)) with w the reflected point
        c = rng.standard_normal(5)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.2), h=l1(0.4),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(5))
        gamma = 0.8
        steps = StepSizes(gamma, 1.0 / gamma)
        state = initial_state(spec, steps, "davis-yin", rng.standard_normal(5),
                              rng.standard_normal(5))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.DAVIS_YIN](state, spec, steps)
        w = 2 * state.x - state.z - gamma * state.grad_f
        expected = (1.0 / gamma) * (w - spec.h.prox(w, gamma))
        np.testing.assert_allclose(nxt.s, expected, atol=1e-14)

    def test_douglas_rachford_when_f_zero(self, rng):
        spec = ProblemSpec(f=zero_smooth(), g=l1(0.3), h=l1(0.5),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(6))
        steps = StepSizes(0.7, 1.0 / 0.7)
        z = rng.standard_normal(6)
        state = initial_state(spec, steps, "pd3o", z, np.zeros(6))
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.DAVIS_YIN](state, spec, steps)
        x = spec.g.prox(z, 0.7)
        expected = z + spec.h.prox(2 * x - z, 0.7) - x
        np.testing.assert_allclose(nxt.z, expected, atol=1e-14)


class TestAfba:
    def test_zero_operator_is_proximal_gradient(self, rng):
        c = rng.standard_normal(6)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.4), h=l1(1.0),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(np.zeros((3, 6))))
        steps = StepSizes(0.9, 0.5)
        state = initial_state(spec, steps, "afba")
        xs = [state.x.copy()]
        for _ in range(20):
            state = alg.primal_dual_step(state, spec, steps, "afba")
            xs.append(state.x.copy())
            np.testing.assert_array_equal(state.s, np.zeros(3))
        # reproduce with a plain proximal-gradient recursion from the same start
        x = xs[0]
        for expected in xs[1:]:
            x = spec.g.prox(x - 0.9 * spec.f.gradient(x), 0.9)
            np.testing.assert_allclose(x, expected, atol=1e-14)


class TestRelaxation:
    def test_relaxed_step_is_the_average_of_the_state_and_its_image(self, rng):
        spec, norm = random_instance(rng)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        for theta in (0.7, 1.4):
            steps = StepSizes.from_lambda(spec.beta, 0.5 / norm, theta=theta)
            state = run_steps("pd3o", spec, steps, z0, s0, 3)[-1]
            step = alg.STEP_FUNCTIONS[AlgorithmId.PD3O]
            image = step(state, spec, replace(steps, theta=1.0))
            expected = initial_state(spec, steps, "pd3o",
                                     theta * image.z + (1 - theta) * state.z,
                                     theta * image.s + (1 - theta) * state.s)
            relaxed = step(state, spec, steps)
            for attr in ("z", "s", "x", "grad_f", "xbar", "ats"):
                dev = np.abs(getattr(relaxed, attr) - getattr(expected, attr)).max()
                assert dev <= 1e-12, (theta, attr)

    def test_other_steps_refuse_relaxation(self, rng):
        # f = g = 0, A = I and gamma*delta = 1: a problem every scheme accepts
        spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=l1(0.5),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(4))
        plain, relaxed = StepSizes(0.5, 2.0), StepSizes(0.5, 2.0, theta=1.2)
        for algorithm in AlgorithmId:
            if algorithm is AlgorithmId.PD3O:
                continue
            state = initial_state(spec, plain, algorithm, rng.standard_normal(4))
            alg.primal_dual_step(state, spec, plain, algorithm)
            with pytest.raises(AlgorithmMisuseError, match="only pd3o relaxes"):
                alg.primal_dual_step(state, spec, relaxed, algorithm)


class TestCondatVu:
    def test_matches_reformulated_for_affine_f(self, rng):
        # constant gradients make the extrapolation corrections cancel
        a = rng.standard_normal(30)
        f = SmoothTerm(value=lambda x: float(a @ x), gradient=lambda x: a.copy(),
                       beta=math.inf)
        B = rng.standard_normal((20, 30)) / 5.0
        spec = ProblemSpec(f=f, g=l1(0.5), h=l1(0.8),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
        norm = spec.A.norm_AAt_bound()
        steps = StepSizes.from_lambda(0.8, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        cv = run_steps("condat-vu", spec, steps, z0, s0, 50)
        ref = run_steps("pd3o-reformulated", spec, steps, z0, s0, 50)
        assert max_deviation(cv, ref, attrs=("x", "s", "xbar")) <= 1e-12


class TestCrossAlgorithmConvergence:
    @pytest.mark.parametrize("algorithm", ["pdfp", "condat-vu", "afba"])
    def test_reaches_reference_objective(self, algorithm, small_fused_lasso,
                                         small_reference):
        inst, ref = small_fused_lasso, small_reference
        rec = solve(inst.spec, algorithm, StepSizes.from_lambda(inst.beta, 0.125),
                    max_iters=12000, residual_tol=1e-9, norm_AAt=inst.norm_AAt)
        rel = abs(rec.metadata["final_objective"] - ref.objective) / abs(ref.objective)
        assert rel <= 1e-6


class TestValidateStepsizes:
    def test_pd3o_accepts_large_gamma(self):
        steps = StepSizes.from_lambda(1.9, 0.5 / 4.0)
        verdict = validate_stepsizes("pd3o", steps, beta=1.0, norm_AAt=4.0)
        assert verdict.valid

    def test_condat_vu_rejects_gamma_beyond_beta(self):
        # gamma = 1.5*beta with lambda*||AA^T|| = 0.5 exceeds the combined budget
        steps = StepSizes.from_lambda(1.5, 0.125)
        verdict = validate_stepsizes("condat-vu", steps, beta=1.0, norm_AAt=4.0)
        assert not verdict.valid
        assert "<= 1" in verdict.violated

    def test_afba_boundary_matches_condat_vu_at_half(self):
        # at lambda*||AA^T|| = 1/2 both conditions share the gamma <= beta edge
        steps = StepSizes.from_lambda(1.0, 0.125)
        assert validate_stepsizes("afba", steps, beta=1.0, norm_AAt=4.0).valid
        assert validate_stepsizes("condat-vu", steps, beta=1.0, norm_AAt=4.0).valid

    def test_chambolle_pock_exact_boundary_is_valid(self):
        steps = StepSizes.from_lambda(0.9, 1.0 / 4.0)
        assert validate_stepsizes("chambolle-pock", steps, beta=math.inf,
                                  norm_AAt=4.0).valid

    def test_everything_rejected_past_metric_boundary(self):
        steps = StepSizes.from_lambda(1.0, 1.01 / 4.0)
        for algorithm in ("pd3o", "pdfp", "condat-vu", "afba", "chambolle-pock",
                          "papc"):
            assert not validate_stepsizes(algorithm, steps, beta=1.0,
                                          norm_AAt=4.0).valid, algorithm

    def test_davis_yin_needs_unit_product(self):
        assert validate_stepsizes("davis-yin", StepSizes(0.5, 2.0), 1.0, 1.0).valid
        assert not validate_stepsizes("davis-yin", StepSizes(0.5, 1.0), 1.0, 1.0).valid

    def test_rounding_slack_bounds_the_non_strict_verdicts(self):
        # gamma = beta = 1, so r = 1/2: condat-vu's t + r and pd3o's t land
        # 5e-13 past 1, and each message prints that value, not "= 1"
        for algorithm, t in (("condat-vu", 0.5 + 5e-13), ("pd3o", 1.0 + 5e-13)):
            steps = StepSizes.from_lambda(1.0, t / 4.0)
            verdict = validate_stepsizes(algorithm, steps, beta=1.0, norm_AAt=4.0)
            assert not verdict.valid, algorithm
            assert "= 1 " not in verdict.violated, verdict.violated
            assert "= 1.0000000000005" in verdict.violated, verdict.violated

    def test_exact_boundaries_validate_and_ten_slacks_past_are_rejected(self):
        rng = np.random.default_rng(11)
        push = 1.0 + 10.0 * ROUNDING_SLACK
        for gamma, norm, rho in zip((10.0 ** rng.uniform(-6, 6, 2000)).tolist(),
                                    (10.0 ** rng.uniform(-6, 6, 2000)).tolist(),
                                    rng.uniform(0.05, 0.95, 2000).tolist()):
            beta = gamma / (2.0 * rho)  # r = rho
            for edge, valid in ((1.0, True), (push, False)):
                cases = (
                    ("chambolle-pock", StepSizes.from_lambda(gamma, edge / norm), INF, norm),
                    ("condat-vu", StepSizes.from_lambda(gamma, (edge - rho) / norm), beta, norm),
                    ("davis-yin", StepSizes(gamma, edge / gamma), 2.0 * gamma, 1.0),
                )
                for algorithm, steps, b, n in cases:
                    verdict = validate_stepsizes(algorithm, steps, beta=b, norm_AAt=n)
                    assert verdict.valid is valid, (algorithm, gamma, norm, rho, verdict)

    def test_every_scheme_has_a_condition_row_and_a_step(self):
        assert list(alg.SCHEMES) == list(alg.STEP_FUNCTIONS) == list(AlgorithmId)
        for scheme, row in alg.SCHEMES.items():
            assert row.conditions, scheme
            step = alg.STEP_FUNCTIONS[scheme]
            if row.rule is None:  # a scheme with its own pass and start
                assert row.start is None and step is alg._afba_pass
            else:
                assert row.start is not None
                assert step.func is alg._shared_pass and step.keywords == {"scheme": scheme}


# (t, r, lambda) points; each scheme's verdict at each, None where valid
VERDICT_GRID = ((0.5, 0.25, 1.0), (0.5, 0.25, 0.5), (1.0, 0.0, 1.0), (0.5, 0.5, 1.0),
                (0.25, 1.0, 1.0), (1.2, 0.0, 2.0), (1.2, 0.1, 1.0))
_T_LT = "gamma*delta*||AA^T|| = {} must be < 1"
_R_LT = "gamma/(2 beta) = 1.0 must be < 1"
_CV = "gamma*delta*||AA^T|| + gamma/(2 beta) = {} must be <= 1"
_AFBA = "t/2 + sqrt(t/2)/2 + gamma/(2 beta) = {} must be <= 1"
_STRICT_PAIR = (None, None, _T_LT.format(1.0), None, _R_LT,
                _T_LT.format(1.2), _T_LT.format(1.2))
PINNED_VERDICTS = {
    "pd3o": _STRICT_PAIR,
    "pd3o-reformulated": _STRICT_PAIR,
    "papc": _STRICT_PAIR,
    "pdfp": _STRICT_PAIR,
    "chambolle-pock": (None, None, None, None, None,
                       "gamma*delta*||AA^T|| = 1.2 must be <= 1",
                       "gamma*delta*||AA^T|| = 1.2 must be <= 1"),
    "davis-yin": (None, "gamma*delta = 0.5 must be = 1", None, None, _R_LT,
                  "gamma*delta = 2.0 must be = 1", None),
    "condat-vu": (None, None, None, None, _CV.format(1.25), _CV.format(1.2),
                  _CV.format(1.3)),
    "afba": (None, None, None, None, _AFBA.format(1.301776695296637), None,
             _AFBA.format(1.0872983346207417)),
}
# What each scheme's step requires beyond the shared skeleton, by the text it names.
PINNED_PREMISES = {
    "pd3o": (),
    "pd3o-reformulated": ("theta = 1",),
    "condat-vu": ("l* = 0", "theta = 1"),
    "pdfp": ("l* = 0", "theta = 1"),
    "afba": ("l* = 0", "theta = 1"),
    "chambolle-pock": ("f = 0", "l* = 0", "theta = 1"),
    "papc": ("g = 0", "l* = 0", "theta = 1"),
    "davis-yin": ("A = I and gamma*delta = 1", "l* = 0", "theta = 1"),
}


def premise_breakers():
    """A problem every scheme accepts (f = 0, g = 0, A = I with gamma*delta = 1,
    l* = 0, theta = 1), and per premise the same problem with only it broken."""
    spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=l1(0.5),
                       lstar=zero_conjugate_smooth(), A=IdentityOp(4))
    steps = StepSizes(0.5, 2.0)
    smooth_lstar = ConjugateSmoothTerm(gradient=lambda s: 0.5 * s, is_zero=False,
                                       value=lambda s: 0.25 * float(s @ s))
    return spec, steps, {
        "f = 0": (replace(spec, f=quadratic_distance_term(np.arange(4.0))), steps),
        "g = 0": (replace(spec, g=l1(0.3)), steps),
        "A = I and gamma*delta = 1": (spec, StepSizes(0.5, 1.0)),
        "l* = 0": (replace(spec, lstar=smooth_lstar), steps),
        "theta = 1": (spec, StepSizes(0.5, 2.0, theta=1.2)),
    }


class TestSchemeTable:
    @pytest.mark.parametrize("algorithm", [a.value for a in AlgorithmId])
    def test_verdicts_on_a_grid_are_pinned(self, algorithm):
        got = []
        for t, r, lam in VERDICT_GRID:
            beta = INF if r == 0.0 else 1.0 / (2.0 * r)
            verdict = validate_stepsizes(algorithm, StepSizes(1.0, lam), beta, t / lam)
            assert verdict.details == {"t": t, "r": r}
            assert verdict.valid is (verdict.violated is None)
            got.append(verdict.violated)
        assert tuple(got) == PINNED_VERDICTS[algorithm]

    @pytest.mark.parametrize("algorithm", [a.value for a in AlgorithmId])
    def test_each_premise_breaks_the_step_by_name(self, algorithm, rng):
        # admit refuses exactly the premises the checked step refuses, by the same name
        spec, steps, breakers = premise_breakers()
        step = partial(alg.primal_dual_step, scheme=algorithm)
        z0 = rng.standard_normal(4)
        step(initial_state(spec, steps, algorithm, z0), spec, steps)
        alg.admit(spec, algorithm, steps, 1.0, force=True)
        for what, (bad_spec, bad_steps) in breakers.items():
            state = initial_state(bad_spec, bad_steps, algorithm, z0)
            if what in PINNED_PREMISES[algorithm]:
                with pytest.raises(AlgorithmMisuseError, match=re.escape(what)):
                    step(state, bad_spec, bad_steps)
                with pytest.raises(AlgorithmMisuseError, match=re.escape(what)):
                    alg.admit(bad_spec, algorithm, bad_steps, 1.0, force=True)
            else:
                step(state, bad_spec, bad_steps)
                alg.admit(bad_spec, algorithm, bad_steps, 1.0, force=True)

    def test_admit_checks_premises_then_theta_then_the_conditions(self, small_fused_lasso):
        inst = small_fused_lasso
        past_boundary = StepSizes.from_lambda(1.9 * inst.beta, 1.0)  # t is about 4
        # chambolle-pock breaks both its premise f = 0 and t <= 1: the premise is named
        with pytest.raises(AlgorithmMisuseError, match="requires f = 0"):
            alg.admit(inst.spec, "chambolle-pock", past_boundary, inst.norm_AAt)
        # theta = 1.2 is past the cap 2 - 1.9/2 = 1.05 as well: theta is named
        with pytest.raises(StepSizeError, match=re.escape("theta = 1.2 must lie in (0, 1.05)")):
            alg.admit(inst.spec, "pd3o", replace(past_boundary, theta=1.2), inst.norm_AAt,
                      force=True)
        with pytest.raises(StepSizeError, match="step sizes rejected for pd3o: gamma"):
            alg.admit(inst.spec, "pd3o", past_boundary, inst.norm_AAt)
        verdict = alg.admit(inst.spec, "pd3o", past_boundary, inst.norm_AAt, force=True)
        assert verdict == validate_stepsizes("pd3o", past_boundary, inst.beta, inst.norm_AAt)
        assert not verdict.valid

    @pytest.mark.parametrize("algorithm, theta", [
        *((a.value, 1.0) for a in AlgorithmId), ("pd3o", 1.4)])
    def test_the_checked_step_by_name_is_the_bare_pass(self, algorithm, theta, rng):
        # f = g = 0, A = I and gamma*delta = 1 is a problem every scheme accepts; f and g
        # are then made nonzero where the scheme allows, so every branch does arithmetic
        spec, steps, _ = premise_breakers()
        steps = replace(steps, theta=theta)
        if algorithm != "chambolle-pock":
            spec = replace(spec, f=quadratic_distance_term(np.arange(4.0)))
        if algorithm != "papc":
            spec = replace(spec, g=l1(0.3))
        state = initial_state(spec, steps, algorithm, rng.standard_normal(4),
                              rng.standard_normal(4))
        for _ in range(3):
            checked = alg.primal_dual_step(state, spec, steps, algorithm)
            bare = alg.STEP_FUNCTIONS[AlgorithmId(algorithm)](state, spec, steps)
            for attr in ("z", "s", "x", "grad_f", "xbar", "ats"):
                a, b = getattr(checked, attr), getattr(bare, attr)
                assert (a is None) == (b is None), attr
                if a is not None:
                    assert a.tobytes() == b.tobytes(), (algorithm, attr)
            state = bare


class TestSolve:
    def test_trivial_quadratic_converges(self):
        inst = gen_toy_quadratic(dim=12, seed=3)
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(1.0, 0.5),
                    max_iters=200, residual_tol=1e-10, norm_AAt=1.0)
        assert rec.metadata["converged"]
        assert rec.metadata["iterations"] <= 200
        assert np.abs(rec.final_state.x - inst.c).max() <= 1e-10

    def test_rejects_invalid_steps_unless_forced(self):
        inst = gen_toy_quadratic(dim=4, seed=1)
        bad = StepSizes.from_lambda(1.0, 1.5)  # gamma*delta*||I|| > 1
        with pytest.raises(StepSizeError):
            solve(inst.spec, "pd3o", bad, max_iters=10, norm_AAt=1.0)
        rec = solve(inst.spec, "pd3o", bad, max_iters=10, norm_AAt=1.0, force=True)
        assert rec.metadata["forced"] is True

    @pytest.mark.parametrize("setting", [{"residual_tol": math.nan},
                                         {"residual_tol": -1e-9}, {"log_every": -1}])
    def test_refuses_a_bad_loop_setting_before_any_oracle_call(self, setting):
        inst = gen_toy_quadratic(dim=4, seed=1)
        calls = []
        f = replace(inst.spec.f, gradient=lambda x: calls.append(x) or x - inst.c)
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be >= 0"):
            solve(replace(inst.spec, f=f), "pd3o", StepSizes.from_lambda(1.0, 0.5),
                  max_iters=10, norm_AAt=1.0, **setting)
        assert calls == []

    @pytest.mark.parametrize("setting", [{"max_iters": 2.5}, {"log_every": 2.5}])
    def test_refuses_a_count_that_is_not_an_integer(self, setting):
        inst = gen_toy_quadratic(dim=4, seed=1)
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be an integer"):
            solve(inst.spec, "pd3o", StepSizes.from_lambda(1.0, 0.5), norm_AAt=1.0,
                  **{"max_iters": 10, **setting})

    def test_numpy_integer_counts_pass(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                    norm_AAt=inst.norm_AAt, max_iters=np.int64(30), log_every=np.int32(20))
        assert rec.metadata["iterations"] == 30
        assert list(rec.iters()) == [*range(11), 20, 29]

    @pytest.mark.parametrize("shape", ["record", "1-tuple", "3-tuple"])
    def test_refuses_a_reference_that_is_not_a_pair(self, shape, small_fused_lasso,
                                                    small_reference):
        inst, ref = small_fused_lasso, small_reference
        reference = {"record": ref, "1-tuple": (ref.x,),
                     "3-tuple": (ref.x, ref.s, ref.objective)}[shape]
        with pytest.raises(ValueError, match=re.escape("(x_ref, s_ref) pair")):
            solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125), max_iters=3,
                  norm_AAt=inst.norm_AAt, reference=reference)

    def test_relaxed_run_matches_reference(self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        # theta = 1.4 < 2 - gamma/(2 beta) = 1.5 at gamma = beta
        rec = solve(inst.spec, "pd3o",
                    StepSizes.from_lambda(inst.beta, 0.125, theta=1.4),
                    max_iters=6000, residual_tol=0.0, norm_AAt=inst.norm_AAt)
        rel = abs(rec.metadata["final_objective"] - ref.objective) / abs(ref.objective)
        assert rel <= 1e-6

    def test_relaxation_limits_enforced(self, small_fused_lasso):
        inst = small_fused_lasso
        with pytest.raises(StepSizeError):
            solve(inst.spec, "pd3o",
                  StepSizes.from_lambda(inst.beta, 0.125, theta=1.6),
                  max_iters=10, norm_AAt=inst.norm_AAt)
        with pytest.raises(AlgorithmMisuseError):
            solve(inst.spec, "pdfp",
                  StepSizes.from_lambda(inst.beta, 0.125, theta=1.2),
                  max_iters=10, norm_AAt=inst.norm_AAt)

    @pytest.mark.parametrize("algorithm, what", [("chambolle-pock", "f = 0"),
                                                 ("papc", "g = 0")])
    def test_a_premise_breach_costs_no_oracle_call(self, algorithm, what, small_fused_lasso,
                                                   counting_spec):
        inst = small_fused_lasso
        spec, counts = counting_spec(inst.spec)
        with pytest.raises(AlgorithmMisuseError, match=re.escape(what)):
            solve(spec, algorithm, StepSizes.from_lambda(inst.beta, 0.125),
                  max_iters=10, norm_AAt=inst.norm_AAt)
        assert set(counts.values()) == {0}

    def test_a_premise_breach_reads_no_generic_norm_bound(self):
        # an operator with only the generic bound pays k operator calls for it
        inst, calls = gen_fused_lasso(20, 60, 3), []

        class Counted(LinearMap):
            def _apply(self, x):
                calls.append("A")
                return inst.spec.A.apply(x)

            def _adjoint(self, s):
                calls.append("At")
                return inst.spec.A.adjoint_apply(s)

        spec = replace(inst.spec, A=Counted(inst.spec.A.in_dim, inst.spec.A.out_dim))
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        with pytest.raises(AlgorithmMisuseError, match=re.escape("f = 0")):
            solve(spec, "chambolle-pock", steps, max_iters=10)
        assert calls == []
        record = solve(spec, "pd3o", steps, max_iters=2)
        assert record.metadata["norm_AAt"] == spec.A.norm_AAt_bound()
        assert len(calls) >= min(spec.A.in_dim, spec.A.out_dim)  # the bound, then the passes

    def test_oracle_counts_per_iteration(self, small_fused_lasso, counting_spec):
        inst = small_fused_lasso
        # (g-prox, h-prox, gradient, A^T) calls per iteration
        expected = {"pd3o": (1, 1, 1, 1), "pd3o-reformulated": (1, 1, 1, 1),
                    "condat-vu": (1, 1, 1, 1), "afba": (1, 1, 1, 1),
                    "pdfp": (2, 1, 1, 1), "papc": (1, 1, 1, 1), "davis-yin": (1, 1, 1, 1)}
        for algorithm, (gp, hp, fg, at) in expected.items():
            spec, steps = inst.spec, StepSizes.from_lambda(inst.beta, 0.125)
            if algorithm == "papc":
                # papc needs g = 0; its g-prox is the zero prox, a copy
                spec = replace(inst.spec, g=zero_prox())
            elif algorithm == "davis-yin":
                # A = I, whose apply and adjoint are counted too, and gamma*delta = 1
                spec = ProblemSpec(f=quadratic_distance_term(np.arange(6.0)), g=l1(0.2),
                                   h=l1(0.4), lstar=zero_conjugate_smooth(), A=IdentityOp(6))
                steps = StepSizes(0.8, 1.0 / 0.8)
            ispec, counters = counting_spec(spec)
            state = initial_state(ispec, steps, algorithm)
            before = dict(counters)
            n = 40
            for _ in range(n):
                state = alg.STEP_FUNCTIONS[AlgorithmId(algorithm)](state, ispec, steps)
            after = dict(counters)
            assert after["g_prox"] - before["g_prox"] == gp * n, algorithm
            assert after["h_prox"] - before["h_prox"] == hp * n, algorithm
            assert after["f_grad"] - before["f_grad"] == fg * n, algorithm
            assert after["a_adjoint"] - before["a_adjoint"] == at * n, algorithm

    @pytest.mark.parametrize("algorithm, theta, smooth_lstar", [
        *((a.value, 1.0, False) for a in AlgorithmId),
        ("pd3o", 0.7, False), ("pd3o", 1.4, False), ("pd3o", 1.0, True),
    ])
    def test_declared_counts_are_the_calls_of_the_steps_and_start(
            self, algorithm, theta, smooth_lstar, small_fused_lasso, small_reference,
            counting_spec, monkeypatch):
        inst = small_fused_lasso
        spec, steps = inst.spec, StepSizes.from_lambda(inst.beta, 0.1, theta=theta)
        reference = (small_reference.x, small_reference.s)
        if algorithm == "chambolle-pock":
            spec, steps = replace(spec, f=zero_smooth()), StepSizes.from_lambda(1.0, 0.1)
        elif algorithm == "papc":
            spec = replace(spec, g=zero_prox())
        elif algorithm == "davis-yin":
            c = np.arange(6.0)
            spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.2), h=l1(0.4),
                               lstar=zero_conjugate_smooth(), A=IdentityOp(6))
            steps, reference = StepSizes(0.8, 1.0 / 0.8), (c, np.zeros(6))
        elif smooth_lstar:
            spec = replace(spec, lstar=ConjugateSmoothTerm(
                gradient=lambda s: 0.5 * s, is_zero=False,
                value=lambda s: 0.25 * float(s @ s)))
        spec, counts = counting_spec(spec)
        start = initial_state(spec, steps, algorithm)
        # only the calls made inside a step or initial_state, not the diagnostics'
        inside = dict.fromkeys(counts, 0)

        def counted(fn):
            def run(*args, **kwargs):
                before = dict(counts)
                try:
                    return fn(*args, **kwargs)
                finally:
                    for key in counts:
                        inside[key] += counts[key] - before[key]
            return run

        for scheme, fn in list(alg.STEP_FUNCTIONS.items()):
            monkeypatch.setitem(alg.STEP_FUNCTIONS, scheme, counted(fn))
        monkeypatch.setattr(alg, "initial_state", counted(alg.initial_state))
        for ref, init in itertools.product((None, reference), (None, start)):
            inside.update(dict.fromkeys(inside, 0))
            rec = solve(spec, algorithm, steps, init=init, max_iters=25, reference=ref,
                        log_every=3)
            gap_on = ref is not None and theta == 1.0 and not smooth_lstar
            assert (rec.rows[-1].gap is not None) == gap_on
            assert rec.metadata["oracle_calls"] == inside, (ref is None, init is None)
            assert inside["lstar_grad"] == (25 if smooth_lstar else 0)

    def test_incomplete_init_is_rejected(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.1)
        # every scheme needs xbar and A^T s; all but AFBA also the gradient
        for algorithm, needed in (("pd3o", ("xbar", "ats", "grad_f")),
                                  ("condat-vu", ("xbar", "ats", "grad_f")),
                                  ("afba", ("xbar", "ats"))):
            start = initial_state(inst.spec, steps, algorithm)
            for name in needed:
                with pytest.raises(AlgorithmMisuseError, match=name):
                    solve(inst.spec, algorithm, steps, init=replace(start, **{name: None}),
                          max_iters=3)
        start = initial_state(inst.spec, steps, "pd3o")
        with pytest.raises(AlgorithmMisuseError, match="xbar"):
            solve(inst.spec, "pd3o", steps, init=SolverState(start.z, start.s, start.x),
                  max_iters=3)

    def test_relaxed_run_makes_one_oracle_call_per_pass(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125, theta=1.4),
                    max_iters=300, residual_tol=0.0, norm_AAt=inst.norm_AAt)
        calls = rec.metadata["oracle_calls"]
        # one each at start and one per pass: the step relaxes before its g-prox
        assert calls["g_prox"] == calls["f_grad"] == calls["a_adjoint"] == 301

    def test_relaxed_residual_measures_the_unrelaxed_step(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125, theta=0.7)
        ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A, norm_AAt=inst.norm_AAt)
        seen = []
        solve(inst.spec, "pd3o", steps, max_iters=20, residual_tol=0.0,
              norm_AAt=inst.norm_AAt,
              hooks=(lambda k, st, nxt, res: seen.append((st, res)),))
        unrelaxed = replace(steps, theta=1.0)
        for st, res in seen:
            image = alg.primal_dual_step(st, inst.spec, unrelaxed, AlgorithmId.PD3O)
            assert res == pytest.approx(fixed_point_residual(ctx, st, image), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_residual_stays_finite_when_its_square_overflows(self):
        inst = gen_toy_quadratic(dim=6, seed=2)
        c = 1e200 * np.arange(1.0, 7.0)
        spec = replace(inst.spec, f=quadratic_distance_term(c))
        rec = solve(spec, "pd3o", StepSizes.from_lambda(0.5, 0.5), max_iters=40,
                    residual_tol=1e190, norm_AAt=1.0)
        assert all(math.isfinite(r) for r in rec.residuals())
        assert rec.metadata["stop_reason"] == "converged"
        np.testing.assert_allclose(rec.final_state.x, c, rtol=1e-9)

    def test_forced_run_past_metric_boundary_uses_euclidean_residual(
            self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.5)  # t = 0.5 * ||DD^T|| > 1
        steps_seen = []
        rec = solve(inst.spec, "pd3o", steps, max_iters=30, norm_AAt=inst.norm_AAt,
                    force=True, hooks=(lambda k, st, nxt, res: steps_seen.append((st, nxt)),))
        assert rec.metadata["forced"] is True
        assert rec.metadata["residual_metric"] == "euclidean"
        st, nxt = steps_seen[-1]
        assert rec.metadata["final_residual"] == math.sqrt(
            float((nxt.z - st.z) @ (nxt.z - st.z)) + float((nxt.s - st.s) @ (nxt.s - st.s)))
        valid = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                      max_iters=5, norm_AAt=inst.norm_AAt)
        assert valid.metadata["residual_metric"] == "M"

    @staticmethod
    def _near_boundary(t):
        # a 20x40 fused lasso at gamma = beta with gamma*delta*||AA^T|| = t
        inst = gen_fused_lasso(n=20, p=40, seed=7)
        return inst, StepSizes.from_lambda(inst.beta, t / inst.norm_AAt)

    def test_smooth_lstar_runs_just_below_the_metric_boundary(self):
        inst, steps = self._near_boundary(1.0 - 5e-10)
        spec = replace(inst.spec, lstar=ConjugateSmoothTerm(
            gradient=lambda s: 0.1 * s, is_zero=False,
            value=lambda s: 0.05 * float(s @ s)))
        rec = solve(spec, "pd3o", steps, max_iters=5, norm_AAt=inst.norm_AAt)
        assert rec.metadata["stepsize_valid"] and rec.metadata["residual_metric"] == "M"

    def test_seminorm_warning_only_at_the_metric_boundary(self, caplog):
        inst, steps = self._near_boundary(1.0 - 5e-10)
        with caplog.at_level(logging.WARNING, logger="pdsplit.algorithms"):
            solve(inst.spec, "pd3o", steps, max_iters=3, norm_AAt=inst.norm_AAt)
        assert not any("seminorm" in r.getMessage() for r in caplog.records)
        # gamma = 1, delta = 1/4 and a declared ||AA^T|| of 4 give t = 1 exactly
        with caplog.at_level(logging.WARNING, logger="pdsplit.algorithms"):
            solve(replace(inst.spec, f=zero_smooth()), "chambolle-pock",
                  StepSizes(1.0, 0.25), max_iters=3, norm_AAt=4.0)
        assert any("seminorm" in r.getMessage() for r in caplog.records)

    def test_forced_run_just_past_metric_boundary_uses_euclidean_residual(self):
        inst, steps = self._near_boundary(1.0 + 5e-10)
        rec = solve(inst.spec, "pd3o", steps, max_iters=3, norm_AAt=inst.norm_AAt,
                    force=True)
        assert rec.metadata["forced"] and rec.metadata["residual_metric"] == "euclidean"

    def test_default_norm_is_the_operator_bound(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                    max_iters=3)
        assert rec.metadata["norm_AAt"] == inst.spec.A.norm_AAt_bound() == inst.norm_AAt

    def test_numerical_failure_identifies_substep(self):
        broken = ProxTerm(value=lambda x: 0.0,
                          prox=lambda v, t: np.full_like(v, np.nan))
        spec = ProblemSpec(f=zero_smooth(), g=broken, h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(3))
        with pytest.raises(NumericalFailureError) as excinfo:
            solve(spec, "pd3o", StepSizes(1.0, 0.5), max_iters=5, norm_AAt=1.0)
        assert excinfo.value.iteration == 0
        assert excinfo.value.sub_step is not None

    def test_log_every_keeps_head_and_final(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                    max_iters=350, residual_tol=0.0, norm_AAt=inst.norm_AAt,
                    log_every=100)
        logged = set(rec.iters().tolist())
        assert set(range(11)) <= logged
        assert {0, 100, 200, 300, 349} <= logged

    def test_fixed_point_characterization_after_convergence(self):
        inst = gen_toy_quadratic(dim=8, seed=6)
        steps = StepSizes.from_lambda(1.0, 0.5)
        rec = solve(inst.spec, "pd3o", steps, max_iters=300, residual_tol=1e-12,
                    norm_AAt=1.0)
        final = rec.final_state
        res = fixed_point_residuals(inst.spec, steps, final.z, final.s)
        assert res.primal <= 1e-10
        assert res.dual <= 1e-10

    def test_davis_yin_through_solver(self, rng):
        p = 12
        f = least_squares_term(rng.standard_normal((p, p)) / np.sqrt(p),
                               rng.standard_normal(p))
        spec = ProblemSpec(f=f, g=l1(0.1), h=l1(0.2),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(p))
        gamma = spec.beta
        rec = solve(spec, "davis-yin", StepSizes(gamma, 1.0 / gamma),
                    max_iters=4000, residual_tol=1e-10, norm_AAt=1.0)
        assert rec.metadata["converged"]
        res = fixed_point_residuals(spec, StepSizes(gamma, 1.0 / gamma),
                                    rec.final_state.z, rec.final_state.s)
        assert res.primal <= 1e-8


U = np.finfo(float).eps / 2  # unit roundoff


def dense(op):
    """The matrix of a ``LinearMap``, column by column."""
    return np.column_stack([op.apply(e) for e in np.eye(op.in_dim)])


def coupling_bound(D, xbar, s, terms, gap):
    """Roundoff bound on |row gap - fresh gap| when only the coupling differs.

    A gap row pairs xbar with s* as <xbar, D^T s*>, a fresh Lagrangian as
    <D xbar, s*>.  Both are sum_ij xbar_j D_ij s_i; to first order in U each
    errs by at most (m + p) U |s|^T |D| |xbar| (an m-term sum in each entry of
    D^T s*, then a p-term dot product, or the other way round), so the two
    differ by twice that.  Each Lagrangian then rounds four additions of its
    ``terms``, and each gap one subtraction.
    """
    m, p = D.shape
    coupling = 2 * (m + p) * U * float(np.abs(s) @ np.abs(D) @ np.abs(xbar))
    return coupling + 8 * U * sum(abs(t) for t in terms) + 2 * U * abs(gap)


def gap_by_linearity_bound(A, b, xs, xbar, terms, gap, D, s):
    """Roundoff bound on |gap by linearity - fresh gap| at one row.

    Both gaps share xbar and every term but f(xbar) and the coupling (see
    ``coupling_bound``, for the operator D and s*).  The running path takes
    f from the mean of the residuals r_j = A x_j - b of the k+1 iterates; the
    fresh path from A xbar - b.  To first order in U, entrywise, each of the
    two residuals is within (p + m + 1) U R of A mean(x_j) - b, with m = k+1
    and R = |A| mean(|x_j|) + |b| (p-term products and the subtraction of b
    in each r_j or in A xbar - b; m-1 additions and one division in the mean
    of r_j or of x_j).  So they differ by at most dr = 2 (p + m + 1) U R, and
    the halved squared norms by dr . (|r| + dr/2), plus the n-term rounding
    of both dot products.
    """
    n, p = A.shape
    m = len(xs)
    R = np.abs(A) @ np.mean(np.abs(xs), axis=0) + np.abs(b)
    r = np.abs(A @ xbar - b)
    dr = 2 * (p + m + 1) * U * R
    df = dr @ (r + dr / 2) + n * U * (r + dr) @ (r + dr)
    return df + coupling_bound(D, xbar, s, terms, gap)


def poisoned(fn, first_bad_call: int, value: float):
    """``fn`` whose output gets one ``value`` entry from the given call on."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = np.array(fn(*args), dtype=float)
        if calls[0] >= first_bad_call:
            out[1] = value
        return out

    return wrapped


class TestLoggedRows:
    """Logged rows reuse each iterate's residual and the gap probe's constant terms."""

    def _gap_solve(self, inst, ref, spec=None, hooks=(), algorithm="pd3o", gamma=None,
                   log_every=1):
        steps = StepSizes.from_lambda(gamma or inst.beta, 0.125)
        return solve(spec or inst.spec, algorithm, steps,
                     max_iters=60, residual_tol=0.0, norm_AAt=inst.norm_AAt,
                     reference=(ref.x, ref.s), log_every=log_every, hooks=hooks)

    @staticmethod
    def _fresh_rows(fresh, ref, xs, expected):
        """A hook that recomputes each iteration's objective and gap on ``fresh``."""
        sums = {}

        def recompute(k, state, nxt, res):
            xs.append(state.x.copy())
            sums["x"] = state.x.copy() if k == 0 else sums["x"] + state.x
            sums["s"] = nxt.s.copy() if k == 0 else sums["s"] + nxt.s
            xbar = sums["x"] / (k + 1)
            gap = (lagrangian(fresh, xbar, ref.s)
                   - lagrangian(fresh, ref.x, sums["s"] / (k + 1)))
            terms = (fresh.f.value(xbar), fresh.g.value(xbar),
                     float(fresh.A.apply(xbar) @ ref.s), fresh.h.conjugate_value(ref.s))
            expected.append((evaluate_objective(fresh, state.x), gap, xbar, terms))

        return recompute

    def test_objective_and_gap_equal_a_fresh_evaluation(self, small_fused_lasso,
                                                        small_reference):
        inst, ref = small_fused_lasso, small_reference
        # a term of its own, whose value never sees a gradient point
        fresh = replace(inst.spec, f=least_squares_term(inst.A, inst.b))
        D = dense(inst.spec.A)
        # AFBA sums the residual each of its rows computes, at log_every = 1
        for algorithm in ("pd3o", "afba"):
            xs, expected = [], []
            rec = self._gap_solve(inst, ref, algorithm=algorithm,
                                  hooks=(self._fresh_rows(fresh, ref, xs, expected),))
            assert len(rec.rows) == len(expected) == 60
            for row, (obj, gap, xbar, terms) in zip(rec.rows, expected):
                assert row.objective == obj, (algorithm, row.iter)
                bound = gap_by_linearity_bound(inst.A, inst.b, xs[:row.iter + 1], xbar,
                                               terms, gap, D, ref.s)
                assert abs(row.gap - gap) <= bound, (algorithm, row.iter)

    @pytest.mark.parametrize("case", ["afba", "no-residual-oracle"])
    def test_gap_without_the_running_residual_is_a_fresh_evaluation(
            self, small_fused_lasso, small_reference, case):
        inst, ref = small_fused_lasso, small_reference
        if case == "afba":  # thinned rows: no residual sum
            spec, algorithm, gamma, log_every = inst.spec, "afba", inst.beta, 3
            fresh = replace(inst.spec, f=least_squares_term(inst.A, inst.b))
        else:
            c = np.linspace(-60.0, 60.0, inst.spec.x_dim)
            spec = fresh = replace(inst.spec, f=quadratic_distance_term(c))
            algorithm, gamma, log_every = "pd3o", 0.5, 1  # gamma <= beta = 1
        xs, expected = [], []
        rec = self._gap_solve(inst, ref, spec=spec, algorithm=algorithm, gamma=gamma,
                              log_every=log_every,
                              hooks=(self._fresh_rows(fresh, ref, xs, expected),))
        assert len(expected) == 60
        assert len(rec.rows) == (60 if log_every == 1 else 28)
        # the row's gap differs from the fresh one only in the coupling's rounding
        D = dense(inst.spec.A)
        for row in rec.rows:
            obj, gap, xbar, terms = expected[row.iter]
            assert row.objective == obj, row.iter
            assert abs(row.gap - gap) <= coupling_bound(D, xbar, ref.s, terms, gap), row.iter

    def test_a_probe_lagrangian_is_a_fresh_one_to_roundoff(self, small_fused_lasso,
                                                           small_reference, rng):
        inst, ref = small_fused_lasso, small_reference
        spec, D = inst.spec, dense(inst.spec.A)
        probe = LagrangianProbe(ref.x, ref.s)
        for _ in range(20):
            # another x pairs with the probe's s* as <x, A^T s*>
            x = ref.x + rng.standard_normal(spec.x_dim)
            terms = (spec.f.value(x), spec.g.value(x), float(spec.A.apply(x) @ ref.s),
                     spec.h.conjugate_value(ref.s))
            kept = lagrangian(spec, x, ref.s, probe)
            assert abs(kept - lagrangian(spec, x, ref.s)) <= coupling_bound(
                D, x, ref.s, terms, 0.0)
        np.testing.assert_array_equal(probe.terms["ats"], spec.A.adjoint_apply(ref.s))
        # the probe's x, with s* or another s, pairs as <A x*, s>, as a fresh one does
        s = rng.uniform(-inst.mu2, inst.mu2, spec.s_dim)
        for _ in range(2):  # evaluated, then kept
            assert lagrangian(spec, ref.x, s, probe) == lagrangian(spec, ref.x, s)
            assert lagrangian(spec, ref.x, ref.s, probe) == lagrangian(spec, ref.x, ref.s)

    @pytest.mark.parametrize("algorithm, theta", [
        ("pd3o", 1.0), ("pdfp", 1.0), ("condat-vu", 1.0), ("afba", 1.0), ("pd3o", 1.5)])
    @pytest.mark.parametrize("log_every", [1, 3])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_objective_column_is_a_fresh_evaluation(self, small_fused_lasso,
                                                    small_reference, algorithm, theta,
                                                    log_every, with_reference):
        inst, ref = small_fused_lasso, small_reference
        fresh = replace(inst.spec, f=least_squares_term(inst.A, inst.b))
        # a relaxed run needs theta < 2 - gamma/(2 beta)
        steps = StepSizes.from_lambda(inst.beta if theta == 1.0 else 0.5 * inst.beta,
                                      0.125, theta)
        objectives = []
        rec = solve(inst.spec, algorithm, steps, max_iters=40, norm_AAt=inst.norm_AAt,
                    reference=(ref.x, ref.s) if with_reference else None,
                    log_every=log_every,
                    hooks=(lambda k, st, nxt, res:
                           objectives.append(evaluate_objective(fresh, st.x)),))
        assert len(rec.rows) == (40 if log_every == 1 else 21)
        for row in rec.rows:
            assert row.objective == objectives[row.iter], row.iter
        assert rec.metadata["final_objective"] == evaluate_objective(
            fresh, rec.final_state.x)

    def test_gap_rows_call_f_value_only_for_the_probe(self, small_fused_lasso,
                                                      small_reference):
        inst, ref = small_fused_lasso, small_reference
        calls = []
        value = inst.spec.f.value
        f = replace(inst.spec.f, value=lambda x: calls.append(1) or value(x))
        rec = self._gap_solve(inst, ref, spec=replace(inst.spec, f=f))
        assert all(row.gap is not None for row in rec.rows)
        # the objectives take the residual each step left; only f(x*) in the
        # probe is evaluated through the value oracle
        assert len(calls) == 1

    @pytest.mark.parametrize("stop", ["max_iters", "converged"])
    def test_a_thinned_solve_fetches_f_residual_only_for_its_rows(self, small_fused_lasso,
                                                                  stop):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        residuals = []
        solve(inst.spec, "pd3o", steps, max_iters=60, norm_AAt=inst.norm_AAt,
              hooks=(lambda k, st, nxt, res: residuals.append(res),))
        # a residual stop at iteration 40 or before it, past the rows 0-10 kept
        tol = residuals[40] if stop == "converged" else 0.0
        assert tol < residuals[10]
        f, newest, fetches, xs = inst.spec.f, [None], [], []

        def gradient(x):
            newest[0] = x.copy()
            return f.gradient(x)

        def residual(x):  # True: x is the newest point of f's memo
            fetches.append(np.array_equal(x, newest[0]))
            return f.residual(x)

        spec = replace(inst.spec, f=replace(f, gradient=gradient, residual=residual))
        rec = solve(spec, "pd3o", steps, max_iters=60, residual_tol=tol,
                    norm_AAt=inst.norm_AAt, log_every=0,
                    hooks=(lambda k, st, nxt, res: xs.append(st.x),))
        assert rec.metadata["stop_reason"] == stop
        assert [row.iter for row in rec.rows] == [*range(11), len(xs) - 1]
        # one fetch per row and one for the final objective; the row of a residual
        # stop is not foreseen, so its residual is evaluated afresh
        assert fetches == [True] * 11 + [stop == "max_iters", True]
        fresh = replace(inst.spec, f=least_squares_term(inst.A, inst.b))
        for row in rec.rows:
            assert row.objective == evaluate_objective(fresh, xs[row.iter]), row.iter
        assert rec.metadata["final_objective"] == evaluate_objective(fresh,
                                                                     rec.final_state.x)

    def test_diagnostics_apply_A_once_per_gap_row(self, small_fused_lasso,
                                                  small_reference, counting_spec):
        inst, ref = small_fused_lasso, small_reference
        spec, counts = counting_spec(inst.spec)
        rec = self._gap_solve(inst, ref, spec=spec)
        assert all(row.gap is not None for row in rec.rows)
        declared = rec.metadata["oracle_calls"]
        # per row: h(A x) in the objective; L(xbar, s*) reads <xbar, A^T s*>.  Per
        # solve: A x* in the first L(x*, sbar) and h(A x) in the final objective
        assert counts["a_apply"] - declared["a_apply"] == len(rec.rows) + 2
        # per iteration: the residual's m_norm_sq.  Per solve: A^T s* in z* and the
        # m_norm_sq of gap_probe_dist_sq, and A^T s* kept by the probe for L(xbar, s*)
        assert (counts["a_adjoint"] - declared["a_adjoint"]
                == rec.metadata["iterations"] + 3)


class TestFiniteScreen:
    """The step's finiteness checks: a dot-product screen, then the exact scan."""

    # the residual and objective of such iterates overflow too, and say so
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_iterate_whose_square_norm_overflows_runs(self):
        inst = gen_toy_quadratic(dim=6, seed=2)
        c = 1e200 * np.arange(1.0, 7.0)
        assert not math.isfinite(np.vdot(c, c))
        spec = replace(inst.spec, f=quadratic_distance_term(c))
        rec = solve(spec, "pd3o", StepSizes.from_lambda(1.0, 0.5), max_iters=5,
                    norm_AAt=1.0, log_every=0)
        # x reaches c in the first pass, so the second screens c-sized vectors
        assert rec.metadata["iterations"] >= 2
        np.testing.assert_allclose(rec.final_state.x, c, rtol=1e-12)

    def test_a_diverging_distance_to_the_reference_does_not_warn(self):
        inst = gen_fused_lasso(n=20, p=40, seed=7)
        reference = (np.zeros(inst.spec.x_dim), np.zeros(inst.spec.s_dim))
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(NumericalFailureError):
            warnings.simplefilter("always")
            solve(inst.spec, "pdfp", StepSizes.from_lambda(5.0 * inst.beta, 0.125),
                  max_iters=2000, norm_AAt=inst.norm_AAt, reference=reference, force=True)
        # the gradient's own matvec overflows first; dist_to_ref squares without a warning
        assert caught
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
                and Path(w.filename).name == "algorithms.py"] == []

    # a pass that goes non-finite runs to its end before it is named, so the rest of
    # the pass may warn of an invalid value
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("oracle, first_bad_call, sub_step", [
        ("h", 2, "s-update"),      # h-prox runs once per pass
        ("g", 3, "x-update"),      # g-prox runs once at start and once per pass
        ("f", 3, "xbar-update"),   # so does the gradient; pd3o's xbar+ uses it
    ])
    def test_bad_entry_after_the_first_iteration_names_its_substep(
            self, rng, oracle, first_bad_call, sub_step, value):
        spec, norm = random_instance(rng)
        if oracle == "f":
            spec = replace(spec, f=replace(spec.f, gradient=poisoned(
                spec.f.gradient, first_bad_call, value)))
        else:
            term = getattr(spec, oracle)
            spec = replace(spec, **{oracle: replace(term, prox=poisoned(
                term.prox, first_bad_call, value))})
        with pytest.raises(NumericalFailureError) as excinfo:
            solve(spec, "pd3o", StepSizes.from_lambda(spec.beta, 0.5 / norm),
                  max_iters=10, norm_AAt=norm)
        assert excinfo.value.iteration == 1
        assert excinfo.value.sub_step == sub_step


# a pass that goes non-finite runs to its end before it is named, so the rest of
# the pass may warn of an invalid value
@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestOneScreenPerPass:
    """``solve`` runs the bare passes and screens each once; its failures carry the
    names of ``primal_dual_step``'s checks, and their iterations."""

    @staticmethod
    def _poison(spec, oracle, first_bad_call, value):
        if oracle == "h-closed-form":  # the h*-prox the step calls for an l1 h
            h = spec.h
            return replace(spec, h=replace(h, prox=with_conjugate(
                h.prox, poisoned(h.conj_prox, first_bad_call, value))))
        if oracle == "f":
            return replace(spec, f=replace(spec.f, gradient=poisoned(
                spec.f.gradient, first_bad_call, value)))
        term = getattr(spec, oracle)
        return replace(spec, **{oracle: replace(term, prox=poisoned(
            term.prox, first_bad_call, value))})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("algorithm, theta, oracle, first_bad_call, sub_step, iteration", [
        ("pd3o", 1.0, "h-closed-form", 2, "s-update", 1),
        ("pd3o", 1.4, "h-closed-form", 2, "s-update", 1),  # s+ is relaxed before the screen
        ("pd3o", 1.4, "g", 3, "x-update", 1),
        ("pd3o-reformulated", 1.0, "f", 3, "xbar-update", 1),
        ("condat-vu", 1.0, "h-closed-form", 2, "s-update", 1),
        ("condat-vu", 1.0, "g", 3, "x-update", 1),
        # the reflection does not read grad f(x+): the next pass's x+ shows it
        ("condat-vu", 1.0, "f", 3, "x-update", 2),
        # pdfp's start calls the g-prox twice, and so does each pass
        ("pdfp", 1.0, "g", 3, "x-update", 0),
        ("pdfp", 1.0, "g", 4, "xbar-update", 0),
        ("pdfp", 1.0, "f", 3, "xbar-update", 1),
        ("afba", 1.0, "h-closed-form", 2, "s-update", 1),
        ("afba", 1.0, "f", 3, "xbar-update", 1),
        ("afba", 1.0, "g", 4, "xbar-update", 1),  # the start calls the g-prox twice
    ])
    def test_a_bad_entry_is_named_by_its_substep_and_iteration(
            self, rng, algorithm, theta, oracle, first_bad_call, sub_step, iteration, value):
        spec, norm = random_instance(rng)
        assert spec.h.conj_prox is not None
        spec = self._poison(spec, oracle, first_bad_call, value)
        steps = StepSizes.from_lambda(0.5 * spec.beta, 0.5 / norm, theta=theta)
        with pytest.raises(NumericalFailureError) as excinfo:
            solve(spec, algorithm, steps, max_iters=10, norm_AAt=norm)
        assert (excinfo.value.sub_step, excinfo.value.iteration) == (sub_step, iteration)
        # the checked step runs the same checks
        spec, _ = random_instance(np.random.default_rng(5))
        spec = self._poison(spec, oracle, first_bad_call, value)
        state = initial_state(spec, steps, algorithm)
        with pytest.raises(NumericalFailureError) as excinfo:
            for _ in range(3):
                state = alg.primal_dual_step(state, spec, steps, algorithm)
        assert excinfo.value.sub_step == sub_step and excinfo.value.iteration is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_pdfp_names_a_bad_x_that_its_g_prox_maps_back(self, rng, value):
        # pdfp's xbar+ is a g-prox of x+; a projection built on fmin/fmax maps a NaN
        # or inf into its box, so xbar+ alone would not show a bad x+
        spec, norm = random_instance(rng)
        calls = [0]

        def faulty_clip(v, t):  # the third call is pass 0's x+
            calls[0] += 1
            out = np.fmin(np.fmax(v, -1.0), 1.0)
            if calls[0] == 3:
                out[1] = value
            return out

        spec = replace(spec, g=replace(spec.g, prox=faulty_clip))
        steps = StepSizes.from_lambda(0.5 * spec.beta, 0.5 / norm)
        with pytest.raises(NumericalFailureError) as excinfo:
            solve(spec, "pdfp", steps, max_iters=10, norm_AAt=norm)
        assert (excinfo.value.sub_step, excinfo.value.iteration) == ("x-update", 0)
        state = initial_state(spec, steps, "pdfp")
        calls[0] = 2  # the next call is the pass's x+ again
        nxt = alg.STEP_FUNCTIONS[AlgorithmId.PDFP](state, spec, steps)
        assert not np.all(np.isfinite(nxt.x)) and np.all(np.isfinite(nxt.xbar))
        calls[0] = 2  # the checked step scans x+ as well
        with pytest.raises(NumericalFailureError, match="x-update"):
            alg.primal_dual_step(state, spec, steps, "pdfp")

    def test_a_non_finite_pass_is_named_before_the_metric_fails(self, rng, monkeypatch):
        # a metric that overflows on the pass that went non-finite reports the pass
        spec, norm = random_instance(rng)
        spec = self._poison(spec, "g", 3, np.nan)
        residual = alg.fixed_point_residual

        def overflowing(ctx, state, nxt):
            if not np.all(np.isfinite(nxt.x)):
                raise GeometryViolationError("<s, M s> < 0")
            return residual(ctx, state, nxt)

        monkeypatch.setattr(alg, "fixed_point_residual", overflowing)
        with pytest.raises(NumericalFailureError) as excinfo:
            solve(spec, "pd3o", StepSizes.from_lambda(spec.beta, 0.5 / norm),
                  max_iters=10, norm_AAt=norm)
        assert (excinfo.value.sub_step, excinfo.value.iteration) == ("x-update", 1)

    def test_a_direct_step_call_checks_the_state(self, small_fused_lasso):
        # (every premise: TestSchemeTable::test_each_premise_breaks_the_step_by_name)
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.1)
        for algorithm in ("pd3o", "condat-vu", "afba"):
            start = initial_state(inst.spec, steps, algorithm)
            with pytest.raises(AlgorithmMisuseError, match="xbar"):
                alg.primal_dual_step(replace(start, xbar=None), inst.spec, steps, algorithm)
        # and its premises: chambolle-pock with f != 0
        start = initial_state(inst.spec, steps, "chambolle-pock")
        with pytest.raises(AlgorithmMisuseError, match="requires f = 0"):
            alg.primal_dual_step(start, inst.spec, steps, AlgorithmId.CHAMBOLLE_POCK)


class TestStopReason:
    def test_converged(self):
        inst = gen_toy_quadratic(dim=12, seed=3)
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(1.0, 0.5),
                    max_iters=200, residual_tol=1e-10, norm_AAt=1.0)
        assert rec.metadata["stop_reason"] == "converged"
        assert rec.metadata["converged"] is True

    def test_max_iters(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                    max_iters=30, residual_tol=0.0, norm_AAt=inst.norm_AAt)
        assert rec.metadata["stop_reason"] == "max_iters"
        assert rec.metadata["converged"] is False
        assert rec.metadata["iterations"] == 30


class TestInitialState:
    def test_papc_primal_equals_auxiliary(self, rng):
        spec, _ = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(spec.beta, 0.1)
        z0 = rng.standard_normal(30)
        state = initial_state(spec, steps, "papc", z0)
        np.testing.assert_array_equal(state.x, z0)

    def test_default_is_zero_pair(self, small_fused_lasso):
        steps = StepSizes.from_lambda(small_fused_lasso.beta, 0.125)
        state = initial_state(small_fused_lasso.spec, steps, "pd3o")
        np.testing.assert_array_equal(state.z, np.zeros(120))
        np.testing.assert_array_equal(state.s, np.zeros(119))

    def test_consistent_xbar_matches_plain_trajectory(self, rng):
        # already exercised via reduction tests; here check the formula itself
        spec, norm = random_instance(rng)
        steps = StepSizes.from_lambda(spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        state = initial_state(spec, steps, "pd3o-reformulated", z0, s0)
        expected = (2.0 * state.x - z0 - steps.gamma * state.grad_f
                    - steps.gamma * spec.A.adjoint_apply(s0))
        np.testing.assert_allclose(state.xbar, expected, atol=1e-15)


class TestStateValidation:
    def test_fresh_state_checks_dimensions(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        from pdsplit.exceptions import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            initial_state(inst.spec, steps, "pd3o", np.zeros(7), np.zeros(119))
        with pytest.raises(ValueError):
            initial_state(inst.spec, steps, "pd3o", np.full(120, np.nan), np.zeros(119))
