import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import pdsplit.algorithms as alg
from pdsplit.algorithms import (
    AlgorithmId,
    SolverState,
    StepSizes,
    fixed_point_residuals,
    initial_state,
    instrument,
    solve,
    validate_stepsizes,
)
from pdsplit.core import (
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
    NumericalFailureError,
    StepSizeError,
)
from pdsplit.linops import DenseMatrixOp, IdentityOp, LinearMap, ZeroOp, estimate_norm_AAt
from pdsplit.metrics import lagrangian
from pdsplit.problems import (
    gen_toy_quadratic,
    least_squares_term,
    quadratic_distance_term,
)
from pdsplit.prox import l1, squared_l2, zero_prox


def random_instance(rng, n=20, p=30, with_f=True, with_g=True):
    """Small well-scaled composite instance for trajectory comparisons."""
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    f = (least_squares_term(rng.standard_normal((n, p)) / np.sqrt(n),
                            rng.standard_normal(n))
         if with_f else zero_smooth())
    g = l1(0.5) if with_g else zero_prox()
    spec = ProblemSpec(f=f, g=g, h=l1(0.8), lstar=zero_conjugate_smooth(),
                       A=DenseMatrixOp(B))
    norm = estimate_norm_AAt(DenseMatrixOp(B), tol=1e-12)
    return spec, norm


def run_steps(step_fn, state, spec, steps, k):
    out = [state]
    for _ in range(k):
        out.append(step_fn(out[-1], spec, steps))
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


class TestPd3oStep:
    def test_fixed_point_of_trivial_quadratic(self):
        # optimal x* = c gives the fixed pair (z*, s*) = (c, 0)
        inst = gen_toy_quadratic(dim=6, seed=5)
        steps = StepSizes.from_lambda(1.0, 0.5)
        state = SolverState.fresh(inst.spec, steps, inst.c, np.zeros(6))
        nxt = alg.pd3o_step(state, inst.spec, steps)
        assert np.abs(nxt.z - state.z).max() <= 1e-12
        assert np.abs(nxt.s - state.s).max() <= 1e-12

    def test_one_dimensional_two_step_solve(self):
        # f = x^2/2, g = h = 0, A the 1x1 zero map, gamma = 1, z0 = 2:
        # x = 2, s+ = 0, z+ = 0, and the next prox lands on the minimizer 0
        f = SmoothTerm(value=lambda x: 0.5 * float(x @ x), gradient=lambda x: x.copy(),
                       beta=1.0)
        spec = ProblemSpec(f=f, g=zero_prox(), h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=ZeroOp(1, 1))
        steps = StepSizes(1.0, 1.0)
        state = SolverState.fresh(spec, steps, np.array([2.0]), np.zeros(1))
        assert state.x[0] == 2.0 and state.grad_f[0] == 2.0
        nxt = alg.pd3o_step(state, spec, steps)
        assert nxt.s[0] == 0.0
        assert nxt.z[0] == 0.0
        assert nxt.x[0] == 0.0

    def test_smooth_lstar_term(self):
        # with l*(s) = c*||s||^2/2 the third term becomes the infimal
        # convolution of h = ||.||^2/2 with a quadratic; for f = ||x - d||^2/2
        # and A = I the minimizer is d*(1+c)/(2+c)
        dim, c = 6, 0.7
        d = np.arange(1.0, dim + 1)
        lstar = ConjugateSmoothTerm(gradient=lambda s: c * s, beta_l=1.0,
                                    is_zero=False, value=lambda s: 0.5 * c * float(s @ s))
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
        pd = run_steps(alg.pd3o_step, initial_state(spec, steps, "pd3o", z0, s0),
                       spec, steps, 100)
        cp = run_steps(alg.chambolle_pock_step,
                       initial_state(spec, steps, "chambolle-pock", z0, s0),
                       spec, steps, 100)
        assert max_deviation(pd, cp) <= 1e-10

    def test_papc_when_g_zero(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        pd = run_steps(alg.pd3o_step, initial_state(spec, steps, "pd3o", z0, s0),
                       spec, steps, 100)
        papc = run_steps(alg.papc_step, initial_state(spec, steps, "papc", z0, s0),
                         spec, steps, 100)
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
        pd = run_steps(alg.pd3o_step, initial_state(spec, steps, "pd3o", z0, s0),
                       spec, steps, 100)
        dy = run_steps(alg.davis_yin_step,
                       initial_state(spec, steps, "davis-yin", z0, s0),
                       spec, steps, 100)
        assert max_deviation(pd, dy, attrs=("z",)) <= 1e-10

    def test_pdfp_reduces_to_papc(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        papc = run_steps(alg.papc_step, initial_state(spec, steps, "papc", z0, s0),
                         spec, steps, 100)
        pdfp = run_steps(alg.pdfp_step, initial_state(spec, steps, "pdfp", z0, s0),
                         spec, steps, 100)
        assert max_deviation(papc, pdfp) <= 1e-10

    def test_afba_reduces_to_papc(self, rng):
        spec, norm = random_instance(rng, with_g=False)
        steps = StepSizes.from_lambda(1.2 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        papc = run_steps(alg.papc_step, initial_state(spec, steps, "papc", z0, s0),
                         spec, steps, 100)
        afba = run_steps(alg.afba_step, initial_state(spec, steps, "afba", z0, s0),
                         spec, steps, 100)
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
        cp = run_steps(alg.chambolle_pock_step,
                       initial_state(spec, steps, "chambolle-pock", z0, s0),
                       spec, steps, 100)
        cv = run_steps(alg.condat_vu_step,
                       initial_state(spec, steps, "condat-vu", z0, s0),
                       spec, steps, 100)
        assert max_deviation(cp, cv) <= 1e-10


class TestReformulated:
    def test_matches_plain_form(self, rng):
        spec, norm = random_instance(rng)
        steps = StepSizes.from_lambda(1.3 * spec.beta, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        plain = run_steps(alg.pd3o_step, initial_state(spec, steps, "pd3o", z0, s0),
                          spec, steps, 100)
        ref = run_steps(alg.pd3o_step_reformulated,
                        initial_state(spec, steps, "pd3o-reformulated", z0, s0),
                        spec, steps, 100)
        assert max_deviation(plain, ref) <= 1e-10

    def test_extrapolation_without_f(self, rng):
        spec, norm = random_instance(rng, with_f=False)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        state = initial_state(spec, steps, "pd3o-reformulated",
                              rng.standard_normal(30), rng.standard_normal(20))
        nxt = alg.pd3o_step_reformulated(state, spec, steps)
        np.testing.assert_array_equal(nxt.xbar, 2.0 * nxt.x - state.x)

    def test_fixed_point_preserved(self):
        inst = gen_toy_quadratic(dim=4, seed=9)
        steps = StepSizes.from_lambda(1.0, 0.5)
        z_star, s_star = inst.c, np.zeros(4)
        state = initial_state(inst.spec, steps, "pd3o-reformulated", z_star, s_star)
        nxt = alg.pd3o_step_reformulated(state, inst.spec, steps)
        assert np.abs(nxt.x - state.x).max() <= 1e-12
        assert np.abs(nxt.s - state.s).max() <= 1e-12


class TestChambollePock:
    def test_requires_zero_f(self, rng):
        spec, norm = random_instance(rng, with_f=True)
        steps = StepSizes.from_lambda(0.9, 0.5 / norm)
        state = initial_state(spec, steps, "chambolle-pock")
        with pytest.raises(AlgorithmMisuseError):
            alg.chambolle_pock_step(state, spec, steps)

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
        nxt = alg.chambolle_pock_step(state, spec, steps)
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
        nxt = alg.chambolle_pock_step(state, spec, steps)
        np.testing.assert_array_equal(nxt.s, np.zeros(4))
        np.testing.assert_array_equal(nxt.x, x)


class TestPapc:
    def test_requires_zero_g(self, rng):
        spec, norm = random_instance(rng, with_g=True)
        steps = StepSizes.from_lambda(spec.beta, 0.5 / norm)
        state = initial_state(spec, steps, "papc")
        with pytest.raises(AlgorithmMisuseError):
            alg.papc_step(state, spec, steps)

    def test_gradient_descent_when_h_zero(self, rng):
        c = rng.standard_normal(5)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=zero_prox(),
                           h=zero_prox(), lstar=zero_conjugate_smooth(),
                           A=IdentityOp(5))
        steps = StepSizes(0.8, 0.9)
        state = initial_state(spec, steps, "papc", rng.standard_normal(5))
        nxt = alg.papc_step(state, spec, steps)
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
        norm = estimate_norm_AAt(DenseMatrixOp(A), tol=1e-12)
        rec = solve(spec, "papc", StepSizes.from_lambda(1.0, 0.5 / norm),
                    max_iters=5000, residual_tol=1e-13, norm_AAt=norm)
        assert np.abs(rec.final_state.x - x_star).max() <= 1e-6


class TestDavisYin:
    def test_requires_identity_and_unit_product(self, rng):
        spec, norm = random_instance(rng)
        steps = StepSizes.from_lambda(spec.beta, 0.5 / norm)
        state = initial_state(spec, steps, "pd3o")
        with pytest.raises(AlgorithmMisuseError):
            alg.davis_yin_step(state, spec, steps)

        inst = gen_toy_quadratic(dim=4, seed=0)
        bad = StepSizes(0.5, 1.0)
        with pytest.raises(AlgorithmMisuseError):
            alg.davis_yin_step(initial_state(inst.spec, bad, "davis-yin"),
                               inst.spec, bad)

    def test_forward_backward_when_h_zero(self, rng):
        c = rng.standard_normal(5)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.2), h=zero_prox(),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(5))
        steps = StepSizes(0.9, 1.0 / 0.9)
        state = initial_state(spec, steps, "davis-yin", rng.standard_normal(5))
        nxt = alg.davis_yin_step(state, spec, steps)
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
        nxt = alg.davis_yin_step(state, spec, steps)
        w = 2 * state.x - state.z - gamma * state.grad_f
        expected = (1.0 / gamma) * (w - spec.h.prox(w, gamma))
        np.testing.assert_allclose(nxt.s, expected, atol=1e-14)

    def test_douglas_rachford_when_f_zero(self, rng):
        spec = ProblemSpec(f=zero_smooth(), g=l1(0.3), h=l1(0.5),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(6))
        steps = StepSizes(0.7, 1.0 / 0.7)
        z = rng.standard_normal(6)
        state = SolverState.fresh(spec, steps, z, np.zeros(6))
        nxt = alg.davis_yin_step(state, spec, steps)
        x = spec.g.prox(z, 0.7)
        expected = z + spec.h.prox(2 * x - z, 0.7) - x
        np.testing.assert_allclose(nxt.z, expected, atol=1e-14)


class TestAfba:
    def test_zero_operator_is_proximal_gradient(self, rng):
        c = rng.standard_normal(6)
        spec = ProblemSpec(f=quadratic_distance_term(c), g=l1(0.4), h=l1(1.0),
                           lstar=zero_conjugate_smooth(), A=ZeroOp(6, 3))
        steps = StepSizes(0.9, 0.5)
        state = initial_state(spec, steps, "afba")
        xs = [state.x.copy()]
        for _ in range(20):
            state = alg.afba_step(state, spec, steps)
            xs.append(state.x.copy())
            np.testing.assert_array_equal(state.s, np.zeros(3))
        # reproduce with a plain proximal-gradient recursion from the same start
        x = xs[0]
        for expected in xs[1:]:
            x = spec.g.prox(x - 0.9 * spec.f.gradient(x), 0.9)
            np.testing.assert_allclose(x, expected, atol=1e-14)


class TestCondatVu:
    def test_matches_reformulated_for_affine_f(self, rng):
        # constant gradients make the extrapolation corrections cancel
        a = rng.standard_normal(30)
        f = SmoothTerm(value=lambda x: float(a @ x), gradient=lambda x: a.copy(),
                       beta=math.inf)
        B = rng.standard_normal((20, 30)) / 5.0
        spec = ProblemSpec(f=f, g=l1(0.5), h=l1(0.8),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
        norm = estimate_norm_AAt(DenseMatrixOp(B), tol=1e-12)
        steps = StepSizes.from_lambda(0.8, 0.5 / norm)
        z0, s0 = rng.standard_normal(30), rng.standard_normal(20)
        cv = run_steps(alg.condat_vu_step,
                       initial_state(spec, steps, "condat-vu", z0, s0),
                       spec, steps, 50)
        ref = run_steps(alg.pd3o_step_reformulated,
                        initial_state(spec, steps, "pd3o-reformulated", z0, s0),
                        spec, steps, 50)
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

    def test_oracle_counts_per_iteration(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        # (g-prox, h-prox, gradient, A^T) calls per iteration
        expected = {"pd3o": (1, 1, 1, 1), "pd3o-reformulated": (1, 1, 1, 1),
                    "condat-vu": (1, 1, 1, 1), "afba": (1, 1, 1, 2),
                    "pdfp": (2, 1, 1, 1)}
        for algorithm, (gp, hp, fg, at) in expected.items():
            ispec, counters = instrument(inst.spec)
            state = initial_state(ispec, steps, algorithm)
            before = counters.as_dict()
            n = 40
            for _ in range(n):
                state = alg.STEP_FUNCTIONS[AlgorithmId(algorithm)](state, ispec, steps)
            after = counters.as_dict()
            assert after["g_prox"] - before["g_prox"] == gp * n, algorithm
            assert after["h_prox"] - before["h_prox"] == hp * n, algorithm
            assert after["f_grad"] - before["f_grad"] == fg * n, algorithm
            assert after["a_adjoint"] - before["a_adjoint"] == at * n, algorithm

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


class CountingMap(LinearMap):
    """Counts ``apply`` calls on an inner operator."""

    def __init__(self, inner):
        super().__init__(inner.in_dim, inner.out_dim)
        self.inner, self.applies = inner, 0

    def _apply(self, x):
        self.applies += 1
        return self.inner.apply(x)

    def _adjoint(self, s):
        return self.inner.adjoint_apply(s)


class TestLoggedRows:
    """Logged rows reuse the gradient's residual and the gap probe's constant terms."""

    def _gap_solve(self, inst, ref, spec=None, hooks=()):
        return solve(spec or inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                     max_iters=60, residual_tol=0.0, norm_AAt=inst.norm_AAt,
                     reference=(ref.x, ref.s), log_every=1, hooks=hooks)

    def test_objective_and_gap_equal_a_fresh_evaluation(self, small_fused_lasso,
                                                        small_reference):
        inst, ref = small_fused_lasso, small_reference
        # a term of its own, whose value never sees a gradient point
        fresh = replace(inst.spec, f=least_squares_term(inst.A, inst.b, beta=inst.beta))
        sums, expected = {}, []

        def recompute(k, state, nxt, res):
            sums["x"] = state.x.copy() if k == 0 else sums["x"] + state.x
            sums["s"] = nxt.s.copy() if k == 0 else sums["s"] + nxt.s
            gap = (lagrangian(fresh, sums["x"] / (k + 1), ref.s)
                   - lagrangian(fresh, ref.x, sums["s"] / (k + 1)))
            expected.append((evaluate_objective(fresh, state.x), gap))

        rec = self._gap_solve(inst, ref, hooks=(recompute,))
        assert len(rec.rows) == len(expected) == 60
        for row, (obj, gap) in zip(rec.rows, expected):
            assert row.objective == obj, row.iter
            assert row.gap == gap, row.iter

    def test_diagnostics_apply_A_twice_per_gap_row(self, small_fused_lasso,
                                                   small_reference):
        inst, ref = small_fused_lasso, small_reference
        A = CountingMap(inst.spec.A)
        rec = self._gap_solve(inst, ref, spec=replace(inst.spec, A=A))
        assert all(row.gap is not None for row in rec.rows)
        diagnostics = A.applies - rec.metadata["oracle_calls"]["a_apply"]
        # per row: h(A x) in the objective and A xbar in L(xbar, s*); per solve:
        # A x* in the first L(x*, sbar) and h(A x) in the final objective
        assert diagnostics == 2 * len(rec.rows) + 2


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

    def test_objective_tol(self, small_fused_lasso):
        inst = small_fused_lasso
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(inst.beta, 0.125),
                    max_iters=5000, residual_tol=0.0, objective_tol=1e-10,
                    norm_AAt=inst.norm_AAt)
        assert rec.metadata["stop_reason"] == "objective_tol"
        assert rec.metadata["converged"] is False
        assert rec.metadata["iterations"] < 5000


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


class TestSecondaryStopping:
    def test_objective_tolerance_stops_early(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        rec = solve(inst.spec, "pd3o", steps, max_iters=5000, residual_tol=0.0,
                    objective_tol=1e-10, norm_AAt=inst.norm_AAt)
        assert rec.metadata["iterations"] < 5000


class TestStateValidation:
    def test_fresh_state_checks_dimensions(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        from pdsplit.exceptions import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            SolverState.fresh(inst.spec, steps, np.zeros(7), np.zeros(119))
        with pytest.raises(ValueError):
            SolverState.fresh(inst.spec, steps, np.full(120, np.nan), np.zeros(119))
