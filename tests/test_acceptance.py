"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds at the stated
tolerance; run with ``pytest -v -s tests/test_acceptance.py`` to see them.
"""

import math
import time

import numpy as np
import pytest

import pdsplit.algorithms as alg
from oracle_checks import CATALOG, prox_optimality_residual
from pdsplit.algorithms import (
    AlgorithmId,
    StepSizes,
    averagedness_inequality_check,
    fixed_point_from_primal_dual,
    initial_state,
    solve,
    validate_stepsizes,
)
from pdsplit.core import (
    ProblemSpec,
    zero_conjugate_smooth,
    zero_smooth,
)
from pdsplit.linops import DenseMatrixOp, DifferenceOp, IdentityOp
from pdsplit.metrics import (
    MNormContext,
    combined_norm_sq,
    linear_rate_rho,
    m_norm_sq,
)
from pdsplit.problems import least_squares_term, quadratic_distance_term
from pdsplit.prox import l1, prox_conjugate, zero_prox


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


# --- criterion 1: reduction equivalences ---------------------------------------


def test_criterion_1_reduction_equivalence():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n, p = 20, 30
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    norm_B = DenseMatrixOp(B).norm_AAt_bound()
    z0, s0 = rng.standard_normal(p), rng.standard_normal(n)

    def run(step_fn, spec, steps, state, k=100):
        out = [state]
        for _ in range(k):
            out.append(step_fn(out[-1], spec, steps))
        return out

    def deviation(a, b, attrs):
        return max(
            float(np.abs(getattr(sa, at) - getattr(sb, at)).max())
            for sa, sb in zip(a[1:], b[1:])
            for at in attrs
        )

    # f = 0: plain iteration vs the dual-extrapolation form
    spec_f0 = ProblemSpec(f=zero_smooth(), g=l1(0.5), h=l1(0.8),
                          lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
    steps = StepSizes.from_lambda(0.9, 0.5 / norm_B)
    dev_cp = deviation(
        run(alg.STEP_FUNCTIONS[AlgorithmId.PD3O], spec_f0, steps,
            initial_state(spec_f0, steps, "pd3o", z0, s0)),
        run(alg.STEP_FUNCTIONS[AlgorithmId.CHAMBOLLE_POCK], spec_f0, steps,
            initial_state(spec_f0, steps, "chambolle-pock", z0, s0)),
        ("x", "s"),
    )
    assert dev_cp <= 1e-10

    # g = 0: plain iteration vs the g-free form
    f = least_squares_term(rng.standard_normal((n, p)) / np.sqrt(n),
                           rng.standard_normal(n))
    spec_g0 = ProblemSpec(f=f, g=zero_prox(), h=l1(0.8),
                          lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
    steps_g0 = StepSizes.from_lambda(1.2 * spec_g0.beta, 0.5 / norm_B)
    dev_papc = deviation(
        run(alg.STEP_FUNCTIONS[AlgorithmId.PD3O], spec_g0, steps_g0,
            initial_state(spec_g0, steps_g0, "pd3o", z0, s0)),
        run(alg.STEP_FUNCTIONS[AlgorithmId.PAPC], spec_g0, steps_g0,
            initial_state(spec_g0, steps_g0, "papc", z0, s0)),
        ("x", "s"),
    )
    assert dev_papc <= 1e-10

    # A = I with gamma*delta = 1: z-sequences of the three-operator forms
    f_sq = least_squares_term(rng.standard_normal((p, p)) / np.sqrt(p),
                              rng.standard_normal(p))
    spec_dy = ProblemSpec(f=f_sq, g=l1(0.3), h=l1(0.4),
                          lstar=zero_conjugate_smooth(), A=IdentityOp(p))
    gamma = spec_dy.beta
    steps_dy = StepSizes(gamma, 1.0 / gamma)
    z0p, s0p = rng.standard_normal(p), rng.standard_normal(p)
    dev_dy = deviation(
        run(alg.STEP_FUNCTIONS[AlgorithmId.PD3O], spec_dy, steps_dy,
            initial_state(spec_dy, steps_dy, "pd3o", z0p, s0p)),
        run(alg.STEP_FUNCTIONS[AlgorithmId.DAVIS_YIN], spec_dy, steps_dy,
            initial_state(spec_dy, steps_dy, "davis-yin", z0p, s0p)),
        ("z",),
    )
    assert dev_dy <= 1e-10

    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    report(1, f"reductions deviate by at most "
              f"{max(dev_cp, dev_papc, dev_dy):.2e} over 100 iterations "
              f"({elapsed:.2f}s)")


# --- criteria 2, 3, 5: the instrumented desk-scale run -------------------------


@pytest.fixture(scope="module")
def desk_run(desk_fused_lasso, desk_reference):
    inst, ref = desk_fused_lasso, desk_reference
    t_start = time.perf_counter()
    steps = StepSizes.from_lambda(inst.beta, 0.125)
    record = solve(inst.spec, "pd3o", steps, max_iters=5000, residual_tol=0.0,
                   norm_AAt=inst.norm_AAt, reference=(ref.x, ref.s), log_every=1)
    return inst, ref, steps, record, time.perf_counter() - t_start


def test_criterion_2_monotone_residual(desk_run):
    inst, ref, steps, record, elapsed = desk_run
    res = record.residuals()
    assert len(res) == 5000
    increases = np.diff(res)
    slack = 1e-12 * res[0]
    assert np.all(increases <= slack)
    assert res.min() < 1e-6
    assert elapsed < 30.0
    report(2, f"residual nonincreasing over 5000 iterations "
              f"(worst step {increases.max():.2e} vs slack {slack:.2e}), "
              f"min residual {res.min():.2e} < 1e-6 ({elapsed:.1f}s)")


def test_criterion_3_sublinear_rate_bound(desk_run, desk_fused_lasso, desk_reference):
    inst, ref, steps, record, _ = desk_run
    gamma, beta = steps.gamma, inst.beta
    ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A, norm_AAt=inst.norm_AAt)
    z_star = fixed_point_from_primal_dual(inst.spec, ref.x, ref.s, gamma)
    d0_sq = combined_norm_sq(ctx, z_star, ref.s)  # start is the zero pair
    factor = 2.0 * beta / (2.0 * beta - gamma)
    iters = record.iters()
    res_sq = record.residuals() ** 2
    bounds = factor * d0_sq / (iters + 1.0)
    violations = int(np.count_nonzero(res_sq > bounds))
    assert violations == 0
    margin = float(np.min(bounds / np.maximum(res_sq, 1e-300)))
    report(3, f"rate bound holds at all {len(iters)} logged iterations "
              f"(tightest bound/residual^2 ratio {margin:.2f})")


def test_criterion_5_ergodic_gap_bound(desk_run):
    inst, ref, steps, record, _ = desk_run
    gaps = np.array([row.gap for row in record.rows], dtype=float)
    iters = record.iters()
    dist_sq = record.metadata["gap_probe_dist_sq"]
    rhs = dist_sq / (2.0 * (iters + 1.0) * steps.gamma)
    assert np.all(gaps <= rhs + 1e-9)
    assert np.all(gaps >= -1e-9)
    report(5, f"gap bound holds at all {len(iters)} logged iterations of the "
              f"gamma=beta run (max gap-rhs = {np.max(gaps - rhs):.2e})")


# --- criterion 4: averagedness inequality --------------------------------------


def test_criterion_4_averagedness():
    rng = np.random.default_rng(77)
    n, p = 15, 12
    B = rng.standard_normal((n, p)) / np.sqrt(n)
    norm_B = DenseMatrixOp(B).norm_AAt_bound()
    pairs = [
        ((rng.standard_normal(p), rng.standard_normal(n)),
         (rng.standard_normal(p), rng.standard_normal(n)))
        for _ in range(200)
    ]

    f = least_squares_term(rng.standard_normal((n, p)) / np.sqrt(n),
                           rng.standard_normal(n))
    spec = ProblemSpec(f=f, g=l1(0.4), h=l1(0.7),
                       lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
    steps = StepSizes.from_lambda(1.3 * spec.beta, 0.6 / norm_B)
    worst = averagedness_inequality_check(spec, steps, pairs)
    assert worst <= 1e-9

    spec_cp = ProblemSpec(f=zero_smooth(), g=l1(0.4), h=l1(0.7),
                          lstar=zero_conjugate_smooth(), A=DenseMatrixOp(B))
    worst_cp = averagedness_inequality_check(spec_cp, steps, pairs)
    assert worst_cp <= 1e-9
    report(4, f"200 pairs: averaged slack {worst:.2e}, "
              f"firmly-nonexpansive slack (f=0) {worst_cp:.2e}, both <= 1e-9")


# --- criterion 6: linear rate --------------------------------------------------


def test_criterion_6_linear_rate(ridge_instance):
    inst = ridge_instance
    gamma = inst.beta
    steps = StepSizes.from_lambda(gamma, 0.5)
    tau_h = inst.tau_hstar(steps.gamma, steps.delta)
    rho = linear_rate_rho(gamma, inst.beta, inst.tau_f, inst.tau_g, tau_h,
                          inst.tau_lstar, inst.L_g)
    assert rho < 1.0

    x_star, s_star = inst.analytic_solution()
    z_star = fixed_point_from_primal_dual(inst.spec, x_star, s_star, gamma)
    ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A,
                       norm_AAt=inst.norm_AAt)
    weight = 1.0 + 2.0 * gamma * tau_h
    lyapunov = []

    def track(k, state, nxt, res):
        dz = state.z - z_star
        lyapunov.append(float(dz @ dz) + weight * m_norm_sq(ctx, state.s - s_star))

    solve(inst.spec, "pd3o", steps, max_iters=1500, residual_tol=0.0,
          norm_AAt=inst.norm_AAt, hooks=[track], log_every=0)
    V = np.array(lyapunov)

    above_floor = V[:-1] > 1e-11 * V[0]
    ratios = V[1:][above_floor] / V[:-1][above_floor]
    assert np.all(ratios <= rho + 1e-6)

    lo, hi = 100, 1000
    ks = np.arange(lo, hi + 1)
    slope = np.polyfit(ks, np.log(V[lo:hi + 1]), 1)[0]
    assert slope <= math.log(rho) + 1e-3
    report(6, f"rho={rho:.6f}: worst per-step ratio {ratios.max():.6f}, "
              f"log-regression slope {slope:.4f} <= log(rho)+1e-3 = "
              f"{math.log(rho) + 1e-3:.4f}")


# --- criterion 7: qualitative reproduction of the benchmark sweep --------------


def test_criterion_7_benchmark_sweep(sweep_fused_lasso, sweep_reference):
    t_start = time.perf_counter()
    inst, ref = sweep_fused_lasso, sweep_reference
    lam = 0.125

    # (a) every admissible scheme at gamma = beta reaches the long-run objective
    relgaps = {}
    for algorithm in ("pd3o", "pdfp", "condat-vu", "afba"):
        steps = StepSizes.from_lambda(inst.beta, lam)
        assert validate_stepsizes(algorithm, steps, inst.beta, inst.norm_AAt).valid
        rec = solve(inst.spec, algorithm, steps, max_iters=25000,
                    residual_tol=1e-6, norm_AAt=inst.norm_AAt, log_every=0)
        relgaps[algorithm] = abs(rec.metadata["final_objective"] - ref.objective) / abs(
            ref.objective)
        assert relgaps[algorithm] <= 1e-6, algorithm

    # (b) near-linear speedup in gamma for the proposed scheme
    iters = {}
    for factor in (1.0, 1.99):
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(factor * inst.beta, lam),
                    max_iters=40000, residual_tol=1e-6, norm_AAt=inst.norm_AAt,
                    log_every=0)
        assert rec.metadata["converged"]
        iters[factor] = rec.metadata["iterations"]
    speedup_ratio = iters[1.99] / iters[1.0]
    assert speedup_ratio <= 0.65

    # (c) the conservative-stepsize schemes are rejected at larger gamma
    for factor in (1.5, 1.99):
        steps = StepSizes.from_lambda(factor * inst.beta, lam)
        for algorithm in ("condat-vu", "afba"):
            assert not validate_stepsizes(algorithm, steps, inst.beta,
                                          inst.norm_AAt).valid
        for algorithm in ("pd3o", "pdfp"):
            assert validate_stepsizes(algorithm, steps, inst.beta,
                                      inst.norm_AAt).valid

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    report(7, f"(a) worst relative objective gap {max(relgaps.values()):.2e}; "
              f"(b) iteration ratio 1.99*beta/beta = {speedup_ratio:.2f} <= 0.65 "
              f"({iters[1.99]}/{iters[1.0]}); (c) conservative schemes rejected "
              f"at 1.5*beta and 1.99*beta ({elapsed:.0f}s)")


# --- criterion 8: oracle suite --------------------------------------------------


def test_criterion_8_oracle_suite():
    rng = np.random.default_rng(808)

    # prox catalog: optimality residual, firm nonexpansiveness, Moreau identity
    for entry in CATALOG:
        term = entry.make()
        for _ in range(5):
            v = 3.0 * rng.standard_normal(10)
            t = float(rng.uniform(0.1, 3.0))
            assert prox_optimality_residual(term, v, t) <= 1e-8, entry.name
        for _ in range(20):
            v1, v2 = rng.standard_normal(10), rng.standard_normal(10)
            t = float(rng.uniform(0.1, 3.0))
            p1, p2 = term.prox(v1, t), term.prox(v2, t)
            assert float((p1 - p2) @ (p1 - p2)) <= float(
                (p1 - p2) @ (v1 - v2)) + 1e-10, entry.name
        for delta in (0.1, 1.0, 10.0):
            v = rng.standard_normal(10)
            recon = prox_conjugate(term, v, delta) + delta * term.prox(
                v / delta, 1.0 / delta)
            assert np.abs(recon - v).max() <= 1e-12, entry.name

    # adjoint consistency for every operator implementation
    ops = [
        DenseMatrixOp(rng.standard_normal((6, 9))),
        DifferenceOp(25),
        IdentityOp(8),
    ]
    for op in ops:
        for _ in range(200):
            x = rng.standard_normal(op.in_dim)
            s = rng.standard_normal(op.out_dim)
            lhs, rhs = float(op.apply(x) @ s), float(x @ op.adjoint_apply(s))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    # the certified norm bound against the closed-form top eigenvalue of D D^T
    p = 500
    exact = 2.0 - 2.0 * np.cos((p - 1) * np.pi / p)
    bound = DifferenceOp(p).norm_AAt_bound()
    norm_err = (bound - exact) / exact
    assert 0.0 <= norm_err <= 1e-12

    # smooth-term gradients against central finite differences
    terms = [
        (quadratic_distance_term(rng.standard_normal(7)), 7),
        (least_squares_term(rng.standard_normal((5, 7)), rng.standard_normal(5)), 7),
        (least_squares_term(rng.standard_normal((5, 7)), rng.standard_normal(5),
                            ridge=0.8), 7),
    ]
    h = 1e-6
    worst_fd = 0.0
    for term, dim in terms:
        for _ in range(5):
            x = rng.standard_normal(dim)
            grad = term.gradient(x)
            fd = np.array([
                (term.value(x + h * e) - term.value(x - h * e)) / (2 * h)
                for e in np.eye(dim)
            ])
            err = np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad))
            worst_fd = max(worst_fd, err)
            assert err <= 1e-5

    report(8, f"prox catalog, adjoints, norm bound (above the closed form by "
              f"{norm_err:.1e}), and gradients (worst FD err {worst_fd:.1e}) all within tolerance")
