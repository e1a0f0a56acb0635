import io
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from pdsplit.algorithms import (
    AlgorithmId,
    StepSizes,
    fixed_point_from_primal_dual,
    initial_state,
    primal_dual_step,
    solve,
)
from pdsplit.core import ProblemSpec, zero_conjugate_smooth, zero_smooth
from pdsplit.exceptions import GeometryViolationError, HypothesisViolationError
from pdsplit.linops import DenseMatrixOp, DifferenceOp, IdentityOp
from pdsplit.metrics import (
    ConvergenceRecord,
    GapCheck,
    IterationRow,
    MNormContext,
    averagedness_inequality_check,
    combined_norm,
    combined_norm_sq,
    euclidean_residual,
    ergodic_gap_bound_check,
    fixed_point_residual,
    lagrangian,
    linear_rate_rho,
    m_norm_sq,
    sublinear_rate_bound,
)
from pdsplit.problems import gen_toy_quadratic, least_squares_term
from pdsplit.prox import l1, squared_l2, zero_prox


class TestMNorm:
    def test_difference_op_hand_value(self):
        # D^T (1, -1) = (-1, 2, -1), so (gamma/delta)(2 - 0.25 * 6) = 0.5
        ctx = MNormContext(0.5, 0.5, DifferenceOp(3))
        assert m_norm_sq(ctx, np.array([1.0, -1.0])) == pytest.approx(0.5, abs=1e-14)

    def test_zero_map(self, rng):
        ctx = MNormContext(0.8, 0.4, DenseMatrixOp(np.zeros((3, 5))))
        s = rng.standard_normal(3)
        assert m_norm_sq(ctx, s) == pytest.approx(2.0 * float(s @ s))

    def test_identity_critical_product_vanishes(self, rng):
        ctx = MNormContext(0.5, 2.0, IdentityOp(6), norm_AAt=1.0)
        assert ctx.semidefinite
        s = rng.standard_normal(6)
        assert m_norm_sq(ctx, s) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_matrix(self, rng):
        for _ in range(10):
            m = rng.standard_normal((8, 11))
            gamma, delta = 0.7, 0.2 / float(np.linalg.eigvalsh(m @ m.T)[-1])
            ctx = MNormContext(gamma, delta, DenseMatrixOp(m))
            M = (gamma / delta) * (np.eye(8) - gamma * delta * m @ m.T)
            s = rng.standard_normal(8)
            expected = float(s @ M @ s)
            assert m_norm_sq(ctx, s) == pytest.approx(expected, rel=1e-10)

    def test_geometry_violation(self, rng):
        # gamma*delta*||AA^T|| = 4 * 0.5 > 1 for the identity scaled by 2
        m = 2.0 * np.eye(4)
        ctx = MNormContext(1.0, 0.5, DenseMatrixOp(m))
        with pytest.raises(GeometryViolationError):
            m_norm_sq(ctx, rng.standard_normal(4))

    def test_band_applies_to_the_bracket_not_its_scaled_value(self):
        # ||DD^T|| declared 1% below the truth makes t = 1 pass while the
        # bracket ||s||^2 - gamma*delta*||D^T s||^2 at the top eigenvector is
        # about -0.01; gamma/delta = 1e-9 scales that inside a 1e-10 band
        op = DifferenceOp(40)
        declared = 0.99 * op.norm_AAt_bound()
        gamma = math.sqrt(1e-9 / declared)
        ctx = MNormContext(gamma, gamma / 1e-9, op, norm_AAt=declared)
        assert not ctx.indefinite
        dense = np.array([op.apply(e) for e in np.eye(40)]).T
        s = np.linalg.eigh(dense @ dense.T)[1][:, -1]
        with pytest.raises(GeometryViolationError):
            m_norm_sq(ctx, s)

    def test_combined_norm_blocks(self, rng):
        ctx = MNormContext(0.5, 0.5, DifferenceOp(4))
        z, s = rng.standard_normal(4), rng.standard_normal(3)
        assert combined_norm_sq(ctx, np.zeros(4), np.zeros(3)) == 0.0
        assert combined_norm_sq(ctx, z, np.zeros(3)) == pytest.approx(float(z @ z))
        total = combined_norm_sq(ctx, z, s)
        assert total == pytest.approx(float(z @ z) + m_norm_sq(ctx, s))


class TestFixedPointResidual:
    def test_zero_at_fixed_point(self):
        inst = gen_toy_quadratic(dim=5, seed=1)
        steps = StepSizes.from_lambda(1.0, 0.5)
        state = initial_state(inst.spec, steps, "pd3o", inst.c, np.zeros(5))
        nxt = primal_dual_step(state, inst.spec, steps, AlgorithmId.PD3O)
        ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A)
        assert fixed_point_residual(ctx, state, nxt) <= 1e-12

    def test_first_iteration_is_z_change_when_dual_frozen(self):
        inst = gen_toy_quadratic(dim=5, seed=2)
        steps = StepSizes.from_lambda(0.7, 0.5)
        state = initial_state(inst.spec, steps)
        nxt = primal_dual_step(state, inst.spec, steps, AlgorithmId.PD3O)
        np.testing.assert_array_equal(nxt.s, np.zeros(5))
        ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A)
        assert fixed_point_residual(ctx, state, nxt) == pytest.approx(
            float(np.linalg.norm(nxt.z - state.z))
        )

    def test_monotone_for_all_algorithms(self, small_fused_lasso):
        inst = small_fused_lasso
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        for alg in ("pd3o", "pdfp", "condat-vu", "afba"):
            rec = solve(inst.spec, alg, steps, max_iters=2000, residual_tol=0.0,
                        norm_AAt=inst.norm_AAt)
            res = rec.residuals()
            assert np.all(np.diff(res) <= 1e-12 * res[0]), alg


class TestLagrangian:
    def test_bilinear_quadratic_case(self, rng):
        spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=squared_l2(0.5),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(4))
        x = rng.standard_normal(4)
        for _ in range(20):
            s = rng.standard_normal(4)
            val = lagrangian(spec, x, s)
            assert val == pytest.approx(float(x @ s) - 0.5 * float(s @ s))
            assert val <= lagrangian(spec, x, x) + 1e-12  # maximized at s = x

    def test_l1_conjugate_box(self, rng):
        spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=l1(2.0),
                           lstar=zero_conjugate_smooth(), A=IdentityOp(3))
        x = rng.standard_normal(3)
        assert np.isfinite(lagrangian(spec, x, np.array([1.9, -2.0, 0.0])))
        assert lagrangian(spec, x, np.array([2.5, 0.0, 0.0])) == -np.inf

    def test_saddle_inequality_at_reference(self, small_fused_lasso, small_reference, rng):
        inst, ref = small_fused_lasso, small_reference
        p, m = inst.spec.x_dim, inst.spec.s_dim
        L_star = lagrangian(inst.spec, ref.x, ref.s)
        for _ in range(100):
            s_probe = rng.uniform(-inst.mu2, inst.mu2, m)
            x_probe = ref.x + 0.5 * rng.standard_normal(p)
            assert lagrangian(inst.spec, ref.x, s_probe) <= L_star + 1e-8
            assert L_star <= lagrangian(inst.spec, x_probe, ref.s) + 1e-8


class TestErgodicGap:
    def _context(self, inst):
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        return steps, MNormContext(steps.gamma, steps.delta, inst.spec.A,
                                   norm_AAt=inst.norm_AAt)

    def test_gap_nonnegative_at_saddle_probe(self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        steps, ctx = self._context(inst)
        rec = solve(inst.spec, "pd3o", steps, max_iters=200, residual_tol=0.0,
                    norm_AAt=inst.norm_AAt, reference=(ref.x, ref.s))
        gaps = np.array([r.gap for r in rec.rows])
        assert np.all(gaps >= -1e-9)

    def test_bound_holds_and_scales(self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        steps, ctx = self._context(inst)
        sums_x = np.zeros(inst.spec.x_dim)
        sums_s = np.zeros(inst.spec.s_dim)
        state = initial_state(inst.spec, steps)
        z0, s0 = state.z.copy(), state.s.copy()
        checks: dict[int, GapCheck] = {}
        for k in range(200):
            sums_x += state.x
            nxt = primal_dual_step(state, inst.spec, steps, AlgorithmId.PD3O)
            sums_s += nxt.s
            if k in (99, 199):
                checks[k] = ergodic_gap_bound_check(
                    inst.spec, ctx, sums_x / (k + 1), sums_s / (k + 1),
                    ref.x, ref.s, z0, s0, k, inst.beta,
                )
            state = nxt
        for k, chk in checks.items():
            assert chk.holds, k
        assert checks[99].rhs / checks[199].rhs == pytest.approx(2.0, rel=0.01)

    def test_rejects_large_gamma(self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        steps = StepSizes.from_lambda(1.5 * inst.beta, 0.125)
        ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A)
        with pytest.raises(HypothesisViolationError):
            ergodic_gap_bound_check(
                inst.spec, ctx, ref.x, ref.s, ref.x, ref.s,
                np.zeros(inst.spec.x_dim), np.zeros(inst.spec.s_dim), 10, inst.beta,
            )

    def test_one_step_telescoping_inequality(self, small_fused_lasso, small_reference):
        # per-iteration gap at a fixed probe is bounded by the telescoped
        # squared distances when gamma <= beta
        inst, ref = small_fused_lasso, small_reference
        steps, ctx = self._context(inst)
        gamma = steps.gamma
        z_pr = fixed_point_from_primal_dual(inst.spec, ref.x, ref.s, gamma)
        state = initial_state(inst.spec, steps)
        for k in range(150):
            nxt = primal_dual_step(state, inst.spec, steps, AlgorithmId.PD3O)
            lhs = (lagrangian(inst.spec, state.x, ref.s)
                   - lagrangian(inst.spec, ref.x, nxt.s))
            d_before = combined_norm_sq(ctx, z_pr - state.z, ref.s - state.s)
            d_after = combined_norm_sq(ctx, z_pr - nxt.z, ref.s - nxt.s)
            assert lhs <= (d_before - d_after) / (2.0 * gamma) + 1e-9
            state = nxt


class TestAveragedness:
    def test_identical_pair_has_zero_slack(self, rng):
        m = rng.standard_normal((4, 6)) / 2.0
        spec = ProblemSpec(f=least_squares_term(m, rng.standard_normal(4)),
                           g=l1(0.3), h=l1(0.5),
                           lstar=zero_conjugate_smooth(), A=DenseMatrixOp(m))
        steps = StepSizes.from_lambda(spec.beta, 0.1)
        z = rng.standard_normal(6)
        s = rng.standard_normal(4)
        worst = averagedness_inequality_check(spec, steps, [(((z, s)), ((z, s)))])
        assert worst == pytest.approx(0.0, abs=1e-30)


class TestRates:
    def test_sublinear_bound_values(self):
        assert sublinear_rate_bound(0, 1.0, beta=1.0, gamma=1.0) == pytest.approx(2.0)
        assert sublinear_rate_bound(1, 1.0, beta=1.0, gamma=1.0) == pytest.approx(1.0)
        assert sublinear_rate_bound(3, 1.0, beta=1.0, gamma=1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            sublinear_rate_bound(0, 1.0, beta=1.0, gamma=2.0)

    def test_rho_no_moduli_means_no_contraction(self):
        assert linear_rate_rho(0.5, 1.0, 0, 0, 0, 0, 0) == 1.0

    def test_rho_substitution_at_gamma_beta(self):
        beta, tau_f, tau_h, Lg = 1.0, 0.3, 0.4, 0.2
        rho = linear_rate_rho(beta, beta, tau_f, 0.0, tau_h, 0.0, Lg)
        expected = max(1.0 / (1.0 + 2 * beta * tau_h),
                       1.0 - beta * tau_f / (1.0 + beta * Lg))
        assert rho == pytest.approx(expected)
        assert rho < 1.0

    def test_rho_rejects_large_gamma(self):
        with pytest.raises(ValueError):
            linear_rate_rho(2.0, 1.0, 0.1, 0, 0.1, 0, 0)

    def test_monotone_distance_to_fixed_point(self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        ctx = MNormContext(steps.gamma, steps.delta, inst.spec.A,
                           norm_AAt=inst.norm_AAt)
        z_star = fixed_point_from_primal_dual(inst.spec, ref.x, ref.s, steps.gamma)
        dists = []

        def track(k, state, nxt, res):
            dists.append(combined_norm_sq(ctx, state.z - z_star, state.s - ref.s) ** 0.5)

        solve(inst.spec, "pd3o", steps, max_iters=1500, residual_tol=0.0,
              norm_AAt=inst.norm_AAt, hooks=[track])
        d = np.array(dists)
        # stop checking once the distance reaches the reference's own accuracy
        cutoff = np.argmax(d < 1e-8 * d[0]) or len(d)
        d = d[:cutoff]
        assert np.all(np.diff(d) <= 1e-12 * d[0])


class TestConvergenceRecordCsv:
    def test_schema_and_precision(self):
        rec = ConvergenceRecord(rows=[
            IterationRow(0, 1.0 / 3.0, 2e-7, None, None, 0.25),
            IterationRow(1, np.inf, 1e-9, 0.5, -1e-12, 0.5),
        ])
        buf = io.StringIO()
        rec.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "iter,objective,residual_im,dist_to_ref,gap,wall_time_s"
        assert lines[1].startswith("0,0.33333333333333331,")
        assert ",," in lines[1]  # empty optional columns
        assert lines[2].split(",")[1] == "inf"

    def test_series_id_column(self):
        rec = ConvergenceRecord(rows=[IterationRow(0, 1.0, 1.0)])
        buf = io.StringIO()
        rec.write_csv(buf, series_id="alg_a")
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("series_id,")
        assert lines[1].startswith("alg_a,0,")


class TestMissingOracles:
    def test_lagrangian_requires_h_conjugate(self, rng):
        from pdsplit.core import ProxTerm
        from pdsplit.exceptions import UnsupportedMetricError

        bare_h = ProxTerm(value=lambda x: 0.0, prox=lambda v, t: v.copy())
        spec = ProblemSpec(f=zero_smooth(), g=zero_prox(), h=bare_h,
                           lstar=zero_conjugate_smooth(), A=IdentityOp(3))
        with pytest.raises(UnsupportedMetricError):
            lagrangian(spec, np.zeros(3), np.zeros(3))


class TestOverflowingSquares:
    def test_norms_of_representable_vectors_do_not_warn(self):
        # the squares overflow, the norms do not; the rescaled path gives them
        c = 1e200 * np.arange(1.0, 7.0)
        ctx = MNormContext(0.5, 0.5, IdentityOp(6), norm_AAt=1.0)
        state, nxt = SimpleNamespace(z=0.0 * c, s=0.0 * c), SimpleNamespace(z=c, s=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            combined = combined_norm(ctx, c, c)
            euclidean = euclidean_residual(state, nxt)
        unit = np.arange(1.0, 7.0) / 6.0
        norm_c = 6e200 * math.sqrt(unit @ unit)
        assert combined == pytest.approx(norm_c * math.sqrt(1.0 + (1.0 - 0.25)), rel=1e-14)
        assert euclidean == pytest.approx(norm_c * math.sqrt(2.0), rel=1e-14)
