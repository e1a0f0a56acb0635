import math
import os
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracle_checks import sample_cocoercivity
from pdsplit.algorithms import (
    StepSizes,
    fixed_point_from_primal_dual,
    fixed_point_residuals,
    solve,
)
from pdsplit.core import evaluate_objective
from pdsplit import problems
from pdsplit.metrics import linear_rate_rho
from pdsplit.problems import (
    atomic_file,
    gen_elastic_net_strongly_convex,
    gen_fused_lasso,
    gen_toy_quadratic,
    least_squares_term,
    quadratic_distance_term,
    reference_solution,
)


class TestFusedLassoGenerator:
    def test_same_seed_is_bit_identical(self):
        a = gen_fused_lasso(n=25, p=60, seed=123)
        b = gen_fused_lasso(n=25, p=60, seed=123)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_true, b.x_true)
        assert a.instance_key == b.instance_key

    def test_different_seed_differs(self):
        a = gen_fused_lasso(n=25, p=60, seed=123)
        b = gen_fused_lasso(n=25, p=60, seed=124)
        assert not np.array_equal(a.A, b.A)

    def test_objective_at_origin_is_half_b_squared(self):
        inst = gen_fused_lasso(n=30, p=80, seed=2)
        assert evaluate_objective(inst.spec, np.zeros(80)) == pytest.approx(
            0.5 * float(inst.b @ inst.b))

    def test_gaussian_sampler_sanity(self, desk_fused_lasso):
        flat = desk_fused_lasso.A.ravel()
        n_samples = flat.size
        assert n_samples >= 10_000
        assert abs(flat.mean()) <= 3.0 / np.sqrt(n_samples)
        assert abs(flat.var() - 1.0) <= 0.05

    def test_ground_truth_is_piecewise_constant(self):
        inst = gen_fused_lasso(n=20, p=200, seed=5)
        # 20 equal blocks of length 10: at most 19 jumps
        jumps = np.count_nonzero(np.diff(inst.x_true))
        assert jumps <= 19
        assert set(np.unique(inst.x_true)) <= {-1.0, 0.0, 1.0}

    def test_declared_beta_is_cocoercive(self, small_fused_lasso):
        ok, _ = sample_cocoercivity(small_fused_lasso.spec.f, samples=50,
                                    dim=small_fused_lasso.spec.x_dim, rng_seed=3)
        assert ok

    def test_difference_norm_matches_cosine_formula(self, small_fused_lasso):
        p = small_fused_lasso.spec.x_dim
        exact = 2.0 - 2.0 * np.cos((p - 1) * np.pi / p)
        bound = small_fused_lasso.spec.A.norm_AAt_bound()
        assert abs(bound - exact) <= 1e-12 * exact

    def test_declared_beta_is_below_one_over_sigma_max_squared(self, desk_fused_lasso):
        sigma_max = np.linalg.norm(desk_fused_lasso.A, 2)
        assert 1.0 / desk_fused_lasso.beta >= sigma_max**2

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            gen_fused_lasso(n=1, p=10)
        with pytest.raises(ValueError):
            gen_fused_lasso(n=10, p=10, mu1=0.0)

    @pytest.mark.parametrize("bad", [{"noise_var": math.nan}, {"noise_var": math.inf},
                                     {"mu1": math.inf}, {"mu2": math.inf}])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            gen_fused_lasso(n=10, p=10, **bad)


class TestElasticNetGenerator:
    def test_tau_f_matches_eigensolve(self, ridge_instance):
        inst = ridge_instance
        eigs = np.linalg.eigvalsh(inst.A.T @ inst.A)
        assert inst.tau_f == pytest.approx(max(eigs[0], 0.0) + 2 * inst.mu2)

    @pytest.mark.parametrize("n, p, seed, mu1, mu2", [
        (50, 50, 3, 0.0, 0.5), (12, 20, 1, 0.0, 0.0), (12, 12, 1, 0.3, 1.0)])
    def test_beta_follows_the_least_squares_rule(self, n, p, seed, mu1, mu2):
        inst = gen_elastic_net_strongly_convex(n=n, p=p, seed=seed, mu1=mu1, mu2=mu2)
        assert inst.beta == inst.spec.beta
        assert inst.beta == least_squares_term(inst.A, inst.b, ridge=mu2).beta
        assert 1.0 / inst.beta >= np.linalg.norm(inst.A, 2) ** 2 + 2.0 * mu2

    def test_mu2_zero_leaves_least_squares_modulus(self):
        inst = gen_elastic_net_strongly_convex(n=12, p=20, seed=1, mu1=0.0, mu2=0.0)
        # p > n makes the Gram matrix singular: tau_f collapses to 0
        assert inst.tau_f == pytest.approx(0.0, abs=1e-8)

    def test_declared_moduli_feed_rho(self, ridge_instance):
        inst = ridge_instance
        gamma = inst.beta
        steps = StepSizes.from_lambda(gamma, 0.5)
        rho = linear_rate_rho(gamma, inst.beta, inst.tau_f, inst.tau_g,
                              inst.tau_hstar(steps.gamma, steps.delta),
                              inst.tau_lstar, inst.L_g)
        assert 0.0 < rho < 1.0

    @pytest.mark.parametrize("bad", [{"mu1": math.nan}, {"mu1": math.inf},
                                     {"a_scale": math.nan}, {"a_scale": math.inf}])
    def test_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite"):
            gen_elastic_net_strongly_convex(n=6, p=6, **bad)

    def test_nonsmooth_g_declares_infinite_Lg(self):
        inst = gen_elastic_net_strongly_convex(n=12, p=12, seed=1, mu1=0.3, mu2=1.0)
        assert inst.L_g == np.inf
        gamma = inst.beta
        steps = StepSizes.from_lambda(gamma, 0.5)
        rho = linear_rate_rho(gamma, inst.beta, inst.tau_f, inst.tau_g,
                              inst.tau_hstar(steps.gamma, steps.delta),
                              inst.tau_lstar, inst.L_g)
        assert rho == pytest.approx(1.0)  # no linear certificate claimed

    def test_analytic_solution_is_fixed_point(self, ridge_instance):
        inst = ridge_instance
        x_star, s_star = inst.analytic_solution()
        steps = StepSizes.from_lambda(inst.beta, 0.5)
        z_star = fixed_point_from_primal_dual(inst.spec, x_star, s_star, steps.gamma)
        res = fixed_point_residuals(inst.spec, steps, z_star, s_star)
        assert res.primal <= 1e-10
        assert res.dual <= 1e-10

    def test_cocoercivity_of_ridge_term(self, ridge_instance):
        ok, _ = sample_cocoercivity(ridge_instance.spec.f, samples=100,
                                    dim=ridge_instance.spec.x_dim, rng_seed=4)
        assert ok


class TestDeclaredNorm:
    @pytest.mark.parametrize("generate", [
        lambda: gen_fused_lasso(n=10, p=30, seed=1),
        lambda: gen_elastic_net_strongly_convex(n=12, p=12, seed=1),
        lambda: gen_toy_quadratic(dim=5, seed=1)])
    def test_every_generator_declares_the_certified_bound(self, generate):
        inst = generate()
        assert inst.norm_AAt == inst.spec.A.norm_AAt_bound()

    def test_elastic_net_bound_is_at_least_the_exact_square(self):
        # 0.7**2 rounds to 0.48999999999999994, below the exact square of the double 0.7
        inst = gen_elastic_net_strongly_convex(n=12, p=12, seed=1, a_scale=0.7)
        assert Fraction(inst.norm_AAt) >= Fraction(0.7) ** 2


class TestLeastSquaresTerm:
    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_value_with_residual_memo_equals_fresh_evaluation(self, rng, ridge):
        A, b = rng.standard_normal((15, 40)), rng.standard_normal(15)
        f = least_squares_term(A, b, ridge=ridge)

        def fresh(x):
            r = A @ x - b
            return 0.5 * float(r @ r) + (ridge * float(x @ x) if ridge else 0.0)

        x, older = rng.standard_normal(40), rng.standard_normal(40)
        f.gradient(older)
        f.gradient(x)
        assert f.value(x) == fresh(x)          # latest gradient point
        assert f.value(older) == fresh(older)  # the one before
        x[3] += 1.0                            # changed in place after the gradient
        assert f.value(x) == fresh(x)
        unrelated = rng.standard_normal(40)
        assert f.value(unrelated) == fresh(unrelated)
        f.gradient(unrelated)
        f.gradient(x)
        assert f.value(older) == fresh(older)  # evicted, recomputed

    def test_value_at_a_huge_point_warns_no_overflow(self):
        f = least_squares_term(np.eye(3), np.zeros(3), ridge=0.5)
        big = np.full(3, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.value(big) == math.inf
            assert quadratic_distance_term(np.zeros(3)).value(big) == math.inf

    def test_gradient_is_unchanged(self, rng):
        A, b = rng.standard_normal((15, 40)), rng.standard_normal(15)
        f = least_squares_term(A, b, ridge=0.3)
        x = rng.standard_normal(40)
        assert np.array_equal(f.gradient(x), A.T @ (A @ x - b) + 2.0 * 0.3 * x)


class TestReferenceSolution:
    def test_toy_reference_is_exact(self):
        inst = gen_toy_quadratic(dim=9, seed=8)
        ref = reference_solution(inst, iters=50)
        np.testing.assert_allclose(ref.x, inst.c, atol=1e-12)
        steps = StepSizes(1.5 * inst.beta, 0.5 / (1.5 * inst.beta))
        res = fixed_point_residuals(inst.spec, steps, ref.x, ref.s)
        assert max(res.primal, res.dual) <= 1e-12

    def test_cache_roundtrip(self, tmp_path):
        inst = gen_toy_quadratic(dim=7, seed=4)
        ref1 = reference_solution(inst, iters=40, cache_dir=tmp_path)
        files = list(tmp_path.glob("ref-*.npz"))
        assert len(files) == 1
        mtime = files[0].stat().st_mtime_ns
        ref2 = reference_solution(inst, iters=40, cache_dir=tmp_path)
        assert files[0].stat().st_mtime_ns == mtime  # loaded, not recomputed
        np.testing.assert_array_equal(ref1.x, ref2.x)
        np.testing.assert_array_equal(ref1.s, ref2.s)

    # an empty file is what a rewrite may leave after a power loss
    @pytest.mark.parametrize("damage", ["garbage", "truncated", "empty"])
    def test_corrupt_cache_file_is_rebuilt(self, tmp_path, damage):
        inst = gen_toy_quadratic(dim=7, seed=4)
        ref1 = reference_solution(inst, iters=40, cache_dir=tmp_path)
        (path,) = tmp_path.glob("ref-*.npz")
        good = path.read_bytes()
        path.write_bytes({"garbage": b"\x80not an npz archive" * 8,
                          "truncated": good[: len(good) // 2], "empty": b""}[damage])
        ref2 = reference_solution(inst, iters=40, cache_dir=tmp_path)
        np.testing.assert_array_equal(ref1.x, ref2.x)
        np.testing.assert_array_equal(ref1.s, ref2.s)
        assert list(tmp_path.iterdir()) == [path]  # rebuilt in place, no temp file left
        with np.load(path) as data:
            np.testing.assert_array_equal(data["x"], ref1.x)

    def test_a_failed_cache_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            reference_solution(gen_toy_quadratic(dim=7, seed=4), iters=40, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_cache_distinguishes_iteration_count(self, tmp_path):
        inst = gen_toy_quadratic(dim=7, seed=4)
        reference_solution(inst, iters=40, cache_dir=tmp_path)
        reference_solution(inst, iters=41, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("ref-*.npz"))) == 2

    def test_reference_satisfies_fixed_point_characterization(
            self, small_fused_lasso, small_reference):
        inst, ref = small_fused_lasso, small_reference
        gamma = 1.5 * inst.beta
        steps = StepSizes(gamma, 0.5 / (gamma * inst.norm_AAt))
        z_star = fixed_point_from_primal_dual(inst.spec, ref.x, ref.s, gamma)
        res = fixed_point_residuals(inst.spec, steps, z_star, ref.s)
        assert res.primal <= 1e-8
        assert res.dual <= 1e-8

    def test_all_algorithms_agree_with_reference(self, small_fused_lasso,
                                                 small_reference):
        inst, ref = small_fused_lasso, small_reference
        steps = StepSizes.from_lambda(inst.beta, 0.125)
        for algorithm in ("pd3o", "pdfp", "condat-vu", "afba"):
            rec = solve(inst.spec, algorithm, steps, max_iters=12000,
                        residual_tol=1e-9, norm_AAt=inst.norm_AAt)
            rel = abs(rec.metadata["final_objective"] - ref.objective) / ref.objective
            assert rel <= 1e-6, algorithm


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="renameat2 is Linux's")


class TestAtomicFile:
    @staticmethod
    def write(path, data):
        with atomic_file(path, "wb") as fh:
            fh.write(data)

    @linux_only
    def test_a_rewrite_swaps_the_file_in_without_os_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        self.write(path, b"old")

        def refuse(src, dst):
            raise OSError("os.replace called")

        monkeypatch.setattr(os, "replace", refuse)
        self.write(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("renameat2", [None, lambda *args: -1], ids=["missing", "refused"])
    def test_without_an_exchange_the_file_is_replaced(self, tmp_path, monkeypatch, renameat2):
        path = tmp_path / "out.csv"
        self.write(path, b"old")
        monkeypatch.setattr(problems, "_renameat2", renameat2)
        replaced, replace = [], os.replace

        def spy(src, dst):
            replaced.append(dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        self.write(path, b"new")
        assert replaced == [path]
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.csv"]

    @linux_only
    def test_a_directory_at_the_path_stays_where_it_is(self, tmp_path):
        path = tmp_path / "out.csv"
        path.mkdir()
        (path / "kept").write_bytes(b"kept")
        with pytest.raises(IsADirectoryError):
            self.write(path, b"new")
        assert os.listdir(tmp_path) == ["out.csv"]
        assert os.listdir(path) == ["kept"] and (path / "kept").read_bytes() == b"kept"

    def test_a_symlink_at_the_path_is_replaced_not_followed(self, tmp_path):
        target, path = tmp_path / "target", tmp_path / "out.csv"
        target.write_bytes(b"target")
        path.symlink_to(target)
        self.write(path, b"new")
        assert not path.is_symlink() and path.read_bytes() == b"new"
        assert target.read_bytes() == b"target"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "target"]

    def test_a_failed_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        self.write(path, b"old")
        with pytest.raises(RuntimeError, match="inside the block"):
            with atomic_file(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("inside the block")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_a_reader_always_finds_one_complete_version(self, tmp_path):
        # a rewrite that removed the path before putting the new file there
        # would let the reader see no file, and a cache reader take a miss
        path = tmp_path / "out.csv"
        versions = (b"a" * 4096, b"b" * 8192)
        self.write(path, versions[0])
        seen, done = [], threading.Event()

        def read():
            while not done.is_set():
                try:
                    seen.append(path.read_bytes())
                except OSError as err:
                    seen.append(err)

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for i in range(1, 201):
                self.write(path, versions[i % 2])
        finally:
            done.set()
            reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        bad = [v if isinstance(v, OSError) else v[:8] for v in seen if v not in versions]
        assert seen and not bad, bad[:3]
        assert os.listdir(tmp_path) == ["out.csv"]


class TestDefaults:
    def test_fused_lasso_defaults_match_benchmark_setup(self):
        import inspect

        sig = inspect.signature(gen_fused_lasso)
        assert sig.parameters["n"].default == 500
        assert sig.parameters["p"].default == 10000
        assert sig.parameters["noise_var"].default == 0.01
        assert sig.parameters["mu1"].default == 20.0
        assert sig.parameters["mu2"].default == 200.0

    def test_reference_cache_uses_environment_directory(self, session_cache):
        inst = gen_toy_quadratic(dim=5, seed=99)
        reference_solution(inst, iters=30)
        assert list(session_cache.glob(f"ref-{inst.instance_key}-30.npz"))
