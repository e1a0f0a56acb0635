from dataclasses import replace

import numpy as np
import pytest

from oracle_checks import CATALOG, orthant_indicator, prox_optimality_residual
from pdsplit.core import INF, ProxTerm
from pdsplit.prox import (
    l1,
    prox_conjugate,
    prox_l1,
    prox_sq_l2,
    squared_l2,
    with_conjugate,
    zero_prox,
)

EPS = float(np.finfo(float).eps)


def scalar_grid_argmin(objective, lo=-10.0, hi=10.0):
    """Brute-force scalar minimizer: coarse grid, then two refinements."""
    xs = np.linspace(lo, hi, 20001)
    for _ in range(3):
        vals = np.array([objective(x) for x in xs])
        i = int(np.argmin(vals))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        xs = np.linspace(lo, hi, 2001)
    return xs[int(np.argmin([objective(x) for x in xs]))]


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_allclose(prox_l1(np.array([3.0, -0.5, 1.0]), 1.0, 1.0),
                                   [2.0, 0.0, 0.0])

    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(prox_l1(np.zeros(2), 0.7, 2.0), np.zeros(2))

    def test_tie_maps_to_zero(self):
        assert prox_l1(np.array([2.0]), 1.0, 2.0)[0] == 0.0

    def test_scalar_against_grid(self):
        # argmin of t*mu*|x| + (x - 2.7)^2/2  with t=0.5, mu=4
        t, mu, v = 0.5, 4.0, 2.7
        oracle = scalar_grid_argmin(lambda x: t * mu * abs(x) + 0.5 * (x - v) ** 2)
        assert abs(oracle - 0.7) < 1e-6
        np.testing.assert_allclose(prox_l1(np.array([v]), t, mu), [0.7], atol=1e-12)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), -1.0, 1.0)
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), 1.0, 0.0)


class TestSquaredL2Prox:
    def test_halving(self):
        np.testing.assert_allclose(prox_sq_l2(np.array([3.0, 3.0]), 1.0, 0.5),
                                   [1.5, 1.5])

    def test_zero(self):
        np.testing.assert_array_equal(prox_sq_l2(np.zeros(3), 2.0, 1.0), np.zeros(3))

    def test_scalar_against_grid(self):
        # argmin of t*mu*x^2 + (x - 1)^2/2 with t=0.25, mu=2: shrink by 1/(1+2*t*mu)
        t, mu, v = 0.25, 2.0, 1.0
        oracle = scalar_grid_argmin(lambda x: t * mu * x * x + 0.5 * (x - v) ** 2)
        expected = v / (1.0 + 2.0 * t * mu)
        assert abs(oracle - expected) < 1e-6
        np.testing.assert_allclose(prox_sq_l2(np.array([v]), t, mu), [expected])


class TestNonnegProjection:
    """The prox of the catalog's orthant indicator is the projection."""

    @staticmethod
    def project(v):
        return orthant_indicator().prox(v, 0.7)

    def test_clips(self):
        np.testing.assert_array_equal(self.project(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_zero_fixed(self):
        np.testing.assert_array_equal(self.project(np.zeros(2)), np.zeros(2))

    def test_idempotent(self, rng):
        v = rng.standard_normal(30)
        once = self.project(v)
        np.testing.assert_array_equal(self.project(once), once)


class TestConjugateProx:
    def test_l1_conjugate_is_clipping(self):
        # prox of the inf-ball indicator clips to [-mu, mu]
        out = prox_conjugate(l1(1.0), np.array([0.3, -2.0]), 1.0)
        np.testing.assert_allclose(out, [0.3, -1.0], atol=1e-15)

    def test_zero_function_conjugate(self, rng):
        v = rng.standard_normal(5)
        np.testing.assert_allclose(prox_conjugate(zero_prox(), v, 2.0), np.zeros(5))

    @pytest.mark.parametrize("delta", [0.1, 1.0, 10.0])
    def test_moreau_identity_all_entries(self, rng, delta):
        for entry in CATALOG:
            term = entry.make()
            v = rng.standard_normal(12)
            lhs = prox_conjugate(term, v, delta) + delta * term.prox(v / delta, 1.0 / delta)
            np.testing.assert_allclose(lhs, v, atol=1e-12, err_msg=entry.name)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            prox_conjugate(l1(1.0), np.ones(2), 0.0)


def moreau_conjugate_prox(term, v, delta):
    """prox of delta*h* at v by the Moreau decomposition v - delta*prox_{h/delta}(v/delta)."""
    return v - delta * term.prox(v / delta, 1.0 / delta)


DECLARED = [e for e in CATALOG if e.make().conj_prox is not None]


class TestClosedFormConjugateProx:
    """Every closed-form conjugate prox a term declares equals the Moreau form."""

    def test_the_catalog_declares_them(self):
        assert [e.name for e in DECLARED] == ["l1", "l1_heavy", "half_sq_l2", "sq_l2", "zero"]

    @pytest.mark.parametrize("delta", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("entry", DECLARED, ids=lambda e: e.name)
    def test_matches_the_moreau_form(self, entry, delta, rng):
        term = entry.make()
        mu = entry.params.get("mu", 1.0)
        points = [3.0 * mu * rng.standard_normal(40) for _ in range(5)]
        # exactly on the boundary of l1's conjugate box, |v_i| = mu, and inside it
        points += [mu * np.array([1.0, -1.0, -1.0, 1.0]), np.zeros(3)]
        for v in points:
            closed = prox_conjugate(term, v, delta)
            # the Moreau form rounds v/delta, 1/delta*mu, the prox, delta*(...) and the
            # difference, each by eps relative to at most |v| + mu
            np.testing.assert_allclose(closed, moreau_conjugate_prox(term, v, delta), rtol=0,
                                       atol=8 * EPS * (np.abs(v).max() + mu),
                                       err_msg=f"{entry.name} delta={delta}")

    @pytest.mark.parametrize("delta", [1e-8, 1.0, 1e8])
    def test_l1_keeps_the_box_boundary_exactly(self, delta):
        v = 0.7 * np.array([1.0, -1.0, 3.0, -3.0])
        out = prox_conjugate(l1(0.7), v, delta)
        np.testing.assert_array_equal(out, 0.7 * np.array([1.0, -1.0, 1.0, -1.0]))
        assert l1(0.7).conjugate_value(out) == 0.0

    def test_a_term_with_another_prox_falls_back_to_moreau(self, rng):
        term = l1(1.0)
        calls = []
        other = replace(term, prox=lambda v, t: calls.append(t) or term.prox(v, t))
        assert other.conj_prox is None
        v = rng.standard_normal(6)
        np.testing.assert_allclose(prox_conjugate(other, v, 2.0), np.clip(v, -1.0, 1.0),
                                   atol=1e-15)
        assert calls == [0.5]
        again = replace(term, prox=with_conjugate(other.prox, term.conj_prox))
        prox_conjugate(again, v, 2.0)
        assert calls == [0.5]
        assert other.conj_prox is None  # the wrapped prox itself is unchanged


class TestOptimalityResidual:
    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_catalog_is_optimal(self, entry, rng):
        term = entry.make()
        for _ in range(5):
            v = 3.0 * rng.standard_normal(8)
            assert prox_optimality_residual(term, v, 0.7) <= 1e-8

    def test_detects_broken_prox(self, rng):
        good = l1(1.0)
        bad = ProxTerm(value=good.value, prox=lambda v, t: good.prox(v, t) + 0.1)
        v = rng.standard_normal(6)
        assert prox_optimality_residual(bad, v, 1.0) > 1e-4


class TestCatalogProperties:
    @pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
    def test_firmly_nonexpansive(self, entry, rng):
        term = entry.make()
        for _ in range(50):
            v1, v2 = rng.standard_normal(9), rng.standard_normal(9)
            t = float(rng.uniform(0.05, 5.0))
            p1, p2 = term.prox(v1, t), term.prox(v2, t)
            lhs = float((p1 - p2) @ (p1 - p2))
            rhs = float((p1 - p2) @ (v1 - v2))
            assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize(
        "entry", [e for e in CATALOG if e.finite_valued], ids=lambda e: e.name
    )
    def test_prox_tends_to_identity(self, entry, rng):
        term = entry.make()
        v = rng.standard_normal(10)
        out = term.prox(v, 1e-8)
        assert np.linalg.norm(out - v) <= 1e-6 * (1.0 + np.linalg.norm(v))

    def test_fenchel_young_sampled(self, rng):
        cases = [
            (l1(2.0), lambda: rng.standard_normal(6), lambda: rng.uniform(-2, 2, 6)),
            (squared_l2(1.5), lambda: rng.standard_normal(6),
             lambda: rng.standard_normal(6)),
            (orthant_indicator(), lambda: np.abs(rng.standard_normal(6)),
             lambda: -np.abs(rng.standard_normal(6))),
            (zero_prox(), lambda: rng.standard_normal(6), lambda: np.zeros(6)),
        ]
        for term, sample_x, sample_u in cases:
            for _ in range(40):
                x, u = sample_x(), sample_u()
                total = term.value(x) + term.conjugate_value(u)
                assert total >= float(x @ u) - 1e-9

    def test_indicator_values_are_exact(self):
        ind = orthant_indicator()
        assert ind.value(np.array([-1.0, 0.0])) == INF
        assert ind.value(np.array([0.0, 2.0])) == 0.0


def test_sq_l2_rejects_bad_steps():
    with pytest.raises(ValueError):
        prox_sq_l2(np.ones(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        prox_sq_l2(np.ones(2), 1.0, -2.0)
