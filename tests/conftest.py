import os
from dataclasses import replace

import numpy as np
import pytest

from pdsplit.linops import LinearMap
from pdsplit.problems import (
    gen_elastic_net_strongly_convex,
    gen_fused_lasso,
    reference_solution,
)
from pdsplit.prox import with_conjugate


@pytest.fixture(scope="session", autouse=True)
def session_cache(tmp_path_factory):
    """Point the reference cache at a session-scoped temp directory."""
    cache = tmp_path_factory.mktemp("pdsplit-cache")
    old = os.environ.get("PDSPLIT_CACHE_DIR")
    os.environ["PDSPLIT_CACHE_DIR"] = str(cache)
    yield cache
    if old is None:
        os.environ.pop("PDSPLIT_CACHE_DIR", None)
    else:
        os.environ["PDSPLIT_CACHE_DIR"] = old


# Desk-scale benchmark: the size used by the residual/rate/gap criteria.
@pytest.fixture(scope="session")
def desk_fused_lasso():
    return gen_fused_lasso(n=100, p=500, seed=7)


@pytest.fixture(scope="session")
def desk_reference(desk_fused_lasso):
    return reference_solution(desk_fused_lasso, iters=20000)


# Wide instance (n:p = 1:20): the near-linear speedup in gamma needs p >> n;
# at squarer aspect ratios the dual block dominates and the trend reverses.
@pytest.fixture(scope="session")
def sweep_fused_lasso():
    return gen_fused_lasso(n=100, p=2000, seed=7)


@pytest.fixture(scope="session")
def sweep_reference(sweep_fused_lasso):
    return reference_solution(sweep_fused_lasso, iters=20000)


# Small instance for cheap cross-algorithm module tests.
@pytest.fixture(scope="session")
def small_fused_lasso():
    return gen_fused_lasso(n=40, p=120, seed=3)


@pytest.fixture(scope="session")
def small_reference(small_fused_lasso):
    return reference_solution(small_fused_lasso, iters=20000)


@pytest.fixture(scope="session")
def ridge_instance():
    # mu1 = 0 keeps g smooth (L_g = 0) so the linear-rate factor applies
    return gen_elastic_net_strongly_convex(n=50, p=50, seed=3, mu1=0.0, mu2=0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


class _CountedMap(LinearMap):
    """Counts ``apply`` and ``adjoint_apply`` calls on an inner operator."""

    def __init__(self, inner, counts):
        super().__init__(inner.in_dim, inner.out_dim)
        self.inner, self.counts = inner, counts

    @property
    def is_identity(self):
        return self.inner.is_identity

    def norm_AAt_bound(self):
        return self.inner.norm_AAt_bound()

    def _apply(self, x):
        self.counts["a_apply"] += 1
        return self.inner.apply(x)

    def _adjoint(self, s):
        self.counts["a_adjoint"] += 1
        return self.inner.adjoint_apply(s)


def _counting_spec(spec):
    """``spec`` with grad f, the g-, h- and grad l* oracles, A and A^T counted.

    A call of h's closed-form conjugate prox counts as an h-prox call, like a
    call of h's prox through the Moreau form.  Returns the wrapped spec and
    its live counts, keyed as ``metadata["oracle_calls"]``.
    """
    counts = dict.fromkeys(("f_grad", "g_prox", "h_prox", "lstar_grad",
                            "a_apply", "a_adjoint"), 0)

    def count(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    h_prox = count("h_prox", spec.h.prox)
    if spec.h.conj_prox is not None:
        h_prox = with_conjugate(h_prox, count("h_prox", spec.h.conj_prox))
    wrapped = replace(
        spec,
        f=replace(spec.f, gradient=count("f_grad", spec.f.gradient)),
        g=replace(spec.g, prox=count("g_prox", spec.g.prox)),
        h=replace(spec.h, prox=h_prox),
        lstar=replace(spec.lstar, gradient=count("lstar_grad", spec.lstar.gradient)),
        A=_CountedMap(spec.A, counts),
    )
    return wrapped, counts


@pytest.fixture()
def counting_spec():
    """The oracle-counting wrapper: counting_spec(spec) -> (spec, counts)."""
    return _counting_spec
