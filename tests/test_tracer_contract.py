"""The benchmark tracer's contract with the package.

``bench/tracer.py::patched`` rebinds names in ``algorithms``, ``problems`` and
``cli`` and rewraps every entry of ``algorithms.STEP_FUNCTIONS``; its
cross-check then requires every oracle call of a solve to sit under a step,
start or diagnostic span, with the step and start calls equal to the solve's
declared ``oracle_calls``.  A traced ``compare`` run checks both halves, and
a traced thinned gap solve checks that each row's f value sits in its
objective's span.
"""

from pathlib import Path

import numpy as np
import pytest

from pdsplit import cli
from pdsplit.algorithms import StepSizes, solve
from pdsplit.problems import CACHE_ENV_VAR

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    return tracer


def test_traced_compare_passes_the_cross_check(tracer, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    # one process, so every cell runs where the tracer records it
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    trace = tracer.Tracer()
    with tracer.patched(trace):
        status = cli.main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                           "--seed", "7", "--algorithms", "pd3o,pdfp,condat-vu,afba",
                           "--gamma-factors", "1.0,1.5", "--lambdas", "0.125",
                           "--max-iters", "200", "--reference-iters", "300",
                           "--output", str(tmp_path / "sweep.csv")])
    assert status == cli.EXIT_OK, capsys.readouterr().err
    # the reference and the six admissible cells (condat-vu and afba skip gf 1.5)
    assert len(trace.solves) == 7
    table = tracer.SpanTable(trace)
    steps = np.flatnonzero(table.mask("algorithms.step"))
    assert steps.size == sum(meta["h_prox"] for _, meta in trace.solves) > 0
    # the step calls the h*-prox by the name the tracer rebinds, closed form or
    # not: one prox.hstar_prox span under each step span
    np.testing.assert_array_equal(np.sort(table.parent[table.mask("prox.hstar_prox")]), steps)
    failures, _ = tracer.cross_check(table, trace.solves)
    assert failures == []



def test_a_traced_thinned_gap_solve_passes_the_cross_check(tracer, small_fused_lasso,
                                                           small_reference):
    inst, ref = small_fused_lasso, small_reference
    steps = StepSizes.from_lambda(inst.beta, 0.125)
    residuals = []
    solve(inst.spec, "pd3o", steps, max_iters=60, norm_AAt=inst.norm_AAt,
          hooks=(lambda k, st, nxt, res: residuals.append(res),))
    # a residual stop past rows 0-10, on an iteration log_every = 7 does not log
    stop = next(k for k in range(20, 60) if k % 7 and residuals[k] < min(residuals[:k]))
    trace = tracer.Tracer()
    with tracer.patched(trace) as traced:
        rec = traced["solve"](tracer.wrap_spec(inst.spec, trace), "pd3o", steps, max_iters=60,
                              residual_tol=residuals[stop], norm_AAt=inst.norm_AAt,
                              reference=(ref.x, ref.s), log_every=7)
    assert rec.metadata["stop_reason"] == "converged"
    assert [row.iter for row in rec.rows] == [k for k in range(stop)
                                              if k <= 10 or k % 7 == 0] + [stop]
    assert all(row.gap is not None for row in rec.rows)
    table = tracer.SpanTable(trace)
    failures, _ = tracer.cross_check(table, trace.solves)
    assert failures == []
    # f's value: once per row and once for the final objective, each inside the
    # objective's span, and f(x*) once, inside the gap's
    parents = table.nid[table.parent[table.mask("core.f_value")]]
    names = [trace.names[i] for i in parents]
    assert sorted(names) == ["core.objective"] * (len(rec.rows) + 1) + ["metrics.lagrangian"]
