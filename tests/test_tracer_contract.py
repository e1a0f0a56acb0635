"""The benchmark tracer's contract with the package.

``bench/tracer.py::patched`` rebinds names in ``algorithms``, ``problems`` and
``cli`` and rewraps every entry of ``algorithms.STEP_FUNCTIONS``; its
cross-check then requires every oracle call of a solve to sit under a step,
start or diagnostic span, with the step and start calls equal to the solve's
declared ``oracle_calls``.  A traced ``compare`` run checks both halves.
"""

from pathlib import Path

import pytest

from pdsplit import cli
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
    assert table.mask("algorithms.step").sum() > 0
    failures, _ = tracer.cross_check(table, trace.solves)
    assert failures == []
