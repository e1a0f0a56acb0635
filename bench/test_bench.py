"""Self-tests of the benchmark: span arithmetic, repeatability, the gate.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__
    t = tr.Tracer(clock=clock)
    with t.span("bench.pass"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    table = tr.SpanTable(t)
    assert list(table.dur) == [10.0, 3.0, 1.0, 4.0]
    assert list(table.self_t) == [3.0, 2.0, 1.0, 4.0]
    assert list(table.root) == [0, 0, 0, 0]
    assert list(tr.nearest(table.parent, table.mask("a"))) == [-1, 1, 1, -1]
    assert table.owned_by(table.root, "bench.pass").all()
    assert not table.owned_by(table.root, "bench.setup").any()


def test_cross_check_reconciles_counters_and_flags_strays():
    t = tr.Tracer(clock=itertools.count().__next__)
    with t.span("bench.pass"), t.span("algorithms.solve") as solve:
        with t.span("algorithms.step"), t.span("linops.At"):
            pass
        with t.span("metrics.residual"), t.span("linops.At"):
            pass
    meta = {"f_grad": 0, "g_prox": 0, "h_prox": 0, "a_apply": 0, "a_adjoint": 1}
    table = tr.SpanTable(t)
    assert tr.cross_check(table, [(solve, meta)]) == ([], {solve: 1})
    failures, _ = tr.cross_check(table, [(solve, dict(meta, a_adjoint=2))])
    assert len(failures) == 1 and "a_adjoint traced 1" in failures[0]
    t = tr.Tracer(clock=itertools.count().__next__)
    with t.span("algorithms.solve") as solve, t.span("linops.A"):
        pass
    failures, _ = tr.cross_check(tr.SpanTable(t), [(solve, dict(meta, a_adjoint=0))])
    assert len(failures) == 1 and "outside any step or diagnostic" in failures[0]


def _desk(tmp_path, name, seed, trace, instance_seed=workloads.INSTANCE_SEED):
    return workloads.run("desk-schemes", seed, 0.0, trace, tmp_path / name, 1,
                         instance_seed=instance_seed)


def test_same_seed_gives_identical_iterations_objectives_and_calls(tmp_path):
    first = _desk(tmp_path, "one", 7, trace=True)
    second = _desk(tmp_path, "two", 7, trace=True)
    assert first.failed == second.failed == 0, first.notes + second.notes
    assert first.fingerprint == second.fingerprint
    counts = [k for k, (_, unit) in first.metrics.items() if unit == "count"]
    assert "algorithms.iters_to_tol" in counts and "linops.At.uncounted" in counts
    for key in counts:
        assert first.metrics[key] == second.metrics[key], key
    # one uncounted A^T per iteration, from the residual's m_norm_sq
    assert (first.metrics["linops.At.uncounted"][0]
            == first.metrics["algorithms.iters_to_tol"][0])


def test_non_default_seeds_pass_the_gate(tmp_path):
    for workload in workloads.WORKLOADS:
        result = workloads.run(workload, 12345, 0.0, False, tmp_path / workload, 1,
                               instance_seed=11)
        assert result.attempted > 0
        assert result.failed == 0, result.notes


def test_gate_rejects_an_unconverged_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DESK_MAX_ITERS", 50)
    result = _desk(tmp_path, "short", 7, trace=False)
    assert result.failed == result.attempted == 5
    assert sum("not at the tolerance" in n for n in result.notes) == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(10_000) == 99.9
    assert workloads.tail_percentile(9_999) == 99.0
    assert workloads.tail_percentile(100) == 90.0
    for n in (10_000, 1000, 100, 20):
        q = workloads.tail_percentile(n)
        assert n * (1 - q / 100) >= 10 - 1e-9
        assert np.isfinite(q)
