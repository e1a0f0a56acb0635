"""The three benchmark workloads and the metrics computed from one run.

Every workload is single-process and closed-loop: one client, and each solve
(or ``compare`` call) starts only after the previous one has returned.  A run
sets the workload up ``SETUP_REPEATS`` times, then repeats passes over it
until ``seconds`` have elapsed, and gates every solve or cell for correctness.

The instance is the seed-7 fused lasso of each size (the one the ROADMAP
timings were taken on).  The run seed draws the start point of every solve
(desk, paper) and the order of the grid (sweep).  Iterations to tolerance
differ by up to 6x between fused-lasso seeds at 100x2000, so a run seed that
picked the instance would make time-to-tolerance a property of the seed.

- desk-schemes: five schemes at n=100, p=500, ``log_every=0``.  The oracles
  cost about a fifth of an iteration, so this measures per-call checks and
  loop overhead and bypasses BLAS and logging.
- sweep-compare: ``cli.main(["compare", ...])`` at n=100, p=2000 with the CLI
  default ``log_every=1``.  Logging, gap evaluation, CSV output and the
  reference-cache read dominate; the one workload a logging fix or a batched
  ``compare`` moves.
- paper-reference: one pd3o solve at n=500, p=10000, ``log_every=0``.  The
  two dense matvecs inside ``grad f`` dominate: the oracle-floor and BLAS
  workload, whose set-up is mostly power iteration on ``A``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pdsplit import algorithms, cli, gen_fused_lasso, reference_solution, solve
from pdsplit.algorithms import StepSizes, fixed_point_residuals
from pdsplit.metrics import CSV_HEADER
from pdsplit.problems import CACHE_ENV_VAR

import tracer as tr

SETUP_REPEATS = 3
INSTANCE_SEED = 7
# Start points z0 ~ N(0, START_SCALE^2 I) move iterations to tolerance by about 1%.
START_SCALE = 0.1
LAMBDA = 1.0 / 8.0
# Iterations of the long-run reference; its objective agrees with a 20000-iteration
# one to 1e-13 relative on both reference workloads.
REFERENCE_ITERS = 5000
# Relative distance of a converged solve's objective from the reference objective.
OBJECTIVE_RTOL = 1e-5
TAIL_LADDER = (99.9, 99.0, 90.0)  # below all of them, the median

DESK_ALGORITHMS = ("pd3o", "pd3o-reformulated", "pdfp", "condat-vu", "afba")
DESK_TOL = 1e-6
DESK_MAX_ITERS = 20_000

SWEEP_ALGORITHMS = ("pd3o", "pdfp", "condat-vu", "afba")
SWEEP_GAMMA_FACTORS = ("1.0", "1.5", "1.99")
SWEEP_TOL = 1e-6
# At lambda = 1/8 condat-vu and afba admit only gamma = beta, so 4 of 12 cells are skipped.
SWEEP_CELLS = 8

PAPER_TOL = 3.5e-3  # seed 7 reaches it in about 2,000 iterations
PAPER_MAX_ITERS = 8_000
PAPER_GAMMA_FACTOR = 1.9


@dataclass
class Api:
    """The package entry points a workload calls: plain, or traced by ``tracer.patched``."""

    generate: object = gen_fused_lasso
    reference: object = reference_solution
    solve: object = solve
    cli_main: object = cli.main


@dataclass
class PassResult:
    samples: list = field(default_factory=list)  # per-iteration µs, one array per solve
    attempted: int = 0
    failed: set = field(default_factory=set)     # ids of solves or cells that failed
    notes: list = field(default_factory=list)    # why they failed
    iterations: int = 0
    rows: int = 0
    csv_bytes: int = 0
    fingerprint: list = field(default_factory=list)  # (id, iterations, objective, counters)

    def fail(self, unit: str, why: str) -> None:
        self.failed.add(unit)
        self.notes.append(f"{unit}: {why}")


def _stamp_hook(stamps: array):
    append, clock = stamps.append, time.perf_counter
    return lambda k, state, nxt, res: append(clock())


def _check_objective(res: PassResult, unit: str, objective: float, reference: float) -> None:
    if not abs(objective - reference) <= OBJECTIVE_RTOL * abs(reference):
        res.fail(unit, f"objective {objective!r} is not within {OBJECTIVE_RTOL} "
                       f"(relative) of the reference {reference!r}")


def _check_converged(res: PassResult, unit: str, meta: dict, tol: float) -> None:
    if not (meta["converged"] and meta["final_residual"] <= tol):
        res.fail(unit, f"stopped after {meta['iterations']} iterations at residual "
                       f"{meta['final_residual']!r}, not at the tolerance {tol}")


def _solve_pass(res: PassResult, api: Api, inst, z0, algorithm: str, steps, tol, max_iters):
    stamps = array("d")
    init = algorithms.initial_state(inst.spec, steps, algorithm, z0=z0)
    record = api.solve(inst.spec, algorithm, steps, init=init, max_iters=max_iters,
                       residual_tol=tol, norm_AAt=inst.norm_AAt, log_every=0,
                       hooks=(_stamp_hook(stamps),))
    meta = record.metadata
    res.attempted += 1
    res.samples.append(np.diff(np.frombuffer(stamps)) * 1e6)
    res.iterations += meta["iterations"]
    res.rows += len(record.rows)
    res.fingerprint.append((algorithm, meta["iterations"], meta["final_objective"],
                            tuple(sorted(meta["oracle_calls"].items()))))
    _check_converged(res, algorithm, meta, tol)
    return record


class DeskSchemes:
    name = "desk-schemes"
    n, p = 100, 500

    def setup(self, seed: int, instance_seed: int, api: Api, workdir: Path):
        inst = api.generate(self.n, self.p, instance_seed)
        ref = api.reference(inst, REFERENCE_ITERS, cache_dir=workdir / "cache")
        rng = np.random.default_rng(seed)
        return inst, ref, START_SCALE * rng.standard_normal(self.p), rng.permutation(DESK_ALGORITHMS)

    def run_pass(self, ctx, api: Api) -> PassResult:
        inst, ref, z0, order = ctx
        res = PassResult()
        steps = StepSizes.from_lambda(1.0 * inst.beta, LAMBDA)
        for alg in order:
            record = _solve_pass(res, api, inst, z0, str(alg), steps, DESK_TOL, DESK_MAX_ITERS)
            _check_objective(res, alg, record.metadata["final_objective"], ref.objective)
        return res


class PaperReference:
    name = "paper-reference"
    n, p = 500, 10000

    def setup(self, seed: int, instance_seed: int, api: Api, workdir: Path):
        inst = api.generate(self.n, self.p, instance_seed)
        return inst, START_SCALE * np.random.default_rng(seed).standard_normal(self.p)

    def run_pass(self, ctx, api: Api) -> PassResult:
        inst, z0 = ctx
        res = PassResult()
        steps = StepSizes.from_lambda(PAPER_GAMMA_FACTOR * inst.beta, LAMBDA)
        record = _solve_pass(res, api, inst, z0, "pd3o", steps, PAPER_TOL, PAPER_MAX_ITERS)
        state = record.final_state
        fp = fixed_point_residuals(inst.spec, steps, state.z, state.s)
        # The stop rule bounds the step in the metric M >= (gamma/delta)(1 - t) I,
        # t = gamma*delta*||DD^T||, so the dual residual scales like this bound.
        t = steps.lam * inst.norm_AAt
        dual_bound = PAPER_TOL / math.sqrt(steps.gamma / steps.delta * (1.0 - t))
        if not (fp.primal <= 2.0 * PAPER_TOL and fp.dual <= dual_bound):
            res.fail("pd3o", f"fixed-point residuals primal={fp.primal!r} dual={fp.dual!r} "
                             f"exceed {2.0 * PAPER_TOL} and {dual_bound!r}")
        return res


class SweepCompare:
    name = "sweep-compare"
    n, p = 100, 2000

    def setup(self, seed: int, instance_seed: int, api: Api, workdir: Path):
        inst = api.generate(self.n, self.p, instance_seed)
        cache = workdir / "cache"
        ref = api.reference(inst, REFERENCE_ITERS, cache_dir=cache)
        rng = np.random.default_rng(seed)
        algs = ",".join(rng.permutation(SWEEP_ALGORITHMS))
        factors = ",".join(rng.permutation(SWEEP_GAMMA_FACTORS))
        argv = ["compare", "--problem", "fused-lasso", "--n", str(self.n), "--p", str(self.p),
                "--seed", str(instance_seed), "--algorithms", algs,
                "--gamma-factors", factors, "--lambdas", str(LAMBDA),
                "--tol", str(SWEEP_TOL), "--reference-iters", str(REFERENCE_ITERS),
                "--output", str(workdir / "sweep.csv")]
        return inst, ref, cache, argv

    def run_pass(self, ctx, api: Api) -> PassResult:
        inst, ref, cache, argv = ctx
        res = PassResult(attempted=SWEEP_CELLS)
        out, err = io.StringIO(), io.StringIO()
        previous = os.environ.get(CACHE_ENV_VAR)
        os.environ[CACHE_ENV_VAR] = str(cache)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = api.cli_main(argv)
        finally:
            if previous is None:
                del os.environ[CACHE_ENV_VAR]
            else:
                os.environ[CACHE_ENV_VAR] = previous
        merged = Path(argv[-1])
        manifest_path = merged.with_suffix(merged.suffix + ".manifest.json")
        if status != 0 or not manifest_path.is_file():
            for i in range(SWEEP_CELLS):
                res.fail(f"cell{i}", f"compare exited {status}: {err.getvalue().strip()}")
            return res
        manifest = json.loads(manifest_path.read_text())
        series = manifest["series"]
        if len(series) != SWEEP_CELLS or len(manifest["skipped"]) != 12 - SWEEP_CELLS:
            for i in range(SWEEP_CELLS):
                res.fail(f"cell{i}", f"{len(series)} cells ran and {len(manifest['skipped'])} "
                                     f"were skipped, expected {SWEEP_CELLS} and {12 - SWEEP_CELLS}")
        if manifest["reference_objective"] != ref.objective:
            res.fail("reference", "compare read another reference than set-up built")
        header = ["series_id", *CSV_HEADER]
        wall_col = header.index("wall_time_s")
        for cell in series:
            sid, iters = cell["series_id"], cell["iterations"]
            res.iterations += iters
            res.fingerprint.append((sid, iters, cell["final_objective"]))
            meta = {"converged": cell["final_residual"] <= SWEEP_TOL, **cell}
            _check_converged(res, sid, meta, SWEEP_TOL)
            _check_objective(res, sid, cell["final_objective"], ref.objective)
            path = Path(cell["csv"])
            res.csv_bytes += path.stat().st_size
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != header or len(rows) - 1 != iters or any(r[0] != sid for r in rows[1:]):
                res.fail(sid, f"{path.name} does not have the header {header} and "
                              f"{iters} rows of its series")
                continue
            wall = np.array([float(r[wall_col]) for r in rows[1:]])
            res.samples.append(np.diff(wall) * 1e6)
        res.csv_bytes += merged.stat().st_size
        with merged.open(newline="") as fh:
            merged_rows = list(csv.reader(fh))
        res.rows = len(merged_rows) - 1
        if merged_rows[0] != header or res.rows != res.iterations:
            res.fail("merged", f"{merged.name} has {res.rows} rows for {res.iterations} iterations")
        return res


WORKLOADS = {w.name: w for w in (DeskSchemes(), SweepCompare(), PaperReference())}


# --- one run ------------------------------------------------------------------


def tail_percentile(n_samples: int) -> float:
    """The highest percentile of the ladder with at least ten of ``n_samples`` beyond it."""
    for q in TAIL_LADDER:
        if n_samples * (1000 - round(q * 10)) >= 10_000:  # in permille, exactly
            return q
    return 50.0


@dataclass
class RunResult:
    metrics: dict       # name -> (value, unit)
    notes: list         # human-readable lines
    attempted: int
    failed: int
    fingerprint: list   # of the first pass


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        blas_threads: int, instance_seed: int = INSTANCE_SEED) -> RunResult:
    wl = WORKLOADS[workload]
    tracer = tr.Tracer() if trace else None
    patches = tr.patched(tracer) if trace else contextlib.nullcontext(None)
    root = tracer.span if trace else (lambda name: contextlib.nullcontext())
    setup_s, pass_s, passes = [], [], []
    with patches as traced:
        api = Api() if traced is None else Api(
            generate=traced["generate"], reference=traced["reference"],
            solve=traced["solve"], cli_main=tracer.wrap("cli.main", cli.main))
        for i in range(SETUP_REPEATS):
            setup_dir = workdir / f"setup{i}"
            t0 = time.perf_counter()
            with root("bench.setup"):
                ctx = wl.setup(seed, instance_seed, api, setup_dir)
            setup_s.append(time.perf_counter() - t0)
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            with root("bench.pass"):
                passes.append(wl.run_pass(ctx, api))
            pass_s.append(time.perf_counter() - t0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(min(len(p.failed), p.attempted) for p in passes)
    notes = [n for p in passes for n in p.notes]
    for i, p in enumerate(passes[1:], start=2):
        if p.fingerprint != passes[0].fingerprint:
            failed += 1
            notes.append(f"pass {i} differs from pass 1: {p.fingerprint} != {passes[0].fingerprint}")
    per_solve = [s for p in passes for s in p.samples if s.size] or [np.zeros(1)]
    samples = np.concatenate(per_solve)
    # The tail is taken within each solve and its median reported: a burst of
    # slow iterations from outside the process then moves one solve, not the run.
    q = tail_percentile(min(s.size for s in per_solve))
    tail = float(np.median([np.percentile(s, q) for s in per_solve]))
    notes.append(f"iter_us: {samples.size} per-iteration samples from {len(per_solve)} solves "
                 f"in {len(passes)} passes; iter_us.tail is the median over solves of p{q:g}, "
                 "the highest percentile with ten samples beyond it in every solve")
    p50 = float(np.median(samples))
    if trace:
        table = tr.SpanTable(tracer)
        failures, uncounted_at = tr.cross_check(table, tracer.solves)
        failed += len(failures)
        notes.extend(failures)
        metrics = layer_metrics(table, tracer, passes, uncounted_at, wl, ctx, p50)
        out = workdir.parent / f"spans-{workload}.npz"
        np.savez(out, **tracer.arrays())
        notes.append(f"wrote {len(tracer.start)} spans to {out}")
    else:
        metrics = {
            "setup_s": (float(np.median(setup_s)), "s"),
            "time_to_tol_s": (float(np.median(pass_s)), "s"),
            "iter_us.p50": (p50, "us"),
            "iter_us.tail": (tail, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = min(failed, attempted)
    notes.append(f"setup runs {SETUP_REPEATS}, BLAS threads {blas_threads}, "
                 f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    return RunResult(metrics, notes, attempted, failed, passes[0].fingerprint)


def _median_per_root(table: tr.SpanTable, name: str, root: str) -> float:
    """Median over the ``root`` spans of the time spent in ``name`` spans inside each."""
    per_root = tr.sum_by(table.root, table.mask(name), np.flatnonzero(table.mask(root)), table.dur)
    return float(np.median(per_root))


def _kernel_us(fn, *args) -> float:
    """Median wall time of ``fn(*args)`` over at least 20 calls and 0.3 s."""
    times = []
    t_end = time.perf_counter() + 0.3
    while len(times) < 20 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def layer_metrics(table, tracer, passes, uncounted_at, wl, ctx, p50) -> dict:
    pass_roots = np.flatnonzero(table.mask("bench.pass"))
    in_pass = table.owned_by(table.root, "bench.pass")
    first = table.root == pass_roots[0]
    pass_time = float(table.dur[pass_roots].sum())
    first_solves = [idx for idx, _ in tracer.solves if table.root[idx] == pass_roots[0]]

    def calls(name):
        return float(np.count_nonzero(table.mask(name) & first)), "count"

    def share(name):
        return float(table.self_t[table.mask(name) & in_pass].sum()) / pass_time, "ratio"

    grad = table.mask("core.f_grad") & in_pass
    grad_us = float(table.dur[grad].mean()) * 1e6
    first_pass = passes[0]
    at_calls = calls("linops.At")[0]
    refs = np.flatnonzero(table.mask("problems.reference") & in_pass)
    solve_parents = table.parent[table.mask("algorithms.solve")]
    misses = int(np.count_nonzero(np.isin(refs, solve_parents)))
    inst = ctx[0]
    x = np.random.default_rng(0).standard_normal(wl.p)
    raw_grad = getattr(inst.spec.f.gradient, "__wrapped__", inst.spec.f.gradient)
    np_ = wl.n * wl.p
    return {
        "algorithms.step.self_share": share("algorithms.step"),
        "algorithms.solve.self_share": share("algorithms.solve"),
        "algorithms.iters_to_tol": (float(first_pass.iterations), "count"),
        "algorithms.validate.calls": calls("algorithms.validate"),
        "core.f_grad.calls": calls("core.f_grad"),
        "core.f_grad.us_per_call": (grad_us, "us"),
        "core.f_grad.share": share("core.f_grad"),
        "core.f_value.calls": calls("core.f_value"),
        "core.f_value.share": share("core.f_value"),
        "core.objective.calls": calls("core.objective"),
        "core.objective.share": share("core.objective"),
        "prox.g_prox.calls": calls("prox.g_prox"),
        "prox.g_prox.share": share("prox.g_prox"),
        "prox.hstar_prox.calls": calls("prox.hstar_prox"),
        "prox.hstar_prox.share": share("prox.hstar_prox"),
        "linops.A.calls": calls("linops.A"),
        "linops.A.share": share("linops.A"),
        "linops.At.calls": (at_calls, "count"),
        "linops.At.share": share("linops.At"),
        "linops.At.per_iter": (at_calls / first_pass.iterations, "calls/iter"),
        "linops.At.uncounted": (float(sum(uncounted_at[i] for i in first_solves)), "count"),
        "linops.norm_est.s": (_median_per_root(table, "linops.norm_est", "bench.setup"), "s"),
        "metrics.residual.calls": calls("metrics.residual"),
        "metrics.residual.share": share("metrics.residual"),
        "metrics.lagrangian.calls": calls("metrics.lagrangian"),
        "metrics.lagrangian.share": share("metrics.lagrangian"),
        "metrics.rows": (float(first_pass.rows), "count"),
        "problems.generate.s": (_median_per_root(table, "problems.generate", "bench.setup"), "s"),
        "problems.reference.s": (_median_per_root(table, "problems.reference", "bench.setup"), "s"),
        "problems.reference.hit_ratio": ((len(refs) - misses) / len(refs) if len(refs) else 0.0,
                                         "ratio"),
        "cli.self_share": share("cli.main"),
        "cli.csv_bytes": (float(first_pass.csv_bytes), "bytes"),
        "core.f_grad.gflops": (4.0 * np_ / grad_us / 1e3, "GFLOP/s"),
        "core.f_grad.gbytes": (16.0 * np_ / grad_us / 1e3, "GB/s"),
        "floor_ratio": (p50 / grad_us, "ratio"),
        "kernel.matvec_us": (_kernel_us(np.dot, inst.A, x), "us"),
        "kernel.f_grad_us": (_kernel_us(raw_grad, x), "us"),
        "trace.iter_us.p50": (p50, "us"),
    }
