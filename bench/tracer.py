"""In-memory spans recorded around calls into pdsplit, from outside the package.

The tracer never edits ``src/``.  It reaches the layers three ways, all
through the public API:

- ``wrap_spec`` wraps the oracles of the ``ProblemSpec`` the benchmark passes
  in (``f.value``, ``f.gradient``, ``g.prox``) and its ``LinearMap``.
- ``patched`` rebinds, for the duration of a ``with`` block, the public
  functions that ``algorithms``, ``problems`` and ``cli`` import by name, and
  the entries of ``algorithms.STEP_FUNCTIONS``.
- ``wrap`` times any other call the benchmark makes itself.

A span is (name, start, end, parent).  Spans live in flat typed arrays so a
run of millions of calls stays small, and are analysed and written out only
after the measured phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array

import numpy as np

from pdsplit import algorithms, cli, problems
from pdsplit.linops import LinearMap

# Oracle spans, and the metadata["oracle_calls"] counter of those solve() counts.
COUNTER_OF = {"core.f_grad": "f_grad", "prox.g_prox": "g_prox",
              "prox.hstar_prox": "h_prox", "linops.A": "a_apply",
              "linops.At": "a_adjoint"}
ORACLES = (*COUNTER_OF, "core.f_value")
# Oracle calls under these spans go through solve()'s own counting wrapper.
COUNTED_CONTEXTS = ("algorithms.step", "algorithms.init")
# Diagnostics that solve() evaluates on the caller's spec, so its counters miss them.
DIAGNOSTIC_CONTEXTS = ("metrics.residual", "core.objective", "metrics.lagrangian",
                       "metrics.gap_probe")
ROOTS = ("bench.setup", "bench.pass")


class Tracer:
    """Records nested spans; ``clock`` is injectable so tests can fix times."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (solve span index, metadata["oracle_calls"]) for every traced solve
        self.solves: list[tuple[int, dict]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(self.intern(name))
        try:
            yield idx
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


class TracedMap(LinearMap):
    """Times ``apply`` and ``adjoint_apply`` of an inner operator."""

    def __init__(self, inner: LinearMap, tracer: Tracer):
        super().__init__(inner.in_dim, inner.out_dim)
        self.inner = inner
        self.apply = tracer.wrap("linops.A", inner.apply)
        self.adjoint_apply = tracer.wrap("linops.At", inner.adjoint_apply)

    @property
    def is_identity(self) -> bool:
        return self.inner.is_identity


def wrap_spec(spec, tracer: Tracer):
    """The same problem with every hot oracle recorded as a span."""
    f = dataclasses.replace(spec.f, value=tracer.wrap("core.f_value", spec.f.value),
                            gradient=tracer.wrap("core.f_grad", spec.f.gradient))
    g = dataclasses.replace(spec.g, prox=tracer.wrap("prox.g_prox", spec.g.prox))
    return dataclasses.replace(spec, f=f, g=g, A=TracedMap(spec.A, tracer))


def traced_solve(tracer: Tracer, solve=algorithms.solve):
    """``solve`` as a span that also keeps the record's own oracle counters."""
    nid = tracer.intern("algorithms.solve")

    def run(*args, **kwargs):
        idx = tracer.begin(nid)
        try:
            record = solve(*args, **kwargs)
        finally:
            tracer.finish(idx)
        tracer.solves.append((idx, dict(record.metadata["oracle_calls"])))
        return record

    return run


def traced_generator(tracer: Tracer, gen=problems.gen_fused_lasso):
    """A generator span whose instance carries a traced spec."""
    timed = tracer.wrap("problems.generate", gen)

    def run(*args, **kwargs):
        inst = timed(*args, **kwargs)
        return dataclasses.replace(inst, spec=wrap_spec(inst.spec, tracer))

    return run


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind the names the package modules look up at call time; restore on exit."""
    solve = traced_solve(tracer)
    norm_est = tracer.wrap("linops.norm_est", algorithms.estimate_norm_AAt)
    validate = tracer.wrap("algorithms.validate", algorithms.validate_stepsizes)
    reference = tracer.wrap("problems.reference", problems.reference_solution)
    generate = traced_generator(tracer)
    rebinds = [
        (algorithms, "prox_conjugate", tracer.wrap("prox.hstar_prox", algorithms.prox_conjugate)),
        (algorithms, "fixed_point_residual",
         tracer.wrap("metrics.residual", algorithms.fixed_point_residual)),
        (algorithms, "lagrangian", tracer.wrap("metrics.lagrangian", algorithms.lagrangian)),
        (algorithms, "evaluate_objective",
         tracer.wrap("core.objective", algorithms.evaluate_objective)),
        (algorithms, "combined_norm_sq",
         tracer.wrap("metrics.gap_probe", algorithms.combined_norm_sq)),
        (algorithms, "fixed_point_from_primal_dual",
         tracer.wrap("metrics.gap_probe", algorithms.fixed_point_from_primal_dual)),
        (algorithms, "initial_state", tracer.wrap("algorithms.init", algorithms.initial_state)),
        (algorithms, "estimate_norm_AAt", norm_est),
        (algorithms, "validate_stepsizes", validate),
        (problems, "estimate_norm_AAt", norm_est),
        (problems, "solve", solve),
        (cli, "solve", solve),
        (cli, "validate_stepsizes", validate),
        (cli, "gen_fused_lasso", generate),
        (cli, "reference_solution", reference),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in rebinds]
    steps = dict(algorithms.STEP_FUNCTIONS)
    try:
        for mod, name, fn in rebinds:
            setattr(mod, name, fn)
        for alg, fn in steps.items():
            algorithms.STEP_FUNCTIONS[alg] = tracer.wrap("algorithms.step", fn)
        yield {"solve": solve, "generate": generate, "reference": reference}
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        algorithms.STEP_FUNCTIONS.update(steps)


# --- analysis ----------------------------------------------------------------


def nearest(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each span, the index of the closest span at or above it where
    ``mask`` holds (the span itself included), or -1 if there is none."""
    out = np.where(mask, np.arange(len(parent), dtype=parent.dtype), parent)
    while True:
        live = np.flatnonzero(out >= 0)
        jump = live[~mask[out[live]]]
        if jump.size == 0:
            return out
        out[jump] = parent[out[jump]]


def sum_by(owner: np.ndarray, sel: np.ndarray, targets, weights=None) -> np.ndarray:
    """Per span in the sorted index list ``targets``: how many selected spans
    (or the sum of their ``weights``) have it as ``owner``."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size == 0:
        return np.zeros(0)
    own = owner[sel]
    pos = np.minimum(np.searchsorted(targets, own), targets.size - 1)
    hit = targets[pos] == own
    w = None if weights is None else weights[sel][hit]
    return np.bincount(pos[hit], w, minlength=targets.size)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


class SpanTable:
    """Spans as arrays plus the derived per-span facts the metrics need."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.nid = a["name_id"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.self_t = self_times(self.parent, self.dur)
        self.root = nearest(self.parent, self.mask(*ROOTS))

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.nid, [self.ids[n] for n in names if n in self.ids])

    def owned_by(self, owner: np.ndarray, *names: str) -> np.ndarray:
        """Spans whose ``owner`` (an index per span, -1 for none) is named in ``names``."""
        out = owner >= 0
        out[out] = self.mask(*names)[owner[out]]
        return out


def cross_check(table: SpanTable, solves: list[tuple[int, dict]]) -> tuple[list[str], dict]:
    """Reconcile traced oracle calls with each solve's ``oracle_calls``.

    Every oracle call inside a solve must sit under a step/init span (and then
    match the solver's counter exactly) or under a diagnostic span.  The A^T
    calls under residual spans must number one per residual.  Returns failure
    messages and, per solve span, its A^T calls under diagnostic spans.
    """
    ctx = nearest(table.parent, table.mask(*COUNTED_CONTEXTS, *DIAGNOSTIC_CONTEXTS))
    counted = table.owned_by(ctx, *COUNTED_CONTEXTS)
    diag = table.owned_by(ctx, *DIAGNOSTIC_CONTEXTS)
    oracle = table.mask(*ORACLES)
    order = sorted(idx for idx, _ in solves)
    at = {idx: i for i, idx in enumerate(order)}
    solve_of = nearest(table.parent, table.mask("algorithms.solve"))

    def per_solve(sel):
        return sum_by(solve_of, sel, order)

    stray = per_solve(oracle & ~counted & ~diag)
    mine = {name: per_solve(counted & table.mask(name)) for name in COUNTER_OF}
    uncounted_at = per_solve(diag & table.mask("linops.At"))
    residuals = per_solve(table.mask("metrics.residual"))
    at_in_residual = per_solve(table.owned_by(ctx, "metrics.residual") & table.mask("linops.At"))
    failures = []
    for idx, meta in solves:
        i = at[idx]
        if stray[i]:
            failures.append(f"solve span {idx}: {stray[i]} oracle calls outside any "
                            "step or diagnostic span")
        for name, counter in COUNTER_OF.items():
            if mine[name][i] != meta[counter]:
                failures.append(f"solve span {idx}: {counter} traced {mine[name][i]} "
                                f"but oracle_calls says {meta[counter]}")
        if at_in_residual[i] != residuals[i]:
            failures.append(f"solve span {idx}: {at_in_residual[i]} A^T calls in "
                            f"{residuals[i]} residual evaluations, expected one each")
    return failures, {idx: int(uncounted_at[at[idx]]) for idx in order}
