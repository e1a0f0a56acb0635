"""Command-line front end: instance generation, validation, runs, and sweeps.

    pdsplit validate --problem fused-lasso --n 100 --p 500 --gamma-factor 1.5 --lambda 0.125
    pdsplit run      --problem toy-quadratic --n 20 --algorithm pd3o --output toy.csv
    pdsplit compare  --algorithms pd3o,pdfp,condat-vu,afba --gamma-factors 1.0,1.5,1.99 \
                     --lambdas 0.125 --output sweep.csv

Parameters are entered as (gamma-factor, lambda): the primal step is
gamma = factor * beta and the dual step is derived as delta = lambda / gamma,
so a sweep over step sizes is a plain grid over those two numbers.  compare
runs the grid's cells on the calling process and up to one helper process per
further usable CPU, and writes every output in grid order.  Exit codes:
0 success, 1 parse error, 2 inadmissible step sizes or algorithm/problem
combination, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import pickle
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from .algorithms import (
    AlgorithmId,
    StepSizes,
    check_theta,
    solve,
    validate_stepsizes,
)
from .exceptions import (
    AlgorithmMisuseError,
    ConfigParseError,
    NumericalFailureError,
    PdsplitError,
    StepSizeError,
)
from .metrics import CSV_HEADER
from .problems import (
    gen_elastic_net_strongly_convex,
    gen_fused_lasso,
    gen_toy_quadratic,
    reference_solution,
)

PROBLEMS = ("fused-lasso", "elastic-net", "toy-quadratic")

# The three-function schemes whose admissibility the validate report covers.
REPORTED_ALGORITHMS = (
    AlgorithmId.PD3O,
    AlgorithmId.PDFP,
    AlgorithmId.CONDAT_VU,
    AlgorithmId.AFBA,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INADMISSIBLE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Flat run description; serializes to key=value lines, round-trip exact."""

    problem: str = "fused-lasso"
    n: int = 100
    p: int = 500
    seed: int = 0
    noise_var: float = 0.01
    mu1: float = 20.0
    mu2: float = 200.0
    algorithm: str = "pd3o"
    gamma_factor: float = 1.0
    lam: float = 0.125
    theta: float = 1.0
    max_iters: int = 5000
    residual_tol: float = 1e-6
    log_every: int = 1
    output: str = "run.csv"
    force: bool = False
    reference_iters: int = 0

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            key = "lambda" if f.name == "lam" else f.name
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key}={value}")
        return "\n".join(lines) + "\n"


_FIELD_BY_KEY = {
    ("lambda" if f.name == "lam" else f.name): f for f in dataclasses.fields(RunConfig)
}


def config_from_text(text: str) -> RunConfig:
    """Parse key=value lines; raises ConfigParseError with line/column."""
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError("expected key=value", line_no, 1)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        f = _FIELD_BY_KEY.get(key)
        if f is None:
            raise ConfigParseError(f"unknown key {key!r}", line_no, 1)
        col = raw.index("=") + 2
        try:
            if f.type == "bool":
                if val not in ("true", "false"):
                    raise ValueError(val)
                parsed = val == "true"
            elif f.type == "int":
                parsed = int(val)
            elif f.type == "float":
                parsed = float(val)
            else:
                parsed = val
        except ValueError:
            raise ConfigParseError(
                f"bad value {val!r} for {key}", line_no, col
            ) from None
        values[f.name] = parsed
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    return config_from_text(Path(path).read_text())


def build_instance(cfg: RunConfig):
    if cfg.problem == "fused-lasso":
        return gen_fused_lasso(cfg.n, cfg.p, cfg.seed, cfg.noise_var, cfg.mu1, cfg.mu2)
    if cfg.problem == "elastic-net":
        return gen_elastic_net_strongly_convex(cfg.n, cfg.p, cfg.seed, cfg.mu1, cfg.mu2)
    if cfg.problem == "toy-quadratic":
        return gen_toy_quadratic(cfg.n, cfg.seed)
    raise ConfigParseError(f"unknown problem {cfg.problem!r}", 1, 1)


def steps_for(cfg: RunConfig, instance, gamma_factor=None, lam=None) -> StepSizes:
    gf = cfg.gamma_factor if gamma_factor is None else gamma_factor
    lv = cfg.lam if lam is None else lam
    return StepSizes.from_lambda(gf * instance.beta, lv, cfg.theta)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _record_to_csv_text(record, series_id=None) -> str:
    buf = io.StringIO()
    record.write_csv(buf, series_id=series_id)
    return buf.getvalue()


def _solve(cfg: RunConfig, instance, algorithm: str, steps: StepSizes, reference):
    """One solve of ``algorithm`` on ``instance`` with the run settings of ``cfg``."""
    return solve(
        instance.spec, algorithm, steps,
        max_iters=cfg.max_iters, residual_tol=cfg.residual_tol,
        norm_AAt=instance.norm_AAt, reference=reference,
        log_every=cfg.log_every, force=cfg.force,
        descriptor=instance.descriptor,
    )


def cmd_validate(cfg: RunConfig) -> int:
    instance = build_instance(cfg)
    steps = steps_for(cfg, instance)
    configured = AlgorithmId(cfg.algorithm)
    verdict = validate_stepsizes(configured, steps, instance.beta, instance.norm_AAt)
    print(f"instance: {json.dumps(instance.descriptor, sort_keys=True)}")
    print(f"beta={instance.beta:.6g} norm_AAt={instance.norm_AAt:.6g} "
          f"gamma={steps.gamma:.6g} delta={steps.delta:.6g} lambda={steps.lam:.6g} "
          f"t={verdict.details['t']!r} r={verdict.details['r']!r}")
    for alg in dict.fromkeys((*REPORTED_ALGORITHMS, configured)):
        v = validate_stepsizes(alg, steps, instance.beta, instance.norm_AAt)
        print(f"{alg.value}: " + ("admissible" if v.valid else f"rejected ({v.violated})"))
    return EXIT_OK if verdict.valid else EXIT_INADMISSIBLE


def cmd_run(cfg: RunConfig) -> int:
    instance = build_instance(cfg)
    steps = steps_for(cfg, instance)
    reference = None
    if cfg.reference_iters > 0:
        ref = reference_solution(instance, cfg.reference_iters)
        reference = (ref.x, ref.s)
    try:
        record = _solve(cfg, instance, cfg.algorithm, steps, reference)
    except NumericalFailureError as err:
        print(f"numerical failure at iteration {err.iteration}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    out = Path(cfg.output)
    _atomic_write(out, _record_to_csv_text(record))
    meta = dict(record.metadata)
    meta["config"] = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    _atomic_write(out.with_suffix(out.suffix + ".meta.json"),
                  json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n")
    print(f"algorithm={record.metadata['algorithm']} "
          f"iterations={record.metadata['iterations']} "
          f"objective={record.metadata['final_objective']:.12g} "
          f"residual={record.metadata['final_residual']:.6g} "
          f"stop_reason={record.metadata['stop_reason']} "
          f"residual_metric={record.metadata['residual_metric']}")
    print(f"wrote {out}")
    return EXIT_OK


# The run metadata a manifest series entry carries.
_SERIES_KEYS = ("iterations", "final_objective", "final_residual", "stop_reason",
                "residual_metric")


def _run_cell(cfg: RunConfig, instance, reference, cell: dict, steps: StepSizes):
    """Solve one grid cell: ``("ran", fields)`` with the cell's CSV text under
    ``"csv"``, ``("skip", reason)`` or ``("failed", fields)``."""
    try:
        record = _solve(cfg, instance, cell["algorithm"], steps, reference)
    except (StepSizeError, AlgorithmMisuseError) as err:
        return "skip", str(err)
    except NumericalFailureError as err:
        return "failed", {"iteration": err.iteration, "sub_step": err.sub_step,
                          "message": str(err)}
    return "ran", {"csv": _record_to_csv_text(record, series_id=cell["series_id"]),
                   **{key: record.metadata[key] for key in _SERIES_KEYS}}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _helper_count(cells: int, cpus: int) -> int:
    """Helper processes for a grid: min(cells, cpus) processes run it, the caller included."""
    return max(0, min(cells, cpus) - 1)


class _CellPool:
    """The grid's cells, claimed in order, and their outcomes until the caller takes them.

    Shared by the caller and the threads that feed its helpers.  An outcome
    is ``(kind, value, stderr text)``; an ``"error"`` outcome ends all claiming.
    """

    def __init__(self, size: int):
        self._next, self._size = 0, size
        self._outcomes = {}
        self._cond = threading.Condition()

    def claim(self):
        """The index of the next unclaimed cell, or None when there is none."""
        with self._cond:
            if self._next >= self._size:
                return None
            self._next += 1
            return self._next - 1

    def finish(self, i: int, outcome: tuple) -> None:
        with self._cond:
            self._outcomes[i] = outcome
            if outcome[0] == "error":
                self._next = self._size
            self._cond.notify_all()

    def done(self, i: int) -> bool:
        with self._cond:
            return i in self._outcomes

    def take(self, i: int) -> tuple:
        """Cell ``i``'s outcome, once a claimant has finished it."""
        with self._cond:
            self._cond.wait_for(lambda: i in self._outcomes)
            return self._outcomes.pop(i)


# A helper imports the package from the directory the caller imported it
# from, however the caller was started (console script, -m, -c, stdin, pytest).
_HELPER_MAIN = ("import sys; sys.path.insert(0, {root!r}); "
                "from pdsplit.cli import _serve_cells; _serve_cells()")


def _serve_cells() -> None:
    """Main of a helper process.

    Reads ``(config text, grid, reference)`` and then cell indices, pickled, from
    stdin, and writes one pickled outcome per cell to stdout, with what the
    cell wrote to stderr.  Returns when the caller closes stdin.
    """
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, never into the outcomes
    with contextlib.suppress(EOFError):
        cfg_text, grid, reference = pickle.load(requests)
        cfg = config_from_text(cfg_text)
        instance = build_instance(cfg)
        while True:
            cell, steps = grid[pickle.load(requests)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                kind, value = _run_cell(cfg, instance, reference, cell, steps)
            pickle.dump((kind, value, err.getvalue()), replies)
            replies.flush()


class _Helper:
    """A helper process and the caller's thread that feeds it cells from a pool."""

    def __init__(self, pool: _CellPool, setup: tuple):
        root = str(Path(__file__).resolve().parents[1])
        self.log = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER_MAIN.format(root=root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log)
        self.thread = threading.Thread(target=self._feed, args=(pool, setup), daemon=True)
        self.thread.start()

    def _feed(self, pool: _CellPool, setup: tuple) -> None:
        i = pool.claim()
        try:
            if i is not None:
                pickle.dump(setup, self.proc.stdin)
            while i is not None:
                pickle.dump(i, self.proc.stdin)
                self.proc.stdin.flush()
                pool.finish(i, pickle.load(self.proc.stdout))
                i = pool.claim()
        except Exception as err:  # any failure ends compare with an error naming the cell
            try:
                status = self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                status = self.proc.wait()
            self.log.seek(0)
            lines = self.log.read().decode(errors="replace").strip().splitlines()
            pool.finish(i, ("error", f"helper process failed (exit status {status}): "
                                     f"{lines[-1] if lines else repr(err)}", ""))
        finally:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()

    def reap(self) -> None:
        self.thread.join()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def cmd_compare(cfg: RunConfig, algorithms, gamma_factors, lambdas) -> int:
    instance = build_instance(cfg)
    # theta's cap 2 - gamma/(2 beta) falls as gamma grows, so a theta that the
    # smallest gamma factor rejects is inadmissible in every cell
    if gamma_factors:
        check_theta(cfg.theta, min(gamma_factors) * instance.beta, instance.beta)
    ref_iters = cfg.reference_iters if cfg.reference_iters > 0 else 20000
    ref = reference_solution(instance, ref_iters)
    reference = (ref.x, ref.s)
    grid = [({"series_id": f"{alg}_gf{gf:g}_lam{lam:g}", "algorithm": alg,
              "gamma_factor": gf, "lambda": lam},
             steps_for(cfg, instance, gamma_factor=gf, lam=lam))
            for alg, gf, lam in itertools.product(algorithms, gamma_factors, lambdas)]

    out = Path(cfg.output)
    cell_dir = out.parent / (out.stem + ".cells")
    manifest = {
        "instance": instance.descriptor,
        "reference_iters": ref_iters,
        "reference_objective": ref.objective,
        "series": [],
        "skipped": [],
        "failed": [],
    }
    status = EXIT_OK
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, merged_tmp = tempfile.mkstemp(dir=out.parent, suffix=".tmp")
    pool = _CellPool(len(grid))
    # the caller claims the first cell before any helper starts, so every grid
    # runs at least one cell where a profiler or tracer in this process sees it
    mine = pool.claim()
    helpers = []
    try:
        with os.fdopen(fd, "w") as merged:
            merged.write(",".join(("series_id",) + CSV_HEADER) + "\n")
            for _ in range(_helper_count(len(grid), _usable_cpus())):
                helpers.append(_Helper(pool, (cfg.to_text(), grid, reference)))
            for i, (cell, _) in enumerate(grid):
                while mine is not None and not pool.done(i):
                    pool.finish(mine, (*_run_cell(cfg, instance, reference, *grid[mine]), ""))
                    mine = pool.claim()
                kind, value, stderr_text = pool.take(i)
                sys.stderr.write(stderr_text)
                sid = cell["series_id"]
                if kind == "error":
                    raise PdsplitError(f"{sid}: {value}")
                if kind == "skip":
                    print(f"skip {sid}: {value}")
                    manifest["skipped"].append({**cell, "reason": value})
                elif kind == "failed":
                    print(f"numerical failure in {sid} at iteration {value['iteration']}",
                          file=sys.stderr)
                    manifest["failed"].append({**cell, **value})
                    status = EXIT_NUMERICAL
                else:
                    cell_text = value.pop("csv")
                    _atomic_write(cell_dir / f"{sid}.csv", cell_text)
                    merged.write(cell_text[cell_text.index("\n") + 1:])
                    manifest["series"].append(
                        {**cell, "csv": str(cell_dir / f"{sid}.csv"), **value})
                    print(f"ran {sid}: iterations={value['iterations']} "
                          f"objective={value['final_objective']:.12g}")
        os.replace(merged_tmp, out)
    except BaseException:
        for helper in helpers:
            helper.proc.kill()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(merged_tmp)
        raise
    finally:
        for helper in helpers:
            helper.reap()
    _atomic_write(out.with_suffix(out.suffix + ".manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return status


def _parse_list(text: str, cast):
    return [cast(tok) for tok in text.split(",") if tok]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--problem", choices=PROBLEMS)
        p.add_argument("--n", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--noise-var", type=float, dest="noise_var")
        p.add_argument("--mu1", type=float)
        p.add_argument("--mu2", type=float)
        p.add_argument("--algorithm", choices=[a.value for a in AlgorithmId])
        p.add_argument("--gamma-factor", type=float, dest="gamma_factor")
        p.add_argument("--lambda", type=float, dest="lam")
        p.add_argument("--theta", type=float)
        p.add_argument("--max-iters", type=int, dest="max_iters")
        p.add_argument("--tol", type=float, dest="residual_tol")
        p.add_argument("--log-every", type=int, dest="log_every")
        p.add_argument("--output", type=str)
        p.add_argument("--force", action="store_true", default=None)
        p.add_argument("--reference-iters", type=int, dest="reference_iters")

    add_common(sub.add_parser("validate", help="report step-size admissibility"))
    add_common(sub.add_parser("run", help="solve one configuration, write CSV"))
    cmp_parser = sub.add_parser("compare", help="sweep a parameter grid into one CSV")
    add_common(cmp_parser)
    cmp_parser.add_argument("--algorithms", default="pd3o,pdfp,condat-vu,afba")
    cmp_parser.add_argument("--gamma-factors", default="1.0", dest="gamma_factors")
    cmp_parser.add_argument("--lambdas", default="0.125")
    return parser


def config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    return dataclasses.replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        cfg = config_from_args(args)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(
                cfg,
                _parse_list(args.algorithms, str),
                _parse_list(args.gamma_factors, float),
                _parse_list(args.lambdas, float),
            )
    except ConfigParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (StepSizeError, AlgorithmMisuseError) as err:
        print(f"inadmissible: {err}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except PdsplitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
