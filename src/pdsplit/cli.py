"""Command-line front end: instance generation, validation, runs, and sweeps.

    pdsplit validate --problem fused-lasso --n 100 --p 500 --gamma-factor 1.5 --lambda 0.125
    pdsplit run      --problem toy-quadratic --n 20 --algorithm pd3o --output toy.csv
    pdsplit compare  --algorithms pd3o,pdfp,condat-vu,afba --gamma-factors 1.0,1.5,1.99 \
                     --lambdas 0.125 --output sweep.csv

Parameters are entered as (gamma-factor, lambda): the primal step is
gamma = factor * beta and the dual step is derived as delta = lambda / gamma,
so a sweep over step sizes is a plain grid over those two numbers.  Every
command accepts a scheme through ``algorithms.admit``: its premises, then
theta's cap, then the step-size conditions; validate reports each scheme's
first refusal.  run and compare solve a cell through one runner.  compare
refuses repeated series ids, then admits every cell before the reference; it
skips refused cells, or exits 2 and writes nothing when none is admitted.  It
runs cells on the caller and, on Linux, a forked worker per further usable CPU;
a cell that raises ends it with an error naming the cell, and the cells still
running are killed.  Every output follows grid order, each cell's stderr (its
warnings once) just before its line.
Exit codes: 0 success, 1 parse error, 2 inadmissible, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .algorithms import (
    AlgorithmId,
    StepSizes,
    admit,
    check_loop_settings,
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
    atomic_file,
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
    """Flat run description; ``config_from_text`` reads it from key=value lines."""

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


# A setting's config key and flag name where they differ from its field name.
_KEY_OF = {"lam": "lambda"}
_FLAG_OF = {**_KEY_OF, "residual_tol": "tol"}
_FIELD_BY_KEY = {_KEY_OF.get(f.name, f.name): f for f in dataclasses.fields(RunConfig)}
_CAST = {"int": int, "float": float, "str": str}


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
            else:
                parsed = _CAST[f.type](val)
        except ValueError:
            raise ConfigParseError(
                f"bad value {val!r} for {key}", line_no, col
            ) from None
        values[f.name] = parsed
    return RunConfig(**values)


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
    with atomic_file(path) as fh:
        fh.write(text)


def _check_settings(cfg: RunConfig) -> None:
    """Refuse, before any set-up, what ``solve`` refuses and a negative reference length."""
    check_loop_settings(cfg.max_iters, cfg.residual_tol, cfg.log_every)
    if cfg.reference_iters < 0:
        raise ValueError(f"reference_iters must be >= 0, got {cfg.reference_iters}")


@contextlib.contextmanager
def _setup_errors():
    """Report a plain ``ValueError`` from a command's set-up (a size, step or
    count the package rejects) as a configuration error; the package's own
    errors keep their exit codes."""
    try:
        yield
    except ValueError as err:
        if isinstance(err, PdsplitError):
            raise
        raise ConfigParseError(str(err)) from err


def _run_cell(cfg: RunConfig, instance, reference, cell: dict, steps: StepSizes):
    """The one place a cell is solved, ``run``'s cell or a ``compare`` grid's:
    ``("ran", the record's metadata)`` with its CSV text under ``"csv"`` (with a
    series_id column when the cell has one), or ``("failed", fields)``."""
    try:
        record = solve(instance.spec, cell["algorithm"], steps, max_iters=cfg.max_iters,
                       residual_tol=cfg.residual_tol, norm_AAt=instance.norm_AAt,
                       reference=reference, log_every=cfg.log_every, force=cfg.force)
    except NumericalFailureError as err:
        return "failed", {"iteration": err.iteration, "sub_step": err.sub_step,
                          "message": str(err)}
    buf = io.StringIO()
    record.write_csv(buf, series_id=cell.get("series_id"))
    return "ran", {**record.metadata, "csv": buf.getvalue()}


def cmd_validate(cfg: RunConfig) -> int:
    with _setup_errors():
        instance = build_instance(cfg)
        steps = steps_for(cfg, instance)
        configured = AlgorithmId(cfg.algorithm)
    details = validate_stepsizes(configured, steps, instance.beta, instance.norm_AAt).details
    print(f"instance: {json.dumps(instance.descriptor, sort_keys=True)}")
    print(f"beta={instance.beta:.6g} norm_AAt={instance.norm_AAt:.6g} "
          f"gamma={steps.gamma:.6g} delta={steps.delta:.6g} lambda={steps.lam:.6g} "
          f"t={details['t']!r} r={details['r']!r}")
    reasons = {}  # scheme -> why admit refuses it, or None
    for alg in dict.fromkeys((*REPORTED_ALGORITHMS, configured)):
        try:
            reasons[alg] = admit(instance.spec, alg, steps, instance.norm_AAt, force=True).violated
        except (StepSizeError, AlgorithmMisuseError) as err:
            reasons[alg] = str(err)
        print(f"{alg.value}: " + ("admissible" if reasons[alg] is None
                                  else f"rejected ({reasons[alg]})"))
    return EXIT_OK if reasons[configured] is None else EXIT_INADMISSIBLE


def cmd_run(cfg: RunConfig) -> int:
    with _setup_errors():
        _check_settings(cfg)
        instance = build_instance(cfg)
        steps = steps_for(cfg, instance)
        # before the reference; a config file can name an unknown scheme (ValueError)
        admit(instance.spec, cfg.algorithm, steps, instance.norm_AAt, cfg.force)
    reference = None
    if cfg.reference_iters > 0:
        ref = reference_solution(instance, cfg.reference_iters)
        reference = (ref.x, ref.s)
    kind, meta = _run_cell(cfg, instance, reference, {"algorithm": cfg.algorithm}, steps)
    if kind == "failed":
        print(f"numerical failure at iteration {meta['iteration']}: {meta['message']}",
              file=sys.stderr)
        return EXIT_NUMERICAL

    out = Path(cfg.output)
    _atomic_write(out, meta.pop("csv"))
    meta.update(problem=instance.descriptor, config=dataclasses.asdict(cfg))
    _atomic_write(out.with_suffix(out.suffix + ".meta.json"),
                  json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n")
    print(f"algorithm={meta['algorithm']} iterations={meta['iterations']} "
          f"objective={meta['final_objective']:.12g} "
          f"residual={meta['final_residual']:.6g} stop_reason={meta['stop_reason']} "
          f"residual_metric={meta['residual_metric']}")
    print(f"wrote {out}")
    return EXIT_OK


# The run metadata a manifest series entry carries.
_SERIES_KEYS = ("iterations", "final_objective", "final_residual", "stop_reason",
                "residual_metric")


def _cell_outcome(cfg: RunConfig, instance, reference, cell: dict, steps: StepSizes):
    """A grid cell's outcome ``(kind, value, stderr text)``, alike in every
    process: stderr is captured under fresh warning filters, so the cell shows
    each of its warnings once whatever ran before it, and an exception other
    than a numerical failure is an ``"error"`` outcome, ``"<Type>: <message>"``."""
    with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        try:
            kind, value = _run_cell(cfg, instance, reference, cell, steps)
        except Exception as exc:
            kind, value = "error", f"{type(exc).__name__}: {exc}"
    return kind, value, err.getvalue()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_worker_run = None  # in a worker, the caller's run(cell index), set by _init_worker


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _worker_cell(i: int):
    return _worker_run(i)


def _grid_outcomes(cfg: RunConfig, instance, reference, grid: list, admitted: list):
    """Yield each admitted cell's outcome in grid order.  The caller runs the
    first, so a profiler or tracer here sees a cell of every grid.  On Linux
    ``min(cells, usable CPUs) - 1`` workers run the others too: whoever is free
    takes the next cell nobody has started, the caller while a worker runs the
    cell whose turn it is.  Closing the generator kills cells that still run."""
    def run(i):
        return _cell_outcome(cfg, instance, reference, *grid[i])

    workers = min(len(admitted), _usable_cpus()) - 1 if sys.platform == "linux" else 0
    if workers <= 0:
        yield from map(run, admitted)
        return
    # Workers are forks for two reasons: the instance's oracles are closures,
    # which do not pickle, so a fork inherits ``run`` with the instance and the
    # reference; and a spawn or forkserver context starts multiprocessing's
    # resource tracker, a process that outlives the call.
    before = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(run,))
    # untaken: a worker gets a cell only when it is free, so the caller can take any
    lock, futures, untaken, mine = threading.RLock(), {}, admitted[1:], {}

    def feed(_=None):  # hand each free worker the next untaken cell
        with lock, contextlib.suppress(RuntimeError):  # the pool is broken or shut down
            while untaken and sum(not f.done() for f in futures.values()) < workers:
                futures[untaken[0]] = pool.submit(_worker_cell, untaken[0])
                futures[untaken.pop(0)].add_done_callback(feed)

    def take(i):  # the caller's next cell, while cell i is not done
        with lock:
            if untaken and i not in mine and not (i in futures and futures[i].done()):
                return untaken.pop(0)

    try:
        feed()
        yield run(admitted[0])
        for i in admitted[1:]:
            while (j := take(i)) is not None:
                mine[j] = run(j)
            try:
                outcome = mine.pop(i) if i in mine else futures[i].result()
            except Exception as err:  # a worker died (BrokenProcessPool)
                outcome = "error", f"{type(err).__name__}: {err}", ""
            yield outcome
    finally:
        with lock:  # no cell is handed out from here on
            untaken.clear()
        if not all(future.done() for future in futures.values()):  # ended early
            for child in set(multiprocessing.active_children()) - before:
                child.kill()
        pool.shutdown(cancel_futures=True)


def cmd_compare(cfg: RunConfig, algorithms, gamma_factors, lambdas) -> int:
    with _setup_errors():
        _check_settings(cfg)
        if not (algorithms and gamma_factors and lambdas):
            raise ValueError("the grid is empty: give at least one algorithm, "
                             "gamma factor and lambda")
        instance = build_instance(cfg)
        grid = [({"series_id": f"{alg}_gf{gf:g}_lam{lam:g}",
                  "algorithm": AlgorithmId(alg).value, "gamma_factor": gf, "lambda": lam},
                 steps_for(cfg, instance, gamma_factor=gf, lam=lam))
                for alg, gf, lam in itertools.product(algorithms, gamma_factors, lambdas)]
        sids = [cell["series_id"] for cell, _ in grid]
        if len(set(sids)) < len(sids):  # two cells would write one CSV
            raise ValueError("two grid cells share the series id "
                             f"{next(s for s in sids if sids.count(s) > 1)!r}")
    refused = {}  # grid index -> why the cell may not run
    for i, (cell, steps) in enumerate(grid):
        try:
            admit(instance.spec, cell["algorithm"], steps, instance.norm_AAt, cfg.force)
        except (StepSizeError, AlgorithmMisuseError) as err:
            refused[i] = err.with_traceback(None)  # a traceback would pin this frame
    if len(refused) == len(grid):
        raise refused[0]
    ref_iters = cfg.reference_iters if cfg.reference_iters > 0 else 20000
    ref = reference_solution(instance, ref_iters)
    reference = (ref.x, ref.s)

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
    outcomes = _grid_outcomes(cfg, instance, reference, grid,
                              [i for i in range(len(grid)) if i not in refused])
    with contextlib.closing(outcomes), atomic_file(out) as merged:
        merged.write(",".join(("series_id",) + CSV_HEADER) + "\n")
        for i, (cell, _) in enumerate(grid):
            sid = cell["series_id"]
            if i in refused:
                print(f"skip {sid}: {refused[i]}")
                manifest["skipped"].append({**cell, "reason": str(refused[i])})
                continue
            kind, value, stderr_text = next(outcomes)
            sys.stderr.write(stderr_text)
            if kind == "error":
                raise PdsplitError(f"{sid}: {value}")
            if kind == "failed":
                print(f"numerical failure in {sid} at iteration {value['iteration']}",
                      file=sys.stderr)
                manifest["failed"].append({**cell, **value})
                status = EXIT_NUMERICAL
            else:
                cell_text = value.pop("csv")
                _atomic_write(cell_dir / f"{sid}.csv", cell_text)
                merged.write(cell_text[cell_text.index("\n") + 1:])
                manifest["series"].append({**cell, "csv": str(cell_dir / f"{sid}.csv"),
                                           **{k: value[k] for k in _SERIES_KEYS}})
                print(f"ran {sid}: iterations={value['iterations']} "
                      f"objective={value['final_objective']:.12g}")
    _atomic_write(out.with_suffix(out.suffix + ".manifest.json"),
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return status


def _parse_list(text: str, cast):
    return [cast(tok) for tok in text.split(",") if tok]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    choices = {"problem": PROBLEMS, "algorithm": [a.value for a in AlgorithmId]}

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override it")
        for f in dataclasses.fields(RunConfig):  # one flag per setting
            flag = "--" + _FLAG_OF.get(f.name, f.name).replace("_", "-")
            if f.type == "bool":
                p.add_argument(flag, action="store_true", default=None, dest=f.name)
            else:
                p.add_argument(flag, type=_CAST[f.type], dest=f.name,
                               choices=choices.get(f.name))

    add_common(sub.add_parser("validate", help="report step-size admissibility"))
    add_common(sub.add_parser("run", help="solve one configuration, write CSV"))
    cmp_parser = sub.add_parser("compare", help="sweep a parameter grid into one CSV")
    add_common(cmp_parser)
    cmp_parser.add_argument("--algorithms",
                            default=",".join(a.value for a in REPORTED_ALGORITHMS))
    cmp_parser.add_argument("--gamma-factors", default="1.0", dest="gamma_factors")
    cmp_parser.add_argument("--lambdas", default="0.125")
    return parser


def config_from_args(args) -> RunConfig:
    cfg = config_from_text(Path(args.config).read_text()) if args.config else RunConfig()
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


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
