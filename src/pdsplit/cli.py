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
runs cells on the caller and a helper per further usable CPU, which rebuilds
the instance from the caller's settings, passed as fields.  Every output
follows grid order, each cell's stderr (its warnings once) just before its line.
Exit codes: 0 success, 1 parse error, 2 inadmissible, 3 numerical failure.
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
import queue
import subprocess
import sys
import tempfile
import threading
import warnings
from concurrent.futures import Future
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
    process: the cell's stderr is captured under fresh warning filters, so the
    cell shows each of its warnings once whatever ran before it."""
    with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
        kind, value = _run_cell(cfg, instance, reference, cell, steps)
    return kind, value, err.getvalue()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _helper_count(cells: int, cpus: int) -> int:
    """Helper processes for a grid: min(cells, cpus) processes run it, the caller included."""
    return max(0, min(cells, cpus) - 1)


def _claim(todo: queue.SimpleQueue):
    """The index of the next unclaimed cell in ``todo``, or None when there is none."""
    try:
        return todo.get_nowait()
    except queue.Empty:
        return None


def _settle(todo: queue.SimpleQueue, cell: Future, outcome: tuple) -> None:
    """Give a claimed cell its outcome ``(kind, value, stderr text)``; an
    ``"error"`` outcome ends all claiming."""
    if outcome[0] == "error":
        while _claim(todo) is not None:
            pass
    cell.set_result(outcome)


# A helper imports the package from the directory the caller imported it
# from, however the caller was started (console script, -m, -c, stdin, pytest).
_HELPER_MAIN = ("import sys; sys.path.insert(0, {root!r}); "
                "from pdsplit.cli import _serve_cells; _serve_cells()")


def _serve_cells() -> None:
    """Main of a helper process.

    Reads ``(config fields, grid, reference)`` and then cell indices, pickled,
    from stdin, and writes each cell's pickled outcome to stdout.  Returns when
    the caller closes stdin.
    """
    requests, replies = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, never into the outcomes
    with contextlib.suppress(EOFError):
        fields, grid, reference = pickle.load(requests)
        cfg = RunConfig(**fields)
        instance = build_instance(cfg)
        while True:
            pickle.dump(_cell_outcome(cfg, instance, reference, *grid[pickle.load(requests)]),
                        replies)
            replies.flush()


class _Helper:
    """A helper process and the caller's thread that feeds it the cells it
    claims, then reaps it."""

    def __init__(self, todo: queue.SimpleQueue, cells: list, setup: tuple):
        root = str(Path(__file__).resolve().parents[1])
        self.log = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER_MAIN.format(root=root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log)
        self.thread = threading.Thread(target=self._feed, args=(todo, cells, setup),
                                       daemon=True)
        self.thread.start()

    def _feed(self, todo: queue.SimpleQueue, cells: list, setup: tuple) -> None:
        with self.log, self.proc:  # closes both pipes and waits for the process
            i = _claim(todo)
            try:
                if i is not None:
                    pickle.dump(setup, self.proc.stdin)
                while i is not None:
                    pickle.dump(i, self.proc.stdin)
                    self.proc.stdin.flush()
                    _settle(todo, cells[i], pickle.load(self.proc.stdout))
                    i = _claim(todo)
            except Exception as err:  # any failure ends compare with an error naming the cell
                try:
                    status = self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    status = self.proc.wait()
                self.log.seek(0)
                lines = self.log.read().decode(errors="replace").strip().splitlines()
                _settle(todo, cells[i], ("error", "helper process failed (exit status "
                                         f"{status}): {lines[-1] if lines else repr(err)}", ""))
            finally:
                with contextlib.suppress(OSError):
                    self.proc.stdin.close()


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
    # every process claims the next admitted cell from todo as it frees up, and
    # the caller takes each cell's outcome from its future in grid order
    todo, cells = queue.SimpleQueue(), [Future() for _ in grid]
    admitted = [i for i in range(len(grid)) if i not in refused]
    for i in admitted:
        todo.put(i)
    # the caller claims the first admitted cell before any helper starts, so
    # every grid runs a cell where a profiler or tracer in this process sees it
    mine = _claim(todo)
    helpers = []
    try:
        with atomic_file(out) as merged:
            merged.write(",".join(("series_id",) + CSV_HEADER) + "\n")
            for _ in range(_helper_count(len(admitted), _usable_cpus())):
                helpers.append(_Helper(todo, cells, (dataclasses.asdict(cfg), grid, reference)))
            for i, (cell, _) in enumerate(grid):
                sid = cell["series_id"]
                if i in refused:
                    print(f"skip {sid}: {refused[i]}")
                    manifest["skipped"].append({**cell, "reason": str(refused[i])})
                    continue
                while mine is not None and not cells[i].done():
                    _settle(todo, cells[mine], _cell_outcome(cfg, instance, reference,
                                                             *grid[mine]))
                    mine = _claim(todo)
                kind, value, stderr_text = cells[i].result()
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
    except BaseException:
        for helper in helpers:
            helper.proc.kill()
        raise
    finally:
        for helper in helpers:
            helper.thread.join()
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
