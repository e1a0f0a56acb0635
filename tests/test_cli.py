import csv
import json
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pdsplit import cli
from pdsplit.algorithms import AlgorithmId, StepSizes, solve
from pdsplit.cli import (
    EXIT_INADMISSIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    RunConfig,
    config_from_text,
    main,
)
from pdsplit.exceptions import ConfigParseError, PdsplitError
from pdsplit.problems import CACHE_ENV_VAR, gen_elastic_net_strongly_convex, gen_fused_lasso


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def output_files(root):
    """Every file under ``root`` by relative path: a CSV's rows without the
    wall_time_s column, any other file's text."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.suffix == ".csv":
            rows = read_csv(path)
            wall = rows[0].index("wall_time_s")
            files[path.relative_to(root)] = [row[:wall] + row[wall + 1:] for row in rows]
        elif path.is_file():
            files[path.relative_to(root)] = path.read_text()
    return files


class TestConfigFile:
    def test_round_trip_identity(self):
        # one key of each type: str (a path with /), int, float as repr writes it, bool
        text = ("problem=toy-quadratic\nn=17\nlambda=0.0125\ngamma_factor=1.99\n"
                "residual_tol=3.5e-07\nforce=true\noutput=out/dir/x.csv\n")
        assert config_from_text(text) == RunConfig(
            problem="toy-quadratic", n=17, lam=1.0 / 80.0, gamma_factor=1.99,
            residual_tol=3.5e-7, force=True, output="out/dir/x.csv")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigParseError) as excinfo:
            config_from_text("problem=fused-lasso\nbogus=3\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1

    def test_bad_value_reports_column(self):
        with pytest.raises(ConfigParseError) as excinfo:
            config_from_text("n=abc\n")
        assert excinfo.value.line == 1
        assert excinfo.value.column == 3

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigParseError):
            config_from_text("just a line\n")

    def test_comments_and_blanks_skipped(self):
        cfg = config_from_text("# comment\n\nn=42\n")
        assert cfg.n == 42

    @pytest.mark.parametrize("line, where", [
        ("problem=nope", "line 3, column 9: bad value 'nope' for problem"),
        ("algorithm=nope", "line 3, column 11: bad value 'nope' for algorithm"),
        ("force=maybe", "line 3, column 7: bad value 'maybe' for force"),
    ])
    def test_a_value_outside_its_choices_reports_line_and_column(self, tmp_path, capsys,
                                                                  line, where):
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\nn=6\n{line}\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--output", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"config error: {where}\n"
        assert not out.exists()

    def test_an_unknown_problem_in_a_built_config_is_a_config_error(self):
        with pytest.raises(ConfigParseError, match="unknown problem 'nope'"):
            cli.build_instance(RunConfig(problem="nope"))


class TestValidateCommand:
    BASE = ["validate", "--problem", "fused-lasso", "--n", "100", "--p", "500",
            "--seed", "7", "--lambda", "0.125"]

    def test_all_admissible_at_gamma_beta(self, capsys):
        code = main(self.BASE + ["--gamma-factor", "1.0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("pd3o", "pdfp", "condat-vu", "afba"):
            assert f"{name}: admissible" in out

    def test_condat_vu_afba_rejected_beyond_beta(self, capsys):
        code = main(self.BASE + ["--gamma-factor", "1.5", "--algorithm", "condat-vu"])
        out = capsys.readouterr().out
        assert code == EXIT_INADMISSIBLE
        assert "pd3o: admissible" in out
        assert "pdfp: admissible" in out
        assert "condat-vu: rejected" in out
        assert "afba: rejected" in out

    def test_metric_boundary_rejects_everything(self, capsys):
        # lambda * ||AA^T|| just above 1 violates every scheme's condition
        code = main(self.BASE[:-2] + ["--lambda", "0.2526", "--gamma-factor", "1.0",
                                      "--algorithm", "pd3o"])
        out = capsys.readouterr().out
        assert code == EXIT_INADMISSIBLE
        assert out.count("rejected") == 4

    def test_lambda_just_above_one_over_norm_is_rejected(self, capsys):
        # ||DD^T|| = 3.99996 at p = 500, so t = 0.25001 * ||DD^T|| = 1.00003
        code = main(self.BASE[:-2] + ["--lambda", "0.25001", "--gamma-factor", "1.0"])
        out = capsys.readouterr().out
        assert code == EXIT_INADMISSIBLE
        assert "pd3o: rejected" in out
        assert "pdfp: rejected" in out
        # the header and the verdicts print t and r at full precision
        inst = gen_fused_lasso(n=100, p=500, seed=7)
        steps = StepSizes.from_lambda(inst.beta, 0.25001)
        t, r = steps.lam * inst.norm_AAt, steps.gamma / (2.0 * inst.beta)
        assert f" t={t!r} r={r!r}\n" in out
        assert f"gamma*delta*||AA^T|| = {t!r} must be < 1" in out

    @pytest.mark.parametrize("argv", [
        *(["--problem", problem, "--algorithm", a.value]
          for problem in ("fused-lasso", "toy-quadratic") for a in AlgorithmId),
        ["--problem", "fused-lasso", "--theta", "1.6"],
        ["--problem", "fused-lasso", "--algorithm", "pdfp", "--theta", "1.2"],
    ])
    def test_exit_code_matches_run(self, tmp_path, capsys, argv):
        common = [*argv, "--n", "20", "--p", "40", "--seed", "7", "--max-iters", "5"]
        code = main(["validate", *common])
        out = capsys.readouterr().out
        assert code == main(["run", *common, "--output", str(tmp_path / "x.csv")])
        configured = argv[argv.index("--algorithm") + 1] if "--algorithm" in argv else "pd3o"
        verdicts = dict(line.split(": ", 1) for line in out.splitlines()[2:])
        assert verdicts[configured].startswith(
            "admissible" if code == EXIT_OK else "rejected (")

    def test_premise_and_theta_rejections_are_reported(self, capsys):
        code = main(self.BASE + ["--algorithm", "chambolle-pock", "--theta", "1.6"])
        out = capsys.readouterr().out
        assert code == EXIT_INADMISSIBLE
        assert "pd3o: rejected (theta = 1.6 must lie in (0, 1.5) for these steps)" in out
        assert "pdfp: rejected (the pdfp step requires theta = 1; only pd3o relaxes)" in out
        assert "chambolle-pock: rejected (the chambolle-pock step requires f = 0)" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n=oops\n")
        assert main(["validate", "--config", str(bad)]) == EXIT_PARSE


class TestRunCommand:
    def test_toy_quadratic_run(self, tmp_path, capsys):
        out = tmp_path / "toy.csv"
        code = main(["run", "--problem", "toy-quadratic", "--n", "8", "--seed", "2",
                     "--gamma-factor", "1.0", "--lambda", "0.5",
                     "--max-iters", "200", "--tol", "1e-10",
                     "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["iter", "objective", "residual_im", "dist_to_ref",
                           "gap", "wall_time_s"]
        iters = [int(r[0]) for r in rows[1:]]
        assert iters == sorted(iters)
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["converged"] is True
        assert meta["stop_reason"] == "converged"
        assert meta["forced"] is False
        assert meta["config"]["problem"] == "toy-quadratic"
        assert "stop_reason=converged" in capsys.readouterr().out

    def test_an_elastic_net_run_matches_the_library(self, tmp_path):
        out = tmp_path / "en.csv"
        code = main(["run", "--problem", "elastic-net", "--n", "12", "--p", "20",
                     "--seed", "5", "--mu1", "0.5", "--mu2", "0.1", "--gamma-factor", "1.5",
                     "--lambda", "0.5", "--max-iters", "300", "--tol", "1e-9",
                     "--output", str(out)])
        assert code == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["problem"]["kind"] == "elastic-net"
        inst = gen_elastic_net_strongly_convex(n=12, p=20, seed=5, mu1=0.5, mu2=0.1)
        rec = solve(inst.spec, "pd3o", StepSizes.from_lambda(1.5 * inst.beta, 0.5),
                    max_iters=300, residual_tol=1e-9, norm_AAt=inst.norm_AAt)
        assert meta["iterations"] == rec.metadata["iterations"]
        assert meta["final_objective"] == rec.metadata["final_objective"]
        assert float(read_csv(out)[-1][1]) == rec.rows[-1].objective

    def test_monotone_residual_column(self, tmp_path):
        out = tmp_path / "fl.csv"
        code = main(["run", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                     "--seed", "3", "--gamma-factor", "1.9", "--lambda", "0.125",
                     "--max-iters", "800", "--tol", "0", "--output", str(out)])
        assert code == EXIT_OK
        rows = read_csv(out)
        res = np.array([float(r[2]) for r in rows[1:]])
        assert np.all(np.diff(res) <= 1e-12 * res[0])

    def test_inadmissible_without_force(self, tmp_path):
        args = ["run", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                "--seed", "3", "--algorithm", "condat-vu", "--gamma-factor", "1.99",
                "--lambda", "0.125", "--max-iters", "50",
                "--output", str(tmp_path / "cv.csv")]
        assert main(args) == EXIT_INADMISSIBLE
        assert main(args + ["--force"]) == EXIT_OK
        meta = json.loads((tmp_path / "cv.csv.meta.json").read_text())
        assert meta["forced"] is True

    def test_forced_run_past_the_metric_boundary(self, tmp_path, capsys):
        # t = 0.5 * ||DD^T|| is about 2: M is indefinite, so the residual is Euclidean
        args = ["run", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                "--max-iters", "50"]
        for lam, metric in (("0.125", "M"), ("0.5", "euclidean")):
            out = tmp_path / f"run-{lam}.csv"
            code = main(args + ["--force", "--lambda", lam, "--output", str(out)])
            assert code == EXIT_OK
            meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
            assert meta["residual_metric"] == metric
            assert f"residual_metric={metric}" in capsys.readouterr().out
            assert len(read_csv(out)) > 1

    def test_log_every_always_keeps_head_and_tail(self, tmp_path):
        out = tmp_path / "thin.csv"
        code = main(["run", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                     "--seed", "3", "--gamma-factor", "1.0", "--lambda", "0.125",
                     "--max-iters", "350", "--tol", "0", "--log-every", "100",
                     "--output", str(out)])
        assert code == EXIT_OK
        iters = {int(r[0]) for r in read_csv(out)[1:]}
        assert set(range(11)) <= iters
        assert {100, 200, 300, 349} <= iters

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem=toy-quadratic\nn=6\nseed=1\ngamma_factor=1.0\nlambda=0.5\n"
                        f"max_iters=100\nresidual_tol=1e-09\noutput={tmp_path / 'a.csv'}\n")
        out_b = tmp_path / "b.csv"
        code = main(["run", "--config", str(path), "--output", str(out_b)])
        assert code == EXIT_OK
        assert out_b.exists() and not (tmp_path / "a.csv").exists()


class TestOutputModes:
    def test_outputs_get_the_mode_open_gives(self, tmp_path, monkeypatch, umask):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        with open(tmp_path / "sibling", "w"):
            pass
        assert stat.S_IMODE((tmp_path / "sibling").stat().st_mode) == umask
        common = ["--problem", "fused-lasso", "--n", "20", "--p", "40", "--seed", "7",
                  "--max-iters", "30", "--reference-iters", "50"]
        commands = (["run", *common, "--output", str(tmp_path / "run" / "x.csv")],
                    ["compare", *common, "--algorithms", "pd3o,afba", "--gamma-factors", "1.0",
                     "--output", str(tmp_path / "cmp" / "sweep.csv")])

        def run_all(expected):
            for path in (tmp_path / "cache").glob("*.npz"):
                path.write_bytes(b"corrupt")  # so the reference cache is rebuilt
            for args in commands:
                assert main(args) == EXIT_OK
            found = {path.relative_to(tmp_path): stat.S_IMODE(path.stat().st_mode)
                     for path in tmp_path.rglob("*") if path.is_file()}
            # run's CSV and .meta.json, compare's merged and per-cell CSVs and
            # manifest, the reference cache, and the sibling
            assert len(found) == 8
            assert found == {**dict.fromkeys(found, expected), Path("sibling"): umask}
            return found

        run_all(umask)  # new files
        for path in run_all(umask):  # rewritten
            if path != Path("sibling"):
                os.chmod(tmp_path / path, 0o640)
        run_all(0o640)  # a rewrite keeps the old permission bits


class TestCompareCommand:
    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        yield
        with pytest.raises(ChildProcessError):  # no worker outlives a compare
            os.waitpid(-1, os.WNOHANG)

    def test_single_cell_matches_standalone_run(self, tmp_path):
        common = ["--problem", "fused-lasso", "--n", "40", "--p", "120",
                  "--seed", "3", "--max-iters", "300", "--tol", "0",
                  "--reference-iters", "500"]
        run_out = tmp_path / "single.csv"
        assert main(["run", *common, "--algorithm", "pd3o",
                     "--gamma-factor", "1.0", "--lambda", "0.125",
                     "--output", str(run_out)]) == EXIT_OK
        cmp_out = tmp_path / "grid.csv"
        assert main(["compare", *common, "--algorithms", "pd3o",
                     "--gamma-factors", "1.0", "--lambdas", "0.125",
                     "--output", str(cmp_out)]) == EXIT_OK

        run_rows = read_csv(run_out)
        cmp_rows = read_csv(cmp_out)
        assert len(run_rows) == len(cmp_rows)
        # identical apart from the series column and wall time
        for run_row, cmp_row in zip(run_rows[1:], cmp_rows[1:]):
            assert cmp_row[1:-1] == run_row[:-1]

    def test_grid_matches_standalone_runs_in_grid_order(self, tmp_path, monkeypatch, capsys):
        # three processes for four cells, so helpers run cells on any machine
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        in_caller = []
        run_cell = cli._run_cell

        def counted(cfg, instance, reference, cell, steps):
            in_caller.append(cell.get("series_id"))
            return run_cell(cfg, instance, reference, cell, steps)

        monkeypatch.setattr(cli, "_run_cell", counted)
        common = ["--problem", "fused-lasso", "--n", "40", "--p", "120",
                  "--seed", "3", "--max-iters", "300", "--tol", "0",
                  "--reference-iters", "500"]
        out = tmp_path / "grid.csv"
        assert main(["compare", *common, "--algorithms", "condat-vu,pd3o",
                     "--gamma-factors", "1.5,1.0", "--lambdas", "0.125",
                     "--output", str(out)]) == EXIT_OK
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        grid = ["condat-vu_gf1.5_lam0.125", "condat-vu_gf1_lam0.125",
                "pd3o_gf1.5_lam0.125", "pd3o_gf1_lam0.125"]
        ran = grid[1:]
        # the refused first cell is never dispatched
        assert in_caller[0] == ran[0] and len(in_caller) < len(ran)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "skip " + grid[0], *("ran " + sid for sid in ran)]
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert [s["series_id"] for s in manifest["series"]] == ran
        assert [s["series_id"] for s in manifest["skipped"]] == grid[:1]
        merged = read_csv(out)
        assert [row[0] for row in merged[1:]] == [
            s["series_id"] for s in manifest["series"] for _ in range(s["iterations"])]

        wall = merged[0].index("wall_time_s")
        for entry in manifest["series"]:
            single = tmp_path / f"{entry['series_id']}.csv"
            assert main(["run", *common, "--algorithm", entry["algorithm"],
                         "--gamma-factor", repr(entry["gamma_factor"]),
                         "--lambda", repr(entry["lambda"]),
                         "--output", str(single)]) == EXIT_OK
            cell_rows = read_csv(entry["csv"])
            assert cell_rows == [row for row in merged if row[0] in (entry["series_id"],
                                                                     "series_id")]
            assert [row[1:wall] + row[wall + 1:] for row in cell_rows] == [
                row[:wall - 1] + row[wall:] for row in read_csv(single)]

    @pytest.mark.parametrize("cpus", [3, 1])
    def test_the_caller_runs_the_first_cell_and_at_most_the_usable_cpus_run(
            self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        log, run_cell = tmp_path / "pids.log", cli._run_cell

        def logged(cfg, instance, reference, cell, steps):
            with open(log, "a") as fh:  # workers are other processes: log to a file
                fh.write(f"{cell['series_id']} {os.getpid()}\n")
            return run_cell(cfg, instance, reference, cell, steps)

        monkeypatch.setattr(cli, "_run_cell", logged)
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "300", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--gamma-factors", "1.0,1.5", "--output", str(tmp_path / "g.csv")]
                    ) == EXIT_OK
        pid_of = dict(line.split() for line in log.read_text().splitlines())
        assert sorted(pid_of) == sorted(["pd3o_gf1_lam0.125", "pd3o_gf1.5_lam0.125",
                                         "pdfp_gf1_lam0.125", "pdfp_gf1.5_lam0.125"])
        assert pid_of["pd3o_gf1_lam0.125"] == str(os.getpid())
        assert len(set(pid_of.values())) <= cpus  # on one CPU, only the caller

    @pytest.mark.parametrize("cpus, raising", [
        (1, "pdfp_gf1_lam0.125"),
        (2, "pd3o_gf1_lam0.125"),
        (2, "pdfp_gf1.5_lam0.125"),
    ])
    @pytest.mark.parametrize("error", [RuntimeError, PdsplitError])
    def test_a_raising_cell_ends_compare_naming_it(self, tmp_path, monkeypatch, capsys,
                                                   cpus, raising, error):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        run_cell = cli._run_cell

        def raising_cell(cfg, instance, reference, cell, steps):
            if cell["series_id"] == raising:
                raise error("boom")
            return run_cell(cfg, instance, reference, cell, steps)

        monkeypatch.setattr(cli, "_run_cell", raising_cell)  # forked workers inherit it
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--gamma-factors", "1.0,1.5", "--output", str(tmp_path / "grid.csv")]
                    ) == EXIT_PARSE
        assert capsys.readouterr().err.endswith(
            f"error: {raising}: {error.__name__}: boom\n")
        assert sorted(os.listdir(tmp_path)) in ([], ["grid.cells"])

    def test_a_dying_worker_ends_compare_naming_its_cell(self, tmp_path, tmp_path_factory,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        caller, run_cell = os.getpid(), cli._run_cell
        started = tmp_path_factory.mktemp("flag") / "started"

        def dying(cfg, instance, reference, cell, steps):
            if os.getpid() != caller:
                started.touch()
                os._exit(7)
            for _ in range(3000):  # the caller waits until a worker has taken a cell
                if started.exists():
                    break
                time.sleep(0.01)
            return run_cell(cfg, instance, reference, cell, steps)

        monkeypatch.setattr(cli, "_run_cell", dying)
        out = tmp_path / "grid.csv"
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--gamma-factors", "1.0,1.5", "--output", str(out)]) == EXIT_PARSE
        assert started.exists()
        # the worker took the first cell the caller did not run, and died in it
        assert re.search(r"error: pd3o_gf1\.5_lam0\.125: BrokenProcessPool: ",
                         capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) in ([], ["grid.cells"])

    def test_an_errored_compare_kills_a_running_worker(self, tmp_path, tmp_path_factory,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        caller, run_cell = os.getpid(), cli._run_cell
        started = tmp_path_factory.mktemp("flag") / "started"

        def slow_or_raising(cfg, instance, reference, cell, steps):
            if os.getpid() != caller:  # a multi-second cell
                started.touch()
                time.sleep(20.0)
                return run_cell(cfg, instance, reference, cell, steps)
            for _ in range(3000):  # the caller's first cell raises once a worker runs
                if started.exists():
                    break
                time.sleep(0.01)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_run_cell", slow_or_raising)
        begin = time.perf_counter()
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--output", str(tmp_path / "grid.csv")]) == EXIT_PARSE
        assert started.exists() and time.perf_counter() - begin < 10.0
        assert capsys.readouterr().err.endswith(
            "error: pd3o_gf1_lam0.125: RuntimeError: boom\n")
        with pytest.raises(ChildProcessError):  # the killed worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_cell_waits_for_a_free_worker_so_the_caller_can_take_it(
            self, tmp_path, tmp_path_factory, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        caller, run_cell = os.getpid(), cli._run_cell
        log, last_done = tmp_path / "pids.log", tmp_path_factory.mktemp("flag") / "done"
        last = "pdfp_gf1.5_lam0.125"

        def logged(cfg, instance, reference, cell, steps):
            with open(log, "a") as fh:
                fh.write(f"{cell['series_id']} {os.getpid()}\n")
            for _ in range(1000 if os.getpid() != caller else 0):
                if last_done.exists():  # the worker holds its cell until the last is run
                    break
                time.sleep(0.01)
            outcome = run_cell(cfg, instance, reference, cell, steps)
            if cell["series_id"] == last:
                last_done.touch()
            return outcome

        monkeypatch.setattr(cli, "_run_cell", logged)
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--gamma-factors", "1.0,1.5", "--output", str(tmp_path / "g.csv")]
                    ) == EXIT_OK
        pid_of = dict(line.split() for line in log.read_text().splitlines())
        # the worker took one cell; no other waited in the pool's queue for it
        assert [sid for sid, pid in pid_of.items() if pid != str(caller)] == [
            "pd3o_gf1.5_lam0.125"]

    def test_numerically_failed_cells_are_recorded(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        with np.errstate(all="ignore"):
            code = main(["compare", "--problem", "toy-quadratic", "--n", "6", "--seed", "1",
                         "--algorithms", "pd3o,pdfp", "--gamma-factors", "1.0,3.0",
                         "--lambdas", "0.5", "--max-iters", "3000", "--tol", "0",
                         "--force", "--reference-iters", "200", "--output", str(out)])
        assert code == EXIT_NUMERICAL
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert [s["series_id"] for s in manifest["series"]] == [
            "pd3o_gf1_lam0.5", "pdfp_gf1_lam0.5"]
        failed = manifest["failed"]
        assert [f["series_id"] for f in failed] == ["pd3o_gf3_lam0.5", "pdfp_gf3_lam0.5"]
        for entry in failed:
            assert entry["sub_step"] == "xbar-update"
            assert entry["iteration"] > 0
            assert entry["message"].startswith("non-finite values")
        assert "numerical failure in pdfp_gf3_lam0.5" in capsys.readouterr().err

    def test_manifest_records_the_residual_metric(self, tmp_path):
        # AFBA admits t = gamma*delta*||AA^T|| = 1.1, where M is indefinite and
        # the residual falls back to the Euclidean norm
        lam = 1.1 / gen_fused_lasso(20, 40, 7).norm_AAt
        out = tmp_path / "metric.csv"
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "7", "--algorithms", "afba,pd3o", "--gamma-factors", "0.1",
                     "--lambdas", f"0.125,{lam!r}", "--max-iters", "50", "--tol", "0",
                     "--reference-iters", "200", "--output", str(out)]) == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert {s["series_id"]: s["residual_metric"] for s in manifest["series"]} == {
            "afba_gf0.1_lam0.125": "M", f"afba_gf0.1_lam{lam:g}": "euclidean",
            "pd3o_gf0.1_lam0.125": "M"}
        assert [s["series_id"] for s in manifest["skipped"]] == [f"pd3o_gf0.1_lam{lam:g}"]

    def test_sweep_emits_expected_series(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["compare", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                     "--seed", "3", "--max-iters", "200", "--tol", "0",
                     "--log-every", "50", "--reference-iters", "500",
                     "--algorithms", "pd3o,pdfp,condat-vu,afba",
                     "--gamma-factors", "1.0,1.5,1.99", "--lambdas", "0.125",
                     "--output", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        ran = {s["series_id"] for s in manifest["series"]}
        skipped = {s["series_id"] for s in manifest["skipped"]}
        # four schemes at gamma = beta; only the relaxed-condition pair beyond
        assert ran == {
            "pd3o_gf1_lam0.125", "pd3o_gf1.5_lam0.125", "pd3o_gf1.99_lam0.125",
            "pdfp_gf1_lam0.125", "pdfp_gf1.5_lam0.125", "pdfp_gf1.99_lam0.125",
            "condat-vu_gf1_lam0.125", "afba_gf1_lam0.125",
        }
        assert skipped == {
            "condat-vu_gf1.5_lam0.125", "condat-vu_gf1.99_lam0.125",
            "afba_gf1.5_lam0.125", "afba_gf1.99_lam0.125",
        }
        series_col = {row[0] for row in read_csv(out)[1:]}
        assert series_col == ran
        # per-cell files are kept for plotting
        cells = list((tmp_path / "sweep.cells").glob("*.csv"))
        assert len(cells) == 8

    def test_misuse_cells_are_skipped_and_the_sweep_completes(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        code = main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200",
                     "--algorithms", "pd3o,chambolle-pock",
                     "--gamma-factors", "1.0,1.5", "--lambdas", "0.125",
                     "--output", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert {s["series_id"] for s in manifest["series"]} == {
            "pd3o_gf1_lam0.125", "pd3o_gf1.5_lam0.125"}
        skipped = {s["series_id"]: s["reason"] for s in manifest["skipped"]}
        assert set(skipped) == {"chambolle-pock_gf1_lam0.125",
                                "chambolle-pock_gf1.5_lam0.125"}
        assert all("requires f = 0" in reason for reason in skipped.values())
        assert {row[0] for row in read_csv(out)[1:]} == {
            "pd3o_gf1_lam0.125", "pd3o_gf1.5_lam0.125"}
        assert "skip chambolle-pock_gf1_lam0.125" in capsys.readouterr().out

    def test_a_grid_without_an_admitted_cell_writes_nothing(self, tmp_path, monkeypatch,
                                                            capsys):
        def no_reference(*args, **kwargs):
            raise AssertionError("compare computed a reference for no cell")

        monkeypatch.setattr(cli, "reference_solution", no_reference)
        code = main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "7", "--algorithms", "chambolle-pock",
                     "--gamma-factors", "1.0,1.5", "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_INADMISSIBLE
        assert capsys.readouterr().err == (
            "inadmissible: the chambolle-pock step requires f = 0\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag", ["--algorithms", "--gamma-factors", "--lambdas"])
    def test_an_empty_grid_is_a_config_error(self, tmp_path, monkeypatch, capsys, flag):
        def no_reference(*args, **kwargs):
            raise AssertionError("compare computed a reference for an empty grid")

        monkeypatch.setattr(cli, "reference_solution", no_reference)
        code = main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--reference-iters", "200", flag, "", "--output",
                     str(tmp_path / "e.csv")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("config error: the grid is empty")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("grid", [
        ["--gamma-factors", "1.0,1"],
        ["--gamma-factors", "1.0,1.0000001"],
        ["--algorithms", "pd3o,pd3o"],
    ])
    def test_a_grid_whose_series_ids_repeat_is_a_config_error(self, tmp_path, monkeypatch,
                                                               capsys, grid):
        def no_reference(*args, **kwargs):
            raise AssertionError("compare computed a reference for a refused grid")

        monkeypatch.setattr(cli, "reference_solution", no_reference)
        code = main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--algorithms", "pd3o", *grid, "--lambdas", "0.125",
                     "--output", str(tmp_path / "d.csv")])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == (
            "config error: two grid cells share the series id 'pd3o_gf1_lam0.125'\n")
        assert os.listdir(tmp_path) == []

    def test_a_grid_runs_alike_on_one_and_three_processes(self, tmp_path):
        # pdfp fails at both forced factors, and each failing cell warns; every
        # output but wall_time_s is the same whichever process ran a cell.  Each
        # run is a fresh interpreter, as from the shell, so warnings reach stderr.
        runs = {}
        for cpus in (1, 3):
            cwd = tmp_path / f"cpus{cpus}"
            cwd.mkdir()
            argv = ["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                    "--seed", "7", "--algorithms", "pd3o,pdfp",
                    "--gamma-factors", "5.0,1.0,5.5", "--force", "--max-iters", "2000",
                    "--reference-iters", "300", "--output", "g.csv"]
            code = (f"import sys; from pdsplit import cli; cli._usable_cpus = lambda: {cpus}; "
                    f"sys.exit(cli.main({argv!r}))")
            env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                       OPENBLAS_NUM_THREADS="1")
            proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == EXIT_NUMERICAL, proc.stderr
            runs[cpus] = proc.stdout, proc.stderr, output_files(cwd)
        assert runs[1] == runs[3]
        stdout, stderr, files = runs[1]
        assert sorted(map(str, files)) == [
            "g.cells/pd3o_gf1_lam0.125.csv", "g.cells/pd3o_gf5.5_lam0.125.csv",
            "g.cells/pd3o_gf5_lam0.125.csv", "g.cells/pdfp_gf1_lam0.125.csv",
            "g.csv", "g.csv.manifest.json"]
        # each failing cell's warnings come just before its failure line
        failing = stderr.split("numerical failure in ")
        assert [part.split(" at iteration")[0] for part in failing[1:]] == [
            "pdfp_gf5_lam0.125", "pdfp_gf5.5_lam0.125"]
        assert all("RuntimeWarning: overflow" in part for part in failing[:2])

    def test_a_rerun_into_the_same_output_replaces_every_file(self, tmp_path, capsys):
        argv = ["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                "--seed", "3", "--max-iters", "300", "--tol", "0",
                "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                "--gamma-factors", "1.0,1.5", "--output", str(tmp_path / "g.csv")]
        runs = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            runs.append((capsys.readouterr().out, output_files(tmp_path)))
        assert runs[1] == runs[0]
        assert sorted(map(str, runs[1][1])) == [
            "g.cells/pd3o_gf1.5_lam0.125.csv", "g.cells/pd3o_gf1_lam0.125.csv",
            "g.cells/pdfp_gf1.5_lam0.125.csv", "g.cells/pdfp_gf1_lam0.125.csv",
            "g.csv", "g.csv.manifest.json"]

    def test_an_output_path_with_a_newline_runs_on_helpers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "two\nlines.csv"
        assert main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o,pdfp",
                     "--gamma-factors", "1.0,1.5", "--output", str(out)]) == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert len(manifest["series"]) == 4 and manifest["failed"] == []

    def test_run_reports_a_failed_cell_as_compare_records_it(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        outcomes = []
        run_cell = cli._run_cell

        def recorded(*args):
            outcomes.append(run_cell(*args))
            return outcomes[-1]

        monkeypatch.setattr(cli, "_run_cell", recorded)
        common = ["--problem", "toy-quadratic", "--n", "6", "--seed", "1", "--lambda", "0.5",
                  "--max-iters", "3000", "--tol", "0", "--force", "--reference-iters", "200"]
        with np.errstate(all="ignore"):
            assert main(["run", *common, "--gamma-factor", "3.0",
                         "--output", str(tmp_path / "run.csv")]) == EXIT_NUMERICAL
            run_err = capsys.readouterr().err
            assert main(["compare", *common, "--algorithms", "pd3o", "--gamma-factors", "3.0",
                         "--lambdas", "0.5", "--output", str(tmp_path / "grid.csv")]
                        ) == EXIT_NUMERICAL
        failed = json.loads((tmp_path / "grid.csv.manifest.json").read_text())["failed"]
        assert [kind for kind, _ in outcomes] == ["failed", "failed"]
        assert outcomes[0][1] == {key: failed[0][key]
                                  for key in ("iteration", "sub_step", "message")}
        assert run_err.splitlines()[-1] == (
            f"numerical failure at iteration {failed[0]['iteration']}: {failed[0]['message']}")

    def test_cells_past_the_theta_cap_are_skipped(self, tmp_path, capsys):
        # theta = 1.4 is below the cap 2 - gamma/(2 beta) = 1.5 at gamma = beta
        # but not below 1.05 at gamma = 1.9 beta
        out = tmp_path / "relaxed.csv"
        code = main(["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                     "--seed", "3", "--max-iters", "30", "--tol", "0",
                     "--reference-iters", "200", "--algorithms", "pd3o",
                     "--gamma-factors", "1.0,1.9", "--lambdas", "0.125",
                     "--theta", "1.4", "--output", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert [s["series_id"] for s in manifest["series"]] == ["pd3o_gf1_lam0.125"]
        [skipped] = manifest["skipped"]
        assert skipped["series_id"] == "pd3o_gf1.9_lam0.125"
        assert skipped["reason"].startswith("theta = 1.4 must lie in (0, 1.05)")
        assert {row[0] for row in read_csv(out)[1:]} == {"pd3o_gf1_lam0.125"}
        assert "skip pd3o_gf1.9_lam0.125: theta = 1.4" in capsys.readouterr().out

    def test_manifest_records_stop_reason(self, tmp_path):
        common = ["compare", "--problem", "fused-lasso", "--n", "20", "--p", "40",
                  "--seed", "3", "--algorithms", "pd3o,pdfp", "--gamma-factors", "1.0",
                  "--lambdas", "0.125", "--reference-iters", "200", "--tol", "1e-6"]
        for name, max_iters in (("short", "5"), ("long", "20000")):
            assert main([*common, "--max-iters", max_iters,
                         "--output", str(tmp_path / f"{name}.csv")]) == EXIT_OK
        reasons = {
            name: [s["stop_reason"] for s in json.loads(
                (tmp_path / f"{name}.csv.manifest.json").read_text())["series"]]
            for name in ("short", "long")
        }
        assert reasons == {"short": ["max_iters"] * 2, "long": ["converged"] * 2}

    def test_dist_to_ref_column_populated(self, tmp_path):
        out = tmp_path / "one.csv"
        main(["compare", "--problem", "fused-lasso", "--n", "40", "--p", "120",
              "--seed", "3", "--max-iters", "1200", "--tol", "0",
              "--log-every", "100", "--reference-iters", "5000",
              "--algorithms", "pd3o", "--gamma-factors", "1.0",
              "--lambdas", "0.125", "--output", str(out)])
        rows = read_csv(out)
        dist = [float(r[4]) for r in rows[1:]]
        assert all(d >= 0 for d in dist)
        assert dist[-1] < 1e-2 * dist[0]


class TestMainEntry:
    def test_unknown_flag_is_parse_error(self):
        assert main(["run", "--frobnicate"]) == EXIT_PARSE

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["run", "--algorithm", "pdfp", "--theta", "1.2"],  # relaxation is pd3o-only
        ["run", "--algorithm", "chambolle-pock"],          # needs f = 0
        # theta = 1.6 exceeds 2 - gamma/(2 beta) = 1.5 at gamma = beta
        ["compare", "--algorithms", "pd3o", "--theta", "1.6"],
    ])
    def test_inadmissible_combination_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was computed for a refused scheme")

        monkeypatch.setattr(cli, "reference_solution", no_reference)
        code = main([*argv, "--problem", "fused-lasso", "--n", "20", "--p", "30",
                     "--max-iters", "20", "--reference-iters", "200",
                     "--output", str(tmp_path / "x.csv")])
        assert code == EXIT_INADMISSIBLE
        assert "inadmissible" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["validate", "--gamma-factor", "0"],
        ["compare", "--gamma-factors", "0"],
        ["validate", "--lambda", "-1"],
        ["validate", "--theta", "0"],
        ["validate", "--n", "1"],
        ["run", "--max-iters", "0"],
        ["compare", "--algorithms", "pd3o,bogus"],
        ["run", "--log-every", "-5"],
        ["compare", "--log-every", "-1"],
        ["run", "--tol", "nan"],
        ["compare", "--tol=-1e-9"],
        ["compare", "--reference-iters", "-3"],
        ["run", "--reference-iters", "-1"],
        ["run", "--noise-var", "nan"],
        ["run", "--mu2", "inf"],
        ["compare", "--mu1", "inf"],
        ["run", "--n", "10", "--p", "20", "--lambda", "inf", "--force"],
        ["compare", "--n", "10", "--p", "20", "--lambdas", "inf", "--force",
         "--algorithms", "pd3o"],
        ["run", "--n", "10", "--p", "20", "--lambda", "1e-320"],
    ])
    def test_rejected_setup_values_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        def no_reference(*args, **kwargs):
            raise AssertionError("a reference was computed for a refused setting")

        monkeypatch.setattr(cli, "reference_solution", no_reference)
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_a_value_error_inside_a_solve_surfaces(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("inside the solve")

        monkeypatch.setattr(cli, "solve", broken)
        with pytest.raises(ValueError, match="inside the solve"):
            main(["run", "--problem", "toy-quadratic", "--n", "4",
                  "--output", str(tmp_path / "x.csv")])

    def test_a_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["run", "--problem", "toy-quadratic", "--n", "4", "--max-iters", "5",
                     "--output", str(tmp_path / "x.csv")]) == EXIT_PARSE
        assert "rename refused" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestBottomSweep:
    def test_gamma_19_lambda_sweep(self, tmp_path):
        # fixed gamma = 1.9*beta, lambda in {1/80, 1/8, 1/4}: the proposed
        # scheme and the two-prox variant run everywhere; the combined-budget
        # scheme survives only at the smallest lambda
        out = tmp_path / "bottom.csv"
        code = main(["compare", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                     "--seed", "3", "--max-iters", "100", "--tol", "0",
                     "--log-every", "50", "--reference-iters", "500",
                     "--algorithms", "pd3o,pdfp,condat-vu,afba",
                     "--gamma-factors", "1.9",
                     "--lambdas", "0.0125,0.125,0.25", "--output", str(out)])
        assert code == EXIT_OK
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        ran = {s["series_id"] for s in manifest["series"]}
        assert ran == {
            "pd3o_gf1.9_lam0.0125", "pd3o_gf1.9_lam0.125", "pd3o_gf1.9_lam0.25",
            "pdfp_gf1.9_lam0.0125", "pdfp_gf1.9_lam0.125", "pdfp_gf1.9_lam0.25",
            "condat-vu_gf1.9_lam0.0125",
        }
        assert len(manifest["skipped"]) == 5


class TestNumericalFailureExit:
    def test_forced_divergence_returns_exit_3(self, tmp_path):
        with np.errstate(all="ignore"):
            code = main(["run", "--problem", "toy-quadratic", "--n", "6",
                         "--seed", "1", "--gamma-factor", "3.0", "--lambda", "0.5",
                         "--max-iters", "3000", "--tol", "0", "--force",
                         "--output", str(tmp_path / "div.csv")])
        assert code == EXIT_NUMERICAL


class TestRelaxationFlag:
    def test_theta_flag_runs_relaxed_solver(self, tmp_path):
        out = tmp_path / "relaxed.csv"
        code = main(["run", "--problem", "fused-lasso", "--n", "40", "--p", "120",
                     "--seed", "3", "--gamma-factor", "1.0", "--lambda", "0.125",
                     "--theta", "1.4", "--max-iters", "300", "--tol", "0",
                     "--output", str(out)])
        assert code == EXIT_OK
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        assert meta["theta"] == 1.4
