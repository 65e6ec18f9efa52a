"""Runner surface: dispatch, exit codes, CSV format, determinism, config files."""

import glob
import inspect
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from smoothconvex import cli, metrics, online, problems, stochastic
from smoothconvex.core import Domain, NumericError
from smoothconvex.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXPERIMENTS,
                              RunConfig, main, parse_config_file, resolve_params,
                              run)
from smoothconvex.problems import psi_transform

import frozen_kernels
from test_reachability import SMALL
from test_references import REFERENCE


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, no forked worker is left running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Runs every fork map of cli as it runs and returns the list of the
    process counts they chose: the seeds' map first, then each seed's map of
    its experiment's parts.  Each item returns, with its result, the pid that
    ran it and the counts of the maps it made, so a forked share's nested
    maps are counted too."""
    seen = []
    fork_map = cli._fork_map

    def recording(fn, items):
        def tagged(x):
            mark = len(seen)
            result = fn(x)
            nested = seen[mark:]
            del seen[mark:]
            return os.getpid(), nested, result

        out = fork_map(tagged, items)
        seen.append(len({pid for pid, _, _ in out}))
        for _, nested, _ in out:
            seen.extend(nested)
        return [result for _, _, result in out]

    monkeypatch.setattr(cli, "_fork_map", recording)
    return seen


@pytest.fixture
def forks(monkeypatch):
    """The pids of this process's calls to os.fork, in order; a forked
    child's own forks are not recorded here."""
    seen, fork = [], os.fork

    def counted():
        seen.append(os.getpid())
        return fork()

    monkeypatch.setattr(cli.os, "fork", counted)
    return seen


class TestDispatch:
    def test_unknown_experiment_exits_2_with_registry(self, tmp_path, capsys):
        rc = main(["run", "nope", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        for name in EXPERIMENTS:
            assert name in err

    def test_unknown_key_exits_2_with_valid_keys(self, tmp_path, capsys):
        rc = main(["run", "psi_transform_table", "--foo=1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "foo" in err and "gamma_grid" in err

    def test_unknown_command(self, capsys):
        assert main(["walk", "x"]) == EXIT_CONFIG

    def test_missing_experiment(self, capsys):
        assert main(["run"]) == EXIT_CONFIG

    @pytest.mark.parametrize("args", [
        ["--T=abc"],
        ["--seed", "1,x"],
        ["--seed=x"],
        ["--seed"],
        ["--config"],
        ["--seed", "-1"],
        ["--seed", "18446744073709551616"],
        ["--seed", "1,1"],                  # two runs would write one CSV
        ["--seed=0,2,0"],
        ["--seed", "1,01"],
    ])
    def test_malformed_flag_exits_2_with_message(self, tmp_path, capsys, args):
        rc = main(["run", "penalty_impossibility", "--out", str(tmp_path), *args])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_repeated_in_a_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1,1\nT = 10\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["run", "penalty_impossibility", "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --seed repeats a seed: '1,1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--jobs", "2"], "unrecognized argument '--jobs'"),
        (["--jobs=2"], "unknown key 'jobs'; valid keys: T, d, egv_grid")],
        ids=["space", "equals"])
    def test_jobs_flag_is_refused(self, tmp_path, capsys, args, message):
        # the affinity mask caps a run's processes; no flag does
        rc = main(["run", "gv_regret_sweep", *args, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("equals", [False, True], ids=["space", "equals"])
    def test_missing_config_file_exits_2(self, tmp_path, capsys, equals):
        config = [f"--config={tmp_path / 'absent.cfg'}"] if equals else [
            "--config", str(tmp_path / "absent.cfg")]
        rc = main(["run", "penalty_impossibility", *config, "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("equals", [False, True], ids=["space", "equals"])
    @pytest.mark.parametrize("cpus,seeds,want,parts", [
        *(pytest.param(cpus, "1,2,3", want, parts, id=f"{cpus}-{want}")
          for cpus, want, parts in [(8, 3, 2), (4, 3, 1), (3, 3, 1), (2, 2, 1), (1, 1, 1)]),
        pytest.param(2, "0", 1, 2, id="one-seed"),
        pytest.param(3, "0", 1, 3, id="one-seed-three-cpus"),
        pytest.param(2, "0,1", 2, 1, id="two-seeds"),
        pytest.param(1, "0", 1, 1, id="one-seed-one-cpu")])
    def test_workers_capped_by_seeds_and_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                              cpus, seeds, want, parts, equals):
        # one worker per seed and per usable CPU at most; each seed's parts,
        # three grid points, may use the CPUs the seeds leave
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        flags = {"--seed": seeds, "--out": str(tmp_path)}
        args = ([f"{k}={v}" for k, v in flags.items()] if equals
                else [a for kv in flags.items() for a in kv])
        rc = main(["run", "expert_switch", "--T=10", "--m_grid=4;8;16", *args])
        assert rc == EXIT_OK
        n = len(seeds.split(","))
        assert pool_sizes == [want] + [parts] * n
        assert want * parts <= cpus
        assert sorted(p.name for p in tmp_path.glob("*_?.csv")) == [
            f"expert_switch_{s}.csv" for s in seeds.split(",")]

    @pytest.mark.parametrize("args", [["--m_min=5", "--m_max=4"], ["--m_min=0"],
                                      ["--m_min=5", "--m_max=4", "--seed", "0,1"]])
    def test_mixedgrad_rate_epoch_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                                pool_sizes, args):
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        out = tmp_path / "out"
        rc = main(["run", "mixedgrad_rate", "--out", str(out), *args])
        assert rc == EXIT_CONFIG
        assert "m_min" in capsys.readouterr().err
        assert not out.exists()
        assert pool_sizes == []  # refused before any worker starts

    @pytest.mark.parametrize("experiment,arg,key", [
        ("gv_regret_sweep", "--egv_grid=1;x", "egv_grid"),
        ("gv_regret_sweep", "--egv_grid=", "egv_grid"),
        ("expert_switch", "--m_grid=4;y", "m_grid"),
        ("expert_switch", "--m_grid=1", "m_grid"),
        ("bandit_estimate", "--d_grid=0", "d_grid"),
        ("bandit_estimate", "--delta=0", "delta"),
        ("gv_regret_sweep", "--T=0", "T"),
        ("gv_regret_sweep", "--d=0", "d"),
        ("ogd_vs_omp_adversary", "--T=0", "T"),
        ("hinge_mistakes", "--T=0", "T"),
        ("hinge_mistakes", "--d=3", "d"),
        ("soft_constraints", "--T=0", "T"),
        ("soft_constraints", "--radius_R=0", "radius_R"),
        ("penalty_impossibility", "--T=0", "T"),
        ("oneproj_general", "--T_grid=0", "T_grid"),
        ("oneproj_strong", "--T_grid=1;10", "T_grid"),
        ("psi_transform_table", "--gamma_grid=1;z", "gamma_grid"),
        ("emgd_variance", "--T=0", "T"),
        ("mixedgrad_rate", "--T1=0", "T1"),
        ("clippedsgd_target", "--T1=0", "T1"),
        ("emgd_variance", "--epochs=0", "epochs"),
        ("clippedsgd_target", "--stages=0", "stages"),
        ("mixedgrad_rate", "--eta_factor=0", "eta_factor"),
        ("emgd_variance", "--n=-1", "n"),
        ("emgd_variance", "--d=-1", "d"),
        ("emgd_variance", "--lam=nan", "lam"),
        ("emgd_variance", "--Delta1=-1", "Delta1"),
        ("mixedgrad_rate", "--n=-3", "n"),
        ("hinge_mistakes", "--radius_R=-1", "radius_R"),
        ("hinge_mistakes", "--radius_R=nan", "radius_R"),
        ("hinge_mistakes", "--radius_R=inf", "radius_R"),
        ("hinge_mistakes", "--radius_R=1.3e154", "radius_R"),  # R * R is finite, the bound not
        ("hinge_mistakes", "--radius_R=1e160", "radius_R"),   # R * R overflows
        ("hinge_mistakes", "--radius_R=1e200", "radius_R"),
        ("hinge_mistakes", "--radius_R=1e308", "radius_R"),
        ("ogd_vs_omp_adversary", "--gv_target=nan", "gv_target"),
        ("oneproj_general", "--center_x=nan", "center_x"),
    ])
    def test_bad_experiment_parameter_exits_2(self, tmp_path, capsys, experiment,
                                              arg, key):
        out = tmp_path / "out"
        rc = main(["run", experiment, "--out", str(out), arg])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("args", [
        ["soft_constraints", "--radius_R=1e200", "--T=10"],
        ["emgd_variance", "--row_norm=1e300", "--n=5", "--T=5"],  # eigvalsh fails
    ], ids=lambda args: args[0])
    def test_numeric_failure_exits_3_with_message(self, tmp_path, capsys, args):
        rc = main(["run", *args, "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "Traceback" not in err
        assert err.startswith(f"numeric failure: {args[0]} seed=0: ")
        assert "(34, " not in err  # OverflowError's text, not its errno tuple

    def test_hinge_bound_that_overflows_exits_3(self, tmp_path, capsys, monkeypatch):
        # the least bound at R = 1e100 is finite; an egv of 1e300 takes it to inf
        from smoothconvex import adversary
        monkeypatch.setattr(adversary, "measure_egv_exact", lambda losses: 1e300)
        rc = main(["run", "hinge_mistakes", "--radius_R=1e100", "--T=20",
                   "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith(
            "numeric failure: hinge_mistakes seed=0: mistake bound is inf")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                     FloatingPointError("underflow in exp"),
                                     np.linalg.LinAlgError("SVD did not converge"),
                                     NumericError("stage-radius recursion moved away")],
                             ids=lambda e: type(e).__name__)
    def test_numeric_exception_kinds_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        # every ArithmeticError, LinAlgError and NumericError an experiment
        # raises is mapped
        def fail(seed, params):
            raise exc
        monkeypatch.setitem(EXPERIMENTS, "psi_transform_table",
                            (fail, EXPERIMENTS["psi_transform_table"][1]))
        rc = main(["run", "psi_transform_table", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert (capsys.readouterr().err
                == f"numeric failure: psi_transform_table seed=0: {exc}\n")

    def test_zero_first_variance_named_without_warnings(self, tmp_path, capsys):
        # one component: every anchored variance is 0, so the ratio is 0/0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "emgd_variance", "--n=1", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == ("numeric failure: emgd_variance seed=0: "
                                           "epoch 1's variance_mixed is 0.0; the ratio needs > 0\n")
        assert not caught, [str(w.message) for w in caught]
        assert not (tmp_path / "emgd_variance_0.csv").exists()

    @pytest.mark.parametrize("args", [["--seed=-1"], ["--seed=18446744073709551616"],
                                      ["--seed", "0,18446744073709551616"]])
    def test_seed_outside_64_bits_refused_before_output(self, tmp_path, capsys, args):
        # make_rng keeps a seed's low 64 bits, so -1 would rerun 2**64 - 1
        out = tmp_path / "out"
        rc = main(["run", "penalty_impossibility", "--out", str(out), *args])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: --seed ")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_run_api_refuses_seed_outside_64_bits(self, tmp_path, seed):
        # the library path aliased -1 onto 2**64 - 1 and wrote *_-1.csv
        from smoothconvex.core import ConfigurationError
        out = tmp_path / "out"
        with pytest.raises(ConfigurationError, match=r"^seed must lie in 0\.\."):
            run(RunConfig("penalty_impossibility", seed=seed, overrides={"T": "10"},
                          output_dir=str(out)))
        assert not out.exists()

    def test_run_all_script_refuses_seed_outside_64_bits(self, tmp_path):
        root = Path(cli.__file__).resolve().parents[2]
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_all_experiments.py"),
             "--seed", "0,-1", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert done.returncode == 2
        assert "--seed must lie in 0.." in done.stderr and "Traceback" not in done.stderr
        assert not out.exists()

    def test_run_all_script_refuses_a_repeated_seed(self, tmp_path):
        root = Path(cli.__file__).resolve().parents[2]
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_all_experiments.py"),
             "--seed", "3,1,3", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert done.returncode == 2
        assert "--seed repeats a seed: '3,1,3'" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        rc = main(["run", "penalty_impossibility", "--T=10", "--seed",
                   "18446744073709551615", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "penalty_impossibility_18446744073709551615.csv").exists()

    def test_other_exceptions_are_not_numeric_failures(self, tmp_path, monkeypatch):
        # the mapping is narrow: a program fault still surfaces as itself
        def fail(seed, params):
            raise KeyError("rows")
        monkeypatch.setitem(EXPERIMENTS, "psi_transform_table",
                            (fail, EXPERIMENTS["psi_transform_table"][1]))
        with pytest.raises(KeyError, match="rows"):
            main(["run", "psi_transform_table", "--out", str(tmp_path)])

    def test_every_registry_entry_has_defaults(self):
        for name, (fn, defaults) in EXPERIMENTS.items():
            assert callable(fn)
            assert isinstance(defaults, dict)
            resolve_params(name, {})


class TestRunOutputs:
    def test_psi_table_passthrough(self, tmp_path):
        rc = main(["run", "psi_transform_table", "--seed", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "psi_transform_table_3.csv")
        assert header == ["eta", "gamma", "psi"]
        assert len(rows) == 27
        for eta_s, gamma_s, psi_s in rows:
            assert float(psi_s) == psi_transform(float(eta_s), float(gamma_s))

    def test_emgd_variance_column_nonincreasing_from_file(self, tmp_path):
        rc = main(["run", "emgd_variance", "--seed", "1", "--out", str(tmp_path),
                   "--n=100", "--d=5", "--T=1500", "--epochs=6"])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "emgd_variance_1.csv")
        col = header.index("variance_mixed")
        vm = [float(r[col]) for r in rows]
        assert all(b <= a for a, b in zip(vm, vm[1:]))

    def test_mixedgrad_rate_rows_equal_one_run_per_m(self):
        p = resolve_params("mixedgrad_rate", {"m_min": "2", "m_max": "4", "T1": "5"})
        got = cli.exp_mixedgrad_rate(3, p)
        # each row as a run of its own at m computes it
        data = problems.synthetic_regression(200, 10, seed=11, noise=0.3, row_norm=1.0)
        prob = problems.least_squares_problem(data, lam=0.0)
        wopt = np.linalg.lstsq(prob.X, prob.y, rcond=None)[0]
        dom = Domain.ball(2.0 * float(np.linalg.norm(wopt)))
        fstar = metrics.reference_optimum(prob, dom)["F"]
        want = []
        for m in (2, 3, 4):
            tr = stochastic.mixed_grad(prob, dom, seed=3, T1=5, m=m,
                                       lambda1=prob.constants.L_full,
                                       eta=0.25 / prob.constants.L_comp)
            want.append({"iter": m, "calls_full": tr.calls_full,
                         "calls_stochastic": tr.calls_stochastic,
                         "suboptimality": prob.full_value(tr.final_point) - fstar})
        assert got.rows == want
        assert got.final_metric == want[-1]["suboptimality"]

    def test_summary_row_per_run(self, tmp_path):
        rc = main(["run", "penalty_impossibility", "--seed", "1,2", "--out",
                   str(tmp_path)])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == ["experiment", "seed", "final_metric", "slope", "runtime_ms"]
        assert [r[1] for r in rows] == ["1", "2"]
        assert os.path.exists(tmp_path / "penalty_impossibility_1.csv")
        assert os.path.exists(tmp_path / "penalty_impossibility_2.csv")

    def test_single_level_sweep_has_no_slope(self, tmp_path, capsys):
        # one level is one x: the summary says "no slope", not a made-up one
        rc = main(["run", "gv_regret_sweep", "--T=5", "--egv_grid=1e308",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        header, rows = read_csv(tmp_path / "summary.csv")
        assert rows[0][header.index("slope")] == "nan"
        assert " slope=nan " in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "bandit_estimate", "--seed", "7", "--out",
                         str(out)]) == EXIT_OK
        fa = (a / "bandit_estimate_7.csv").read_bytes()
        fb = (b / "bandit_estimate_7.csv").read_bytes()
        assert fa == fb

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMOOTHCONVEX_OUT", str(tmp_path / "envout"))
        assert main(["run", "psi_transform_table"]) == EXIT_OK
        assert os.path.exists(tmp_path / "envout" / "psi_transform_table_0.csv")

    def test_hinge_comparator_cost_independent_of_radius(self, tmp_path):
        # the comparator grid scales with R; a fixed 0.05 step took 38 s on a 2-CPU VM
        start = time.perf_counter()
        rc = main(["run", "hinge_mistakes", "--T=200", "--radius_R=40", "--out",
                   str(tmp_path)])
        assert rc == EXIT_OK
        assert time.perf_counter() - start < 10.0

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        # a taskset or cpuset run of an 8-CPU machine, pinned to CPUs 2 and 5
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert cli.usable_cpus() == 2
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        assert cli.usable_cpus() == 8

    @pytest.mark.parametrize("how", ["mask-of-one", "no-fork"])
    def test_one_usable_cpu_runs_serially(self, tmp_path, monkeypatch, how):
        # `taskset -c 3 smoothconvex run ...`, or an OS without os.fork: no map
        # forks, and each CSV is the bytes of a serial run
        forks, fork = [], getattr(os, "fork", None)
        if how == "no-fork":
            monkeypatch.delattr(cli.os, "fork", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
            monkeypatch.setattr(cli.os, "fork", lambda: forks.append(1) or fork())
        assert cli.usable_cpus() == 1
        for experiment, seeds in (("emgd_variance", "0,1"), ("soft_constraints", "0")):
            args = SMALL[experiment]
            assert main(["run", experiment, *args, "--seed", seeds,
                         "--out", str(tmp_path / "cli")]) == EXIT_OK
            overrides = dict(a[2:].split("=", 1) for a in args)
            for seed in map(int, seeds.split(",")):
                run(RunConfig(experiment, seed, overrides, str(tmp_path / "serial")))
                name = f"{experiment}_{seed}.csv"
                assert (tmp_path / "cli" / name).read_bytes() == (
                    tmp_path / "serial" / name).read_bytes()
        assert forks == []

    def test_no_bundled_openblas_skips_the_pin(self, monkeypatch, forks):
        # where numpy links another BLAS the glob finds no libscipy_openblas64:
        # nothing is loaded or pinned, and a fork map still returns the serial
        # results.  The real pin is taken first, so this process stays pinned.
        import ctypes
        cli._one_blas_thread()
        cli._one_blas_thread.cache_clear()
        monkeypatch.setattr(glob, "glob", lambda *args, **kwargs: [])
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: pytest.fail("pinned"))
        assert cli._one_blas_thread() is None
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        items = list(range(7))
        assert cli._fork_map(lambda x: x * x - 3, items) == [x * x - 3 for x in items]
        assert len(forks) == 1

    def test_forked_seeds_write_the_serial_bytes(self, tmp_path, monkeypatch):
        small = ["--n=40", "--d=4", "--T=40", "--epochs=3", "--seed", "0,1,2"]
        for out, cpus in (("forked", 3), ("serial", 1)):  # 3: two forked children
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            assert main(["run", "emgd_variance", *small,
                         "--out", str(tmp_path / out)]) == EXIT_OK
        for seed in (0, 1, 2):
            name = f"emgd_variance_{seed}.csv"
            assert (tmp_path / "forked" / name).read_bytes() == (
                tmp_path / "serial" / name).read_bytes()
        forked, serial = (read_csv(tmp_path / out / "summary.csv")
                          for out in ("forked", "serial"))
        assert forked[0] == serial[0] and forked[0][-1] == "runtime_ms"
        assert [r[:-1] for r in forked[1]] == [r[:-1] for r in serial[1]]
        assert [r[1] for r in forked[1]] == ["0", "1", "2"]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("experiment,args,parts", [
        ("gv_regret_sweep", SMALL["gv_regret_sweep"], 2),
        ("gv_regret_sweep", ["--T=20", "--d=2", "--egv_grid=1;4;16"], 3),
        ("soft_constraints", SMALL["soft_constraints"], 2),
        ("ogd_vs_omp_adversary", SMALL["ogd_vs_omp_adversary"], 2),
        ("expert_switch", ["--T=20", "--m_grid=4;16;8"], 3),
        ("hinge_mistakes", SMALL["hinge_mistakes"], 41),
        ("hinge_mistakes", ["--T=20", "--radius_R=2.5"], 41)])
    def test_forked_parts_write_the_serial_bytes(self, tmp_path, monkeypatch, forks,
                                                 experiment, args, parts, cpus):
        # one seed: its experiment's parts fork, up to one process per CPU and
        # part; hinge_mistakes scans its comparator grids (41 coarse rows),
        # gv_regret_sweep plays its levels and ogd_vs_omp_adversary its two
        # learners in the calling process
        name = f"{experiment}_0.csv"
        maps = 0 if experiment in ("hinge_mistakes", "gv_regret_sweep",
                                   "ogd_vs_omp_adversary") else 1
        for out, usable, want in (("forked", cpus, maps * (min(cpus, parts) - 1)),
                                  ("serial", 1, 0)):
            forks.clear()
            monkeypatch.setattr(cli, "usable_cpus", lambda: usable)
            assert main(["run", experiment, *args, "--seed", "0",
                         "--out", str(tmp_path / out)]) == EXIT_OK
            assert len(forks) == want, out
        forked = (tmp_path / "forked" / name).read_bytes()
        assert forked == (tmp_path / "serial" / name).read_bytes()
        if args == SMALL[experiment]:
            assert forked == (REFERENCE / name).read_bytes()

    # coarse-grid minima tied, bit for bit, at three points (w = (-1.5, -4.75),
    # (-1.25, -4.75), (-1.0, -4.75); and (1.0, 1.0), (1.25, 1.0), (1.5, 1.0)),
    # where the fine grid around the first tied point gives another value than
    # around the others; with the coordinates swapped, the three share a row
    TIED = [[[0.625, -0.875], [0.125, -0.125], [-0.5, -0.125], [-0.125, 0.0]],
            [[0.375, 0.625], [-1.0, -0.375], [1.0, -0.5], [0.0, 0.75]]]

    @pytest.mark.parametrize("examples", TIED + [[r[::-1] for r in ex] for ex in TIED],
                             ids=["rows-neg", "rows-pos", "one-row-neg", "one-row-pos"])
    def test_comparator_grid_ties_resolve_as_the_serial_scan(self, examples):
        examples, R = np.array(examples), 5.0   # a coarse step of 0.25: exact sums

        def total(w):
            return float(np.sum(np.maximum(0.0, 1.0 - examples @ w)))

        def grid(half, res):
            return np.arange(-half, half + res / 2, res)

        values = {(a, b): total(np.array([a, b])) for a in grid(R, 0.05 * R)
                  for b in grid(R, 0.05 * R) if a * a + b * b <= R * R}
        least = min(values.values())
        tied = [w for w, v in values.items() if v == least]   # in the scan's order
        assert len(tied) == 3 and least < total(np.zeros(2))
        fine = grid(0.06 * R, 0.002 * R)
        ends = [min([least] + [total(w) for a in fine for b in fine
                               if (w := np.array(t) + np.array([a, b])) @ w <= R * R])
                for t in tied]
        assert ends[0] not in ends[1:]
        want = frozen_kernels.best_hinge(examples, R)
        assert want == ends[0]
        assert cli._best_hinge(examples, R).hex() == want.hex()

    @staticmethod
    def _hinge_streams():
        """40 example streams: drifting ones at T = 1 to 120, drift 0 to 1,
        a mirror-symmetric one, and one with a NaN example."""
        from smoothconvex.adversary import classification_stream
        streams = [classification_stream((0.0, 1.0, 0.1, 0.5, 0.03)[k % 5],
                                         (1, 2, 5, 40, 120, 17, 3)[k % 7], 2, seed=k)
                   for k in range(38)]
        # x and its mirror (−x₀, x₁): at R = 2.5, whose grid steps are dyadic,
        # the coarse least 1.34375 ties exactly at w = (−0.125, 1.375),
        # (0, 1.375) and (0.125, 1.375)
        streams.append(np.array([[0.25, 0.75], [-0.25, 0.75], [0.0, -0.25]]))
        streams.append(np.array([[0.6, 0.8], [np.nan, 0.1], [-0.2, 0.3]]))
        return streams

    @pytest.mark.parametrize("R", [0.05, 0.3, 1.0, 2.5, 4.0])
    def test_comparator_skips_no_point_that_could_win(self, R):
        # the bound T − ⟨Σ x_t, w⟩ prices fewer points; the float is the full
        # scan's, bit for bit (NaN included), on 40 streams at each of 5 radii
        for examples in self._hinge_streams():
            assert cli._best_hinge(examples, R).hex() == (
                frozen_kernels.best_hinge(examples, R).hex()), (R, examples[:2])

    @staticmethod
    def _experts_failing_at(monkeypatch, failing, how):
        """expert_switch on 2 CPUs, with each grid point whose m is in
        `failing` ending by `how`."""
        tuned = online.ExpertOMP.tuned_eta

        def patched(m, egv_inf):
            if m in failing:
                how(m)
            return tuned(m, egv_inf)

        monkeypatch.setattr(online.ExpertOMP, "tuned_eta", staticmethod(patched))
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("failing,named", [({8, 16}, 8), ({4, 8}, 4)])
    def test_first_failing_part_in_item_order_exits_3(self, tmp_path, monkeypatch, capsys,
                                                      failing, named):
        # m = 4 and 16 run in this process, m = 8 in a forked child
        def fail(m):
            raise NumericError(f"m {m} failed")

        self._experts_failing_at(monkeypatch, failing, fail)
        rc = main(["run", "expert_switch", "--T=20", "--m_grid=4;8;16",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"numeric failure: expert_switch seed=5: m {named} failed\n")

    def test_part_worker_ending_without_a_result_exits_2(self, tmp_path, monkeypatch,
                                                         capsys):
        # m = 8, the grid's item 1, is the forked child's: ended here, it
        # would end the calling process
        self._experts_failing_at(monkeypatch, {8}, lambda m: os._exit(1))
        rc = main(["run", "expert_switch", "--T=20", "--m_grid=4;8;16",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: expert_switch seed=5: the worker from "
                                           "1 on ended without a result\n")

    def test_budget_restored_after_a_failing_map(self, tmp_path, monkeypatch, forks):
        # a grid point's failure unwinds through the parts' map and the seeds'
        # map; the next run in this process still splits its parts over both
        # CPUs
        def fail(m):
            raise NumericError(f"m {m} failed")

        self._experts_failing_at(monkeypatch, {8}, fail)
        rc = main(["run", "expert_switch", "--T=20", "--m_grid=4;8;16",
                   "--seed", "5", "--out", str(tmp_path / "failed")])
        assert rc == EXIT_NUMERIC
        forks.clear()
        assert main(["run", "soft_constraints", *SMALL["soft_constraints"], "--seed", "0",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert len(forks) == 1
        name = "soft_constraints_0.csv"
        assert (tmp_path / name).read_bytes() == (REFERENCE / name).read_bytes()

    def test_direct_calls_split_as_the_cli_does(self, tmp_path, monkeypatch, forks):
        # an experiment called as test_acceptance calls it, and run(), take
        # their process count from the affinity mask, as main does
        experiment, name = "soft_constraints", "soft_constraints_0.csv"
        overrides = dict(a[2:].split("=", 1) for a in SMALL[experiment])
        fn, _ = EXPERIMENTS[experiment]
        rows = {}
        for cpus in (2, 1):
            monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
            forks.clear()
            rows[cpus] = fn(0, resolve_params(experiment, overrides)).rows
            assert len(forks) == cpus - 1
            run(RunConfig(experiment, 0, overrides, str(tmp_path / str(cpus))))
            assert len(forks) == 2 * (cpus - 1)
        assert rows[2] == rows[1]
        assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
        assert (tmp_path / "1" / name).read_bytes() == (REFERENCE / name).read_bytes()

    @pytest.mark.skipif(
        not glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*.so"))
        or not os.path.isdir("/proc/self/task") or cli.usable_cpus() < 2,
        reason="needs numpy's bundled OpenBLAS, /proc's thread list and 2 CPUs")
    def test_forked_shares_run_one_blas_thread(self):
        # a fresh process whose OpenBLAS runs 2 threads maps on 3 processes;
        # each counts its threads after a product large enough for OpenBLAS
        # to use all it may, and the caller counts its own after the map too
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import os, numpy as np, smoothconvex.cli as cli\n"
                 "a = np.ones((256, 256))\n"
                 "def threads(_=None):\n"
                 "    a @ a\n"
                 "    return len(os.listdir('/proc/self/task'))\n"
                 "before = threads()\n"
                 "cli.usable_cpus = lambda: 3\n"
                 "shares = cli._fork_map(threads, [0, 1, 2])\n"
                 "print(before, shares[1:], threads())\n")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       OPENBLAS_NUM_THREADS="2"),
                              timeout=60, check=True)
        # before: this thread and OpenBLAS's; each forked share and, after the
        # map, the caller run this thread alone
        assert done.stdout == "2 [1, 1] 1\n"

    @staticmethod
    def _fail_at(monkeypatch, failing, how):
        """psi_transform_table, with each seed in `failing` ending by `how`."""
        fn, params = EXPERIMENTS["psi_transform_table"]

        def patched(seed, p):
            if seed in failing:
                how(seed)
            return fn(seed, p)

        monkeypatch.setitem(EXPERIMENTS, "psi_transform_table", (patched, params))
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("failing,named", [({1, 2}, 1), ({0, 1}, 0)])
    def test_first_failing_seed_in_list_order_exits_3(self, tmp_path, monkeypatch,
                                                      capsys, failing, named):
        # seeds 0 and 2 run in this process, seed 1 in a forked child
        def overflow(seed):
            raise OverflowError(f"seed {seed} overflowed")

        self._fail_at(monkeypatch, failing, overflow)
        rc = main(["run", "psi_transform_table", "--seed", "0,1,2", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            f"numeric failure: psi_transform_table seed={named}: seed {named} overflowed\n")

    def test_worker_ending_without_a_result_exits_2(self, tmp_path, monkeypatch, capsys):
        self._fail_at(monkeypatch, {1}, lambda seed: os._exit(1))
        rc = main(["run", "psi_transform_table", "--seed", "0,1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "seed 1 " in capsys.readouterr().err

    def test_interrupt_stops_and_reaps_the_children(self, tmp_path, monkeypatch):
        def interrupt_or_hang(seed):
            if seed == 0:
                time.sleep(0.2)  # let the child start its seed
                raise KeyboardInterrupt
            time.sleep(60)

        self._fail_at(monkeypatch, {0, 1}, interrupt_or_hang)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(["run", "psi_transform_table", "--seed", "0,1", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 30
        assert cli._share_cpus is None  # the interrupted map restored the budget

    def test_import_loads_no_process_pool(self, tmp_path):
        # the pool modules cost every CLI process start-up; a multi-seed run
        # forks its workers without them
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys, smoothconvex.cli as cli\n"
                 "watch = ('multiprocessing', 'concurrent.futures')\n"
                 "seen = [sorted(m for m in watch if m in sys.modules)]\n"
                 "cli.usable_cpus = lambda: 2\n"
                 "argv = ['run', 'penalty_impossibility', '--T=10', '--seed', '0,1']\n"
                 "assert cli.main([*argv, '--out', sys.argv[1]]) == 0\n"
                 "seen.append(sorted(m for m in watch if m in sys.modules))\n"
                 "print(seen)\n")
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              timeout=60, check=True)
        assert done.stdout.splitlines()[-1] == "[[], []]"

    def test_solver_run_loads_neither_dataclasses_nor_the_online_chapter(self, tmp_path):
        # both cost every CLI process start-up; the online experiments import
        # the chapter when they run.  numpy.ma, which np.unique loads, costs a
        # run's log-log slope about 13 ms
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys, smoothconvex.cli as cli\n"
                 "watch = ('dataclasses', 'numpy.ma', 'smoothconvex.online',\n"
                 "         'smoothconvex.adversary')\n"
                 "seen = [sorted(m for m in watch if m in sys.modules)]\n"
                 "for argv in (['mixedgrad_rate', '--m_max=4', '--n=20', '--d=3', '--T1=4'],\n"
                 "             ['hinge_mistakes', '--T=20']):\n"
                 "    assert cli.main(['run', *argv, '--out', sys.argv[1]]) == 0\n"
                 "    seen.append(sorted(m for m in watch if m in sys.modules))\n"
                 "print(seen)\n")
        done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
                              check=True)
        assert done.stdout.splitlines()[-1] == (
            "[[], [], ['smoothconvex.adversary', 'smoothconvex.online']]")


class TestConfigFile:
    def test_flat_key_value_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nT = 500  # inline\ndelta_penalty = 0.25\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"T": "500", "delta_penalty": "0.25"}

    @pytest.mark.parametrize("flag_first", [False, True], ids=["file-first", "flag-first"])
    @pytest.mark.parametrize("file_text,flags,seed", [
        ("T = 500\n", ["--T=250"], 0),
        ("T = 250\nseed = 3\n", ["--seed", "7"], 7),
    ], ids=["T", "seed"])
    def test_cli_flag_overrides_file(self, tmp_path, flag_first, file_text, flags, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        config = ["--config", str(cfg)]
        args = flags + config if flag_first else config + flags
        rc = main(["run", "penalty_impossibility", *args, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert [p.name for p in tmp_path.glob("*_?.csv")] == [
            f"penalty_impossibility_{seed}.csv"]
        _, rows = read_csv(tmp_path / f"penalty_impossibility_{seed}.csv")
        assert rows[0][0] == "250"

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        assert main(["run", "penalty_impossibility", "--config", str(cfg),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_run_api_unknown_experiment(self, tmp_path):
        from smoothconvex.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            run(RunConfig(experiment="missing", output_dir=str(tmp_path)))


class TestBenchmarkCoupling:
    """perfbench reads learners and experiments by name from outside the
    package; a rename here would silently zero its per-layer metrics."""

    @pytest.fixture
    def layers(self, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import layers
        return layers

    def test_each_traced_learner_is_an_online_class_with_observe(self, layers):
        for name in layers.LEARNERS:
            cls = getattr(online, name, None)
            assert inspect.isclass(cls), name
            assert callable(getattr(cls, "observe", None)), name

    def test_kernel_table_calls_each_kernel(self, monkeypatch):
        # each kernel once on its first input, so a change that would crash
        # `perfbench/run.py --trace 1` fails here
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import kernels
        called = []

        def once(fn, inputs):
            called.append(fn(*inputs[0]))
            return 0.0

        monkeypatch.setattr(kernels, "_time_per_call_us", once)
        table = kernels.kernel_table(0)
        assert len(called) == len(table) == 7
        assert set(table.values()) == {(0.0, "us")}

    def test_experiments_unpack_as_function_and_params(self):
        # perfbench/spans.py unpacks each entry as `fn, defaults`
        for name, entry in EXPERIMENTS.items():
            assert isinstance(entry, tuple) and len(entry) == 2, name
            fn, params = entry
            assert inspect.isfunction(fn) and isinstance(params, dict), name


class TestOnlineReferenceBytes:
    """The online-sweep workload's small profile at seed 0, run through
    cli.main, writes CSVs byte-identical to perfbench's recorded references,
    so a change in any online float fails here and not only in the
    benchmark's check, which allows a relative difference of 1e-6."""

    def test_small_online_sweep_matches_the_references(self, tmp_path, monkeypatch):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import workloads
        ref = os.path.join(root, "perfbench", "reference", "small", "online-sweep")
        argvs = workloads.invocations("online-sweep", "small", 0)
        assert len(argvs) == len(workloads.ONLINE_EXPERIMENTS) == 7
        differ = []
        for argv in argvs:
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK, argv
            name = f"{argv[1]}_0.csv"
            with open(tmp_path / name, "rb") as got, \
                    open(os.path.join(ref, name), "rb") as want:
                if got.read() != want.read():
                    differ.append(name)
        assert not differ, "differs from its reference: " + ", ".join(differ)
