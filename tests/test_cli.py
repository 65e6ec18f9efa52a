"""Runner surface: dispatch, exit codes, CSV format, determinism, config files."""

import inspect
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from smoothconvex import cli, metrics, online, problems, stochastic
from smoothconvex.core import Domain
from smoothconvex.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXPERIMENTS,
                              RunConfig, main, parse_config_file, resolve_params,
                              run)
from smoothconvex.problems import psi_transform


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces cli's process pool with an in-process one and returns the
    list of the worker counts it was built with."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
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
        ["--jobs"],
        ["--jobs", "two"],
        ["--jobs", "0"],
        ["--config"],
        ["--seed", "-1"],
        ["--seed", "18446744073709551616"],
    ])
    def test_malformed_flag_exits_2_with_message(self, tmp_path, capsys, args):
        rc = main(["run", "penalty_impossibility", "--out", str(tmp_path), *args])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["run", "penalty_impossibility", "--config",
                   str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs,cpus,want", [(64, 8, 3), (64, 2, 2), (2, 8, 2)])
    def test_jobs_capped_by_seeds_and_cpus(self, tmp_path, monkeypatch, pool_sizes,
                                          jobs, cpus, want):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        rc = main(["run", "penalty_impossibility", "--T=10", "--seed", "1,2,3",
                   "--jobs", str(jobs), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert pool_sizes == [want]

    @pytest.mark.parametrize("args", [["--m_min=5", "--m_max=4"], ["--m_min=0"],
                                      ["--m_min=5", "--m_max=4", "--jobs", "2",
                                       "--seed", "0,1"]])
    def test_mixedgrad_rate_epoch_range_exits_2(self, tmp_path, capsys, monkeypatch,
                                                pool_sizes, args):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
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
        ["hinge_mistakes", "--radius_R=1e160"],          # R ** 2 overflows
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

    @pytest.mark.parametrize("exc", [ZeroDivisionError("float division by zero"),
                                     FloatingPointError("underflow in exp"),
                                     np.linalg.LinAlgError("SVD did not converge")],
                             ids=lambda e: type(e).__name__)
    def test_numeric_exception_kinds_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        # every ArithmeticError and LinAlgError an experiment raises is mapped
        def fail(seed, params):
            raise exc
        monkeypatch.setitem(EXPERIMENTS, "psi_transform_table",
                            (fail, EXPERIMENTS["psi_transform_table"][1]))
        rc = main(["run", "psi_transform_table", "--out", str(tmp_path)])
        assert rc == EXIT_NUMERIC
        assert (capsys.readouterr().err
                == f"numeric failure: psi_transform_table seed=0: {exc}\n")

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

    def test_jobs_parallel_seeds(self, tmp_path):
        rc = main(["run", "penalty_impossibility", "--seed", "1,2,3", "--jobs", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 3

    def test_import_loads_no_process_pool(self):
        # the pool modules cost every CLI process start-up; only --jobs uses them
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys, smoothconvex.cli; print(sorted(m for m in sys.modules"
                 " if m in ('multiprocessing', 'concurrent.futures')))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                              timeout=60, check=True)
        assert done.stdout == "[]\n"


class TestConfigFile:
    def test_flat_key_value_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nT = 500  # inline\ndelta_penalty = 0.25\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"T": "500", "delta_penalty": "0.25"}

    def test_cli_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 500\n")
        rc = main(["run", "penalty_impossibility", "--config", str(cfg),
                   "--T=250", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, rows = read_csv(tmp_path / "penalty_impossibility_0.csv")
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
