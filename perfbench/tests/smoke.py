"""Smoke test of the benchmark at the reduced `small` profile.

    python3 -m pytest perfbench/tests/smoke.py

Each workload runs untraced and traced as a fresh `perfbench/run.py` process,
as the benchmark is run for real. The test checks that every metric
BENCHMARK.json names is printed with its unit, that no run fails, and that the
per-layer counts take their expected values. The file name keeps it out of
the repository's default test collection; pass the path to run it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def mixed_grad_steps(m_min: int, m_max: int, T1: int = 30) -> int:
    """Stochastic steps of mixedgrad_rate: runs m = m_min..m_max, epoch k of a
    run having T1·4^(k-1) steps (the shrink factor 2, squared)."""
    return sum(T1 * 4 ** k for m in range(m_min, m_max + 1) for k in range(m))


def online_rounds(T_gv, T_soft, T_ogd, T_hinge, T_expert, T_bandit, T_penalty) -> int:
    """Learner rounds of online-sweep: 4 variation levels × {OMP, IFTRL};
    soft + zero-violation; OGD + OMP; one classifier; 2 expert counts;
    3 bandit dimensions; one penalty learner."""
    return (8 * T_gv + 2 * T_soft + 2 * T_ogd + T_hinge + 2 * T_expert
            + 3 * T_bandit + T_penalty)


# At the full profile the same formulas give the figures in perfbench/README.md.
EXPECTED_SMALL = {
    "mixed-rate": {
        "problems.anchored_component_diff.calls": mixed_grad_steps(4, 5),
        "stochastic.mixed_grad.steps": mixed_grad_steps(4, 5),
        "core.project_two_balls.calls": mixed_grad_steps(4, 5),
        "stochastic.agd.steps": 100_000,
        "metrics.reference_optimum.calls": 1,
        "online.rounds": 0,
    },
    "setup-scale": {
        # 1,001 passes in estimate_constants per build, 2 per epoch probe
        "problems.all_component_grads.calls": 2 * (1001 + 2 * 10),
        "problems.all_component_grads.bytes": 2 * (1001 + 2 * 10) * 500 * 10 * 8,
        "stochastic.emgd.steps": 2 * 10 * 100,
        "stochastic.agd.steps": 0,
    },
    "online-sweep": {
        "online.rounds": online_rounds(1000, 1000, 1000, 500, 500, 50, 500),
        "core.project_two_balls.calls": 0,
        "problems.all_component_grads.calls": 0,
        "stochastic.mixed_grad.steps": 0,
    },
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_full_profile_counts_match_the_stated_figures():
    assert mixed_grad_steps(4, 7) == 217_560
    assert online_rounds(10_000, 10_000, 10_000, 2000, 2000, 100, 1000) == 127_300


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        for name, value in EXPECTED_SMALL[workload].items():
            assert res["metrics"][name]["value"] == value, name
        assert res["metrics"]["cli.csv_identical"]["value"] == 1
    else:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result(bench("online-sweep", 1))["metrics"] for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("online-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
