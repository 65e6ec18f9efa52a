"""Every function in the package is called by what the package is for, or is
listed in ALLOWED with the reason it stays.

What the package is for: every registered experiment, run through the CLI
at small settings, and the README's library-use examples, all under a
`sys.setprofile` hook.  A function that only unit tests call answers to no
experiment, example or thesis claim, so a change that leaves one behind
fails here until the function is deleted or listed with its reason.
"""

import inspect
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from smoothconvex import cli

import test_readme

SRC = Path(cli.__file__).resolve().parent

# small settings that still take every experiment through each of its stages
SMALL = {
    "emgd_variance": ["--n=40", "--d=4", "--T=40", "--epochs=3"],
    "mixedgrad_rate": ["--n=20", "--d=3", "--m_min=1", "--m_max=3", "--T1=4"],
    "clippedsgd_target": ["--stages=2", "--T1=20"],
    "oneproj_general": ["--T_grid=10;20"],
    "oneproj_strong": ["--T_grid=10;20"],
    "gv_regret_sweep": ["--T=20", "--d=2", "--egv_grid=1;4"],
    "ogd_vs_omp_adversary": ["--T=50"],
    "expert_switch": ["--T=20", "--m_grid=4"],
    "bandit_estimate": ["--T=5", "--d_grid=2"],
    "soft_constraints": ["--T=20"],
    "penalty_impossibility": ["--T=20"],
    "psi_transform_table": ["--gamma_grid=1"],
    "hinge_mistakes": ["--T=20"],
}

# Functions the reach above does not call, each with why it stays.  A name
# that occurs more than once in a module (lambdas, nested helpers) carries
# its 1-based place among them in source order, as in `<lambda>[2]`.
ALLOWED = {
    # criterion 11: projection, sampling and sgd on all five domain kinds
    "core.Box.__init__": "criterion 11",
    "core.L1Ball.__init__": "criterion 11",
    "core.Box.projector": "criterion 11",
    "core.Box.projector.<locals>.<lambda>": "criterion 11: the box kernel",
    "core.L1Ball.projector": "criterion 11",
    "core.HalfspaceCut.projector": "criterion 11",
    "core.HalfspaceCut._project": "criterion 11",
    "core._onto_ring": "criterion 11: the halfspace projection; two-ball steps that "
                       "meet both spheres (test_core)",
    "core.HalfspaceCut.contains": "criterion 11: the halfspace projection",
    "core.Domain.contains": "criterion 11: the halfspace projection",
    "core.Ball.sample": "criterion 11",
    "core.Box.sample": "criterion 11",
    "core.Simplex.sample": "criterion 11",
    "core.L1Ball.sample": "criterion 11",
    "core.HalfspaceCut.sample": "criterion 11",
    "core.project_l1_ball": "criterion 11",
    "stochastic.sgd": "criterion 11",
    "problems.FiniteSumProblem.stochastic_grad": "criterion 11; objective protocol",
    "problems.FiniteSumProblem.component": "criterion 11; objective protocol",
    "problems.FiniteSumProblem.component_grad": "criterion 11; objective protocol",
    # membership on the kinds no experiment uses: Domain.contains reads g
    "core.Box.g": "membership: Domain.contains",
    "core.Simplex.g": "membership: Domain.contains",
    "core.L1Ball.g": "membership: Domain.contains",
    "core.Domain.linear_minimizer":
        "test_metrics: the comparator refuses a box, l1 ball or halfspace cut",
    # perfbench's kernel table times these (ROADMAP item 1)
    "core.project_ball": "perfbench kernel table (ROADMAP item 1)",
    "core.project_two_balls": "perfbench kernel table (ROADMAP item 1)",
    "core.dykstra": "perfbench kernel table (ROADMAP item 1)",
    "core.MirrorMap.entropy": "perfbench kernel table (ROADMAP item 1)",
    "core.prox_step": "perfbench kernel table (ROADMAP item 1)",
    "core.prox_step.<locals>.candidate": "perfbench kernel table (ROADMAP item 1)",
    "problems.FiniteSumProblem.anchored_component_diff":
        "perfbench kernel table (ROADMAP item 1)",
    # tests that check a thesis claim read these
    "problems.smoothed_hinge_value":
        "criterion 10's and test_problems' ψ oracles compare against it",
    "stochastic.gd": "the GD baseline of the mixed chapter's claim (ROADMAP item 18)",
    # public protocol and plumbing
    "online.OGD.predict": "learner protocol: predict/observe",
    "online.SoftConstraintOGD.lam": "the duals as an array (test_online's dual checks)",
    "problems.LabeledDataset.n": "a loaded dataset's shape (README: Data format)",
    "problems.LabeledDataset.d": "a loaded dataset's shape (README: Data format)",
    "cli.parse_config_file": "CLI plumbing: --config (test_cli)",
    "cli._usage": "CLI plumbing: --help (test_cli)",
    "cli._one_blas_thread": "the fork map pins OpenBLAS before it forks (test_cli)",
    "cli.RunConfig.__str__": "names the run of a worker that died (test_cli)",
}


def _functions() -> dict:
    """{(file, first line): name} of every function, method and lambda
    defined in the package's modules.  Class bodies and comprehensions are
    not functions; NamedTuple-generated methods have no source file there."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        found = []
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and (
                    code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                found.append((code.co_firstlineno, f"{path.stem}.{code.co_qualname}"))
        repeated = Counter(name for _, name in found)
        place = Counter()
        for line, name in sorted(found):
            if repeated[name] > 1:
                place[name] += 1
                name = f"{name}[{place[name]}]"
            out[(str(path), line)] = name
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    """Names of the package functions that the experiments and the README
    examples call."""
    calls = set()

    def hook(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    out = tmp_path_factory.mktemp("reach")
    # a pair of rows with opposite labels puts the optimum at the origin, so
    # the README's certified solve stops at its first budget
    (out / "train.libsvm").write_text("+1 1:0.8 2:0.1\n-1 1:0.8 2:0.1\n",
                                      encoding="utf-8")
    blocks = test_readme.library_use_blocks()
    cwd = os.getcwd()
    # one usable CPU, as under `taskset -c 0`: the hook sees this process
    # only, not a forked worker, so every map runs here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        sys.setprofile(hook)
        try:
            for name, args in SMALL.items():
                rc = cli.main(["run", name, "--seed", "0", "--out", str(out), *args])
                assert rc == cli.EXIT_OK, name
            os.chdir(out)
            namespace: dict = {}
            for block in blocks:
                exec(compile(block, "README.md", "exec"), namespace)
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    functions = _functions()
    keys = {(str(Path(f).resolve()), line) for f, line in calls}
    return {functions[key] for key in keys if key in functions}


def test_every_experiment_is_in_the_reach():
    assert set(SMALL) == set(cli.EXPERIMENTS)


def test_every_function_is_reached_or_allowed(reached):
    orphans = sorted(set(_functions().values()) - reached - set(ALLOWED))
    assert not orphans, "called by no experiment or README example: " + ", ".join(orphans)


def test_every_allowed_function_exists_and_is_unreached(reached):
    assert not set(ALLOWED) - set(_functions().values()), "allowed but not defined"
    assert not set(ALLOWED) & reached, "allowed but reached: drop it from ALLOWED"
