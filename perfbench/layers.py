"""Per-layer metrics computed from the spans of one traced repetition.

Names are `<module>.<function>.<quantity>`. Units and meaning:
- `.calls`, `.steps`, `online.rounds`: counts, exact for a given seed;
- `.self_us`, `_us`: mean self time per call (per step for `.step_self_us`,
  per round for learners) in µs, child spans excluded;
- `.s`: wall seconds inside calls to the function or group, nested calls
  counted once (inclusive), so a phase's share of `run_s` can be read off;
- `.bytes`: bytes produced (`n·d·8` per gradient matrix, experiment CSV
  file sizes).
"""

from __future__ import annotations

import os

from workloads import ONLINE_EXPERIMENTS

LEARNERS = ("OMP", "IFTRL", "OGD", "ExpertOMP", "BanditOMP", "SoftConstraintOGD",
            "ZeroViolationOGD", "PenaltyOGD")
SOLVERS = ("mixed_grad", "emgd", "agd")
EXPERIMENTS = ("mixedgrad_rate", "emgd_variance", *ONLINE_EXPERIMENTS)

# span name -> f(args, kwargs, result): the quantity one call adds
HOOKS = {
    "stochastic.mixed_grad": lambda a, k, r: r.calls_stochastic,
    "stochastic.emgd": lambda a, k, r: r.calls_stochastic,
    "stochastic.agd": lambda a, k, r: r.calls_full,
    "problems.FiniteSumProblem.all_component_grads":
        lambda a, k, r: a[0].X.shape[0] * a[0].X.shape[1] * 8,
    # summary.csv carries wall times, so only experiment CSVs are counted
    "cli.write_csv": lambda a, k, r: (0 if os.path.basename(a[0]) == "summary.csv"
                                      else os.path.getsize(a[0])),
}


def _per_call_us(seconds: float, count: int) -> float:
    return 1e6 * seconds / count if count else 0.0


def _is_build(name: str) -> bool:
    return name.startswith("problems.") and (
        name.startswith("problems.synthetic_") or name.endswith("_problem")
        or name == "problems.from_arrays")


def _is_generator(name: str) -> bool:
    return (name.startswith("adversary.") and name.count(".") == 1
            and not name.startswith("adversary.measure_"))


def per_layer(spans) -> dict:
    """{metric name: (value, unit)} for one traced repetition."""
    q = spans.quantities
    out = {}

    def calls_and_self(metric, span, calls=True):
        if calls:
            out[f"{metric}.calls"] = (spans.calls(span), "count")
        out[f"{metric}.self_us"] = (_per_call_us(spans.self_s(span), spans.calls(span)), "us")

    calls_and_self("core.project_two_balls", "core.project_two_balls")
    calls_and_self("core.project_ball", "core.project_ball")
    calls_and_self("core.prox_step", "core.prox_step")
    calls_and_self("core.Domain.project", "core.Domain.project", calls=False)

    out["problems.build.s"] = (spans.inclusive_s(spans.matching(_is_build)), "s")
    out["problems.estimate_constants.s"] = (
        spans.inclusive_s(["problems.estimate_constants"]), "s")
    grads = "problems.FiniteSumProblem.all_component_grads"
    out["problems.all_component_grads.calls"] = (spans.calls(grads), "count")
    out["problems.all_component_grads.bytes"] = (q.get(grads, 0), "B")
    calls_and_self("problems.anchored_component_diff",
                   "problems.FiniteSumProblem.anchored_component_diff")
    calls_and_self("problems.full_grad", "problems.FiniteSumProblem.full_grad")
    calls_and_self("problems.component", "problems.FiniteSumProblem.component", calls=False)

    for solver in SOLVERS:
        span = f"stochastic.{solver}"
        steps = q.get(span, 0)
        out[f"{span}.steps"] = (steps, "count")
        out[f"{span}.step_self_us"] = (_per_call_us(spans.self_s(span), steps), "us")

    out["metrics.reference_optimum.calls"] = (spans.calls("metrics.reference_optimum"), "count")
    out["metrics.reference_optimum.s"] = (spans.inclusive_s(["metrics.reference_optimum"]), "s")
    out["metrics.final_regret.s"] = (spans.inclusive_s(["metrics.final_regret"]), "s")

    rounds = spans.matching(lambda n: n.startswith("online.")
                            and n.endswith((".observe", ".round")))
    out["online.rounds"] = (spans.outer_calls(rounds), "count")
    for learner in LEARNERS:
        span = f"online.{learner}.observe"
        out[f"{span}_us"] = (_per_call_us(spans.self_s(span), spans.outer_calls([span])), "us")
    span = "online.HingeClassifierPD.round"
    out[f"{span}_us"] = (_per_call_us(spans.self_s(span), spans.calls(span)), "us")

    out["adversary.generate.s"] = (spans.inclusive_s(spans.matching(_is_generator)), "s")
    out["adversary.measure_egv.s"] = (spans.inclusive_s(
        spans.matching(lambda n: n.startswith("adversary.measure_egv"))), "s")

    for exp in EXPERIMENTS:
        out[f"cli.exp.{exp}.s"] = (spans.inclusive_s([f"cli.exp_{exp}"]), "s")
    out["cli.write_csv.s"] = (spans.inclusive_s(["cli.write_csv"]), "s")
    out["cli.write_csv.bytes"] = (q.get("cli.write_csv", 0), "B")
    return out
