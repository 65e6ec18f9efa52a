"""Kernel table: µs per call of the projection and oracle kernels.

Inputs come from the workload seed: a pool of POOL inputs per kernel, cycled
through so that a figure averages over the kernel's branches instead of
depending on one draw. Each figure is the median over BATCHES timed batches,
each batch at least MIN_BATCH_S long. Projections and the entropy prox work
in d=10, the dimension `mixed_grad` runs in at `mixedgrad_rate` defaults; the
logistic oracles use a 500×20 problem, the `emgd_variance` default size.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

POOL = 64
BATCHES = 7
MIN_BATCH_S = 0.01
D = 10


def _time_per_call_us(fn, inputs) -> float:
    n = 1
    while True:  # calibrate the batch length
        t0 = time.perf_counter()
        for k in range(n):
            fn(*inputs[k % POOL])
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for k in range(n):
            fn(*inputs[k % POOL])
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def kernel_table(seed: int) -> dict:
    """{metric name: (µs per call, "us")} for ROADMAP item 1's kernel list."""
    from smoothconvex import core, problems

    rng = np.random.default_rng([seed, 1407])

    def points(scale, max_norm=np.inf):
        xs = [scale * rng.standard_normal(D) for _ in range(POOL)]
        return [x * min(1.0, max_norm / np.linalg.norm(x)) for x in xs]

    ball_in = [(x, 1.0) for x in points(1.0)]
    # as in mixed_grad: a short step from inside ball(0, 0.5), the shrinking
    # ball, intersected with the domain ball shifted by the epoch center;
    # |c| < 1 keeps the origin in both balls
    two_balls_in = [(x, c, 1.0, np.zeros(D), 0.5)
                    for x, c in zip(points(0.25), points(0.3, max_norm=0.9))]
    simplex_in = [(x,) for x in points(1.0)]
    # as in emgd on a box domain: box ∩ ball(center, 0.5), a short step from
    # the center
    box = core.Domain.box(-np.ones(D), np.ones(D))
    dykstra_in = [(c + dx, [box.project, lambda v, c=c: core.project_ball(v, 0.5, c)])
                  for c, dx in zip(points(0.3, max_norm=0.9), points(0.25))]
    entropy, unit_ball = core.MirrorMap.entropy(), core.Domain.ball(1.0)
    prox_in = [(entropy, unit_ball, np.abs(z) + 0.1, g, 0.1)
               for z, g in zip(points(0.5), points(1.0))]

    X = rng.standard_normal((500, 20))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    y = np.where(X @ rng.standard_normal(20) >= 0, 1.0, -1.0)
    prob = problems.FiniteSumProblem(X=X, y=y, lam_reg=1e-2, loss="logistic")
    diff_in = [(int(i), 0.5 * rng.standard_normal(20), 0.5 * rng.standard_normal(20))
               for i in rng.integers(500, size=POOL)]
    grad_in = [(0.5 * rng.standard_normal(20),) for _ in range(POOL)]

    kernels = {
        "core.kernel.project_ball_us": (core.project_ball, ball_in),
        "core.kernel.project_two_balls_us": (core.project_two_balls, two_balls_in),
        "core.kernel.project_simplex_us": (core.project_simplex, simplex_in),
        "core.kernel.dykstra_box_ball_us": (core.dykstra, dykstra_in),
        "core.kernel.prox_step_entropy_ball_us": (core.prox_step, prox_in),
        "problems.kernel.anchored_component_diff_us":
            (prob.anchored_component_diff, diff_in),
        "problems.kernel.full_grad_500x20_us": (prob.full_grad, grad_in),
    }
    return {name: (_time_per_call_us(fn, inputs), "us")
            for name, (fn, inputs) in kernels.items()}
