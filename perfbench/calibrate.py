"""Machine-speed probe for the end-to-end timings.

The machine the benchmark runs on is shared with other tenants. On the
2-vCPU VM the benchmark was written on, the same code ran 1.5-1.7x slower for
spells of a fraction of a second to minutes while the other vCPU was idle, so
the contention came from outside the VM. Raw `run_s` medians of five runs
spread by 26% between their quartiles. Process start-up slowed too (0.17 s
in fast spells, 0.31 s in slow ones) but not in step with this module's
loop; run.SetupProbe scales it by reference processes instead.

Timings are therefore scaled to a nominal machine speed measured with a small
benchmark-owned loop (numpy vectors of length 10 driven from Python, the kind
of work the program does per step): a duration is multiplied by
(NOMINAL_PROBE_S / mean time of the loop while it was measured) to the
power of the workload's `workloads.PROBE_EXPONENT`. The loop
runs no program code, but it runs inside the timed process, after whatever
the program last did, so a program change can move it through the state of
the caches; SpeedProbe keeps that small (see there). Raw wall times are kept
in the per-run result file.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_PROBE_S = 0.001  # loop time on the VM above in its usual state, rounded
_ITERATIONS = 150
_rng = np.random.default_rng(1407)
_VECS = [_rng.standard_normal(10) for _ in range(64)]


def probe_once() -> float:
    """Wall seconds of one pass of the probe loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(_ITERATIONS):
        a, b = _VECS[k & 63], _VECS[(7 * k) & 63]
        x = 0.5 * a + b
        n = np.linalg.norm(x)
        if n > 1.0:
            x = x * (1.0 / n)
        acc += float(x @ b)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_samples, exponent: float = 1.0) -> float:
    """`seconds` of wall time taken to seconds at nominal machine speed, for
    work whose time goes as the probe time to the power `exponent`."""
    return seconds * (NOMINAL_PROBE_S / statistics.fmean(probe_samples)) ** exponent


class SpeedProbe:
    """Samples the probe loop every PERIOD_S while a timed repetition runs,
    from a SIGALRM handler; costs about 2% of the repetition on every commit
    alike.

    Python runs the handler between two bytecodes of the program, so the
    caches hold what the program left there. A first pass of the loop ran 8%
    (after mixed-rate work) to 10% (after setup-scale's 2 MB gradient
    matrices) slower than a third pass right after it, so each sample is the
    second of two passes, which read within 0.4% and 4% of the third.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        probe_once()  # refills the caches the program evicted; untimed
        self.samples.append(probe_once())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a repetition shorter than one period
            self.samples.append(probe_once())
