"""Measurement primitives shared by every workload.

* the metric tables, read from ``BENCHMARK.json`` at the repository root;
* percentiles under the tail rule: a tail percentile is only reported with
  at least :data:`MIN_BEYOND` samples beyond it;
* :class:`OpenLoop`, the open-loop request generator, timed from each
  request's due time, with an injectable clock;
* :class:`Tally`, the attempted/failed count every output check feeds;
* :func:`median_setup`, which repeats a workload's set-up and reports the
  median;
* the provenance record and the result line.

Nothing here imports the program under test.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from typing import Callable, Sequence

import numpy as np
from scipy.special import betainc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the contract this benchmark implements: workloads, metrics and bounds
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

#: workload names, in contract order
WORKLOADS = [row["name"] for row in CONTRACT["workloads"]]
#: (name, unit) of what a user of the system sees (``--trace 0``)
END_TO_END = [(row["name"], row["unit"]) for row in CONTRACT["end_to_end"]]
#: (name, unit) of single layers, from the traced run (``--trace 1``)
PER_LAYER = [(row["name"], row["unit"]) for row in CONTRACT["per_layer"]]

#: how long one run measures (seconds); also the default of ``--seconds``
RUN_SECONDS = CONTRACT["run_seconds"]

#: set-ups per run; ``setup_s`` is their median
SETUPS = 11


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond rank ``q * (n - 1)`` of ``n`` sorted ones."""
    return n - 1 - math.floor(q * (n - 1))


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by the Harrell-Davis estimator.

    A Beta-weighted mean of every order statistic, centred on rank
    ``q * (n + 1)``.  Picking the one or two nearest order statistics jumps
    from run to run when a gap between two modes (steps with and without a
    collector pass, say) sits near ``q``; this moves smoothly instead.
    """
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def balanced_median(groups: Sequence[Sequence[float]]) -> float:
    """The mean of each group's median.

    For samples that form one mode per group (two tenants, two replicas),
    the median of their mixture sits in the gap between the modes and
    jumps from run to run with the mix; this does not.
    """
    return statistics.fmean(quantile(group, 0.5) for group in groups)


def tail_q(n: int, q: float) -> float:
    """``q`` under the tail rule for ``n`` samples.

    With too few samples for ``q``, the highest quantile that still leaves
    :data:`MIN_BEYOND` samples beyond it; ``MIN_BEYOND`` samples or fewer
    support no tail at all.
    """
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples support no tail percentile")
    if beyond(n, q) < MIN_BEYOND:
        q = (n - 1 - MIN_BEYOND) / (n - 1)
    return q


def tail(samples: Sequence[float], q: float) -> tuple[float, float]:
    """``(value, q_used)``: an extreme quantile under the tail rule.

    Read from the interpolated order statistic: at p99 the Harrell-Davis
    weights reach into the few largest samples, the steps a collector pause
    or a host stall inflated, and made ``eager-bert-tools``' p99 spread 29%
    over ten seeds.
    """
    q = tail_q(len(samples), q)
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, q


def tail_note(label: str, samples: Sequence[float], q: float) -> str:
    """A printed line: the tail percentile of ``samples`` (seconds) in ms.

    Tails are printed with every run but are not contract metrics: on a
    shared 2-vCPU host they follow the host's stalls, not the program.
    """
    if len(samples) <= MIN_BEYOND:
        return f"{label}: too few samples ({len(samples)})"
    value, q = tail(samples, q)
    return f"{label}: p{q * 100:.1f} {value * 1e3:.3f} ms of {len(samples)}"


# ---------------------------------------------------------------------------
# load generation
# ---------------------------------------------------------------------------

class OpenLoop:
    """Sends request ``i`` at ``start + due[i]`` whether or not earlier ones
    finished (independent users), so a stall delays every later request.

    Latency is measured from the due time, never from the actual send, and
    the generator's own lateness (actual send minus due) is returned per
    request: if it grows, the benchmark measures the generator, not the
    server.  ``clock`` and ``sleep`` are injectable for tests.
    """

    def __init__(self, due: Sequence[float],
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.due = list(due)
        self.clock = clock
        self.sleep = sleep

    def run(self, submit: Callable[[int, float], None],
            start: float) -> list[float]:
        """Call ``submit(i, due_time)`` on schedule; returns the lags."""
        lags = []
        for i, offset in enumerate(self.due):
            due = start + offset
            now = self.clock()
            if due > now:
                self.sleep(due - now)
            lags.append(self.clock() - due)
            submit(i, due)
        return lags


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations; failures keep a few reasons.

    An operation fails on an exception, a timeout or any output check that
    does not hold.
    """

    MAX_REASONS = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, problems: Sequence[str]) -> bool:
        """Count one operation; it failed if ``problems`` is non-empty."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append("; ".join(problems))
        return False

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def median_setup(setup: Callable[[], None], teardown: Callable[[], None],
                 count: int = SETUPS,
                 clock: Callable[[], float] = time.perf_counter
                 ) -> tuple[float, list[float]]:
    """Run ``setup`` ``count`` times and keep the last one standing.

    Every earlier set-up is torn down before the next starts, and the
    garbage it leaves is collected before the next clock starts, so no
    set-up pays a collector pass for its predecessors.  Returns the median
    duration and all durations (the first is the cold one); the timed phase
    runs on the state of the last set-up and is never part of a duration.
    """
    durations = []
    for index in range(count):
        gc.collect()
        start = clock()
        setup()
        durations.append(clock() - start)
        if index < count - 1:
            teardown()
    return statistics.median(durations), durations


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def max_rss_mb() -> float:
    """The process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               config: object, numpy_version: str) -> dict:
    """Host, versions, effective configuration and seed of one result."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "config": dict(vars(config)),
        "threads": {key: os.environ.get(key) for key in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def result_line(tally: Tally, values: dict[str, float],
                table: Sequence[tuple]) -> str:
    """The final stdout line: every metric of ``table`` with its unit."""
    units = {row[0]: row[1] for row in table}
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {sorted(missing)}, "
                         f"unexpected {sorted(extra)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": metrics})
