"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _all_end_to_end(value: float = 1.0) -> dict:
    return {name: value for name, *_ in harness.END_TO_END}


# -- percentiles ----------------------------------------------------------

def test_quantile_is_smooth_across_a_gap_between_modes():
    assert harness.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    # nine fast samples in ten: moving one sample across the gap moves the
    # p90 estimate a step, not the whole width of the gap
    fast, slow = [1.0] * 1800, [2.0] * 200
    shifted = [1.0] * 1801 + [2.0] * 199
    estimate = harness.quantile(fast + slow, 0.9)
    assert 1.0 < estimate < 2.0
    assert abs(harness.quantile(shifted, 0.9) - estimate) < 0.1


def test_tail_keeps_ten_samples_beyond_the_reported_percentile():
    samples = [float(i) for i in range(1000)]
    value, q = harness.tail(samples, 0.99)
    assert q == 0.99
    assert sum(s > value for s in samples) >= harness.MIN_BEYOND

    # too few samples for p99: the percentile moves down until ten lie
    # beyond it, and the caller learns which one was reported
    samples = [float(i) for i in range(200)]
    value, q = harness.tail(samples, 0.99)
    assert q < 0.99
    assert harness.beyond(len(samples), q) == harness.MIN_BEYOND
    assert sum(s > value for s in samples) >= harness.MIN_BEYOND

    with pytest.raises(ValueError):
        harness.tail([1.0] * harness.MIN_BEYOND, 0.5)


# -- open loop ------------------------------------------------------------

def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()
    sends = []

    def submit(i: int, due: float) -> None:
        sends.append((due, clock()))
        if i == 1:
            clock.advance(0.5)  # the generator stalls behind request 1

    lags = harness.OpenLoop([0.0, 0.1, 0.2, 0.9], clock,
                            clock.advance).run(submit, start=10.0)
    assert [due for due, _ in sends] == pytest.approx([10.0, 10.1, 10.2,
                                                       10.9])
    # request 2 went out 0.4 s late; request 3 was back on schedule
    assert lags == pytest.approx([0.0, 0.0, 0.4, 0.0])
    # submit is handed the due time, not the send time: resolved 1 ms after
    # it went out, request 2 still counts the stall it waited behind
    due, sent = sends[2]
    assert (sent + 0.001) - due == pytest.approx(0.401)


# -- failures -------------------------------------------------------------

def test_fail_ratio_counts_an_injected_mismatch():
    tally = harness.Tally()
    expected = [1.0, 2.0, 3.0, 4.0]
    received = list(expected)
    received[2] = 3.5  # injected
    for want, got in zip(expected, received):
        tally.check([] if got == want else [f"{got} != {want}"])
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.ratio == 0.25
    line = json.loads(harness.result_line(tally, _all_end_to_end(),
                                          harness.END_TO_END))
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (4, 1)


def test_round_checks_count_once_per_replica():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import workloads

    class Flaky(workloads.PairedTraining):
        def run_step(self, kind: str, index: int):
            if (kind, index) == ("vanilla", 2):
                raise RuntimeError("injected")
            return np.float64(1.0)

        def after_round(self, index: int) -> list[str]:
            return ["injected set-up mismatch"] if index == 0 else []

    workload = Flaky()
    workload.setup_first_steps()
    tally = harness.Tally()
    workload.timed(0.05, tally)
    # the set-up round's mismatch counts once, and the raising step fails
    # its own replica's operation only
    assert tally.failed == 2
    assert "set-up mismatch" in tally.reasons[0]
    assert "vanilla step 2" in tally.reasons[1]
    rounds = len(workload.losses["primary"]) - 1
    assert tally.attempted == 1 + 2 * rounds


def test_oracle_catches_a_corrupted_training_output():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workload = workloads.BertTools(seed=5)
    workload.setup()
    tally = harness.Tally()
    workload.timed(0.3, tally)
    assert tally.failed == 0
    losses = workload.losses["primary"]
    losses[3] = losses[3] + 1e-12  # injected, one ulp-scale change
    workload.check(tally)
    assert tally.failed == 1
    assert "primary step 3" in tally.reasons[0]


# -- set-up ---------------------------------------------------------------

def test_setup_time_is_the_median_of_setups_alone():
    clock = FakeClock()
    costs = iter([3.0, 1.0, 2.0])
    torn_down = []
    median, durations = harness.median_setup(
        lambda: clock.advance(next(costs)),
        lambda: torn_down.append(clock()), count=3, clock=clock)
    # steady-state steps after the last set-up never reach the figure
    clock.advance(100.0)
    assert durations == [3.0, 1.0, 2.0]
    assert median == 2.0
    assert torn_down == [3.0, 4.0]  # the last set-up stays up


# -- contract -------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_is_within_its_limits():
    doc = harness.CONTRACT
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in doc["workloads"])
    rows = doc["end_to_end"] + doc["per_layer"]
    assert all(UNIT.match(row["unit"]) for row in rows)
    bounds = {row["name"]: row["bound"] for row in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eager-bert-tools",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
