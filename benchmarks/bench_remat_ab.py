"""A/B: memory-budgeted execution (static rematerialization) vs plain release.

The remat pass (``repro.analysis.remat``) compiles a keep-vs-recompute
schedule whenever a plan's liveness bound exceeds ``amanda.memory_budget``;
the slot-table executor then re-runs evicted producers as extra slot
entries.  This benchmark fixes a byte budget per model and asks the only
question a budget exists to answer: **how large a training batch fits?**

* **baseline** — unbudgeted execution: the executor frees every
  intermediate at its last use, no recomputes;
* **remat** — ``amanda.memory_budget(budget)`` execution (the remat
  schedule's per-step frees drive the allocation tracker).

For each mode the max feasible batch is found by doubling then binary
search, where *feasible* means the tracker-measured peak stays within the
budget.  Raced on InceptionV3 and BERT training steps (forward + backward +
in-place SGD updates):

* **equivalence** — budgeted training is bit-identical to unbudgeted
  (losses of two consecutive steps compared);
* **capacity** — remat fits a >= 1.5x larger batch than the baseline under
  the same budget (asserted for InceptionV3, reported for BERT);
* **overhead** — recompute cost is reported as scheduled FLOPs and as the
  wall-clock ratio of budgeted vs unbudgeted steps at the reference batch.

Runs under pytest (``--benchmark-only``) or directly::

    python benchmarks/bench_remat_ab.py [--smoke]
"""

import contextlib
import os
import sys
import time

import numpy as np

import repro.amanda as amanda
import repro.models.graph.builders as GM
from repro.eager import alloc

from _common import report

QUICK = (os.environ.get("REPRO_BENCH_QUICK") == "1"
         or "--smoke" in sys.argv)
ROUNDS = 2 if QUICK else 12
MAX_BATCH = 8 if QUICK else 32

RNG = np.random.default_rng(0)


class ModelCase:
    def __init__(self, name, build, ref_batch):
        self.name = name
        self.build = build
        self.ref_batch = ref_batch
        self._batches = {}

    def feed(self, gm, batch):
        # one fixed batch of data per size, so every mode trains on
        # identical inputs and bit-identity is meaningful
        if batch not in self._batches:
            self._batches[batch] = self.draw(batch)
        inputs, labels = self._batches[batch]
        return {gm.inputs: inputs, gm.labels: labels}

    def draw(self, batch):
        raise NotImplementedError


class InceptionCase(ModelCase):
    def __init__(self):
        super().__init__("InceptionV3",
                         lambda: GM.build_inception_v3(learning_rate=0.1), 2)

    def draw(self, batch):
        return (RNG.standard_normal((batch, 32, 32, 3)),
                RNG.integers(0, 4, batch))


class BertCase(ModelCase):
    def __init__(self):
        super().__init__("BERT",
                         lambda: GM.build_bert(learning_rate=0.1), 2)

    def draw(self, batch):
        return (RNG.integers(0, 32, (batch, 16)),
                RNG.integers(0, 2, (batch, 16)))


def _run_step(case, batch, budget=None, steps=1):
    """Fresh model, ``steps`` training iterations; returns peak + schedule."""
    gm = case.build()
    feed = case.feed(gm, batch)
    scope = (amanda.memory_budget(budget) if budget is not None
             else contextlib.nullcontext())
    losses = []
    with gm.session() as sess, scope:
        alloc.tracker.reset()
        start = time.perf_counter()
        for _ in range(steps):
            loss, _ = sess.run([gm.loss, gm.train_op], feed)
            losses.append(np.asarray(loss))
        elapsed = (time.perf_counter() - start) / steps
        peak = sum(alloc.tracker.peak.values())
        compiled = sess.last_compiled
    return {"peak": peak, "losses": losses, "elapsed": elapsed,
            "remat": compiled.remat, "remat_error": compiled.remat_error}


def _max_feasible_batch(case, budget, budgeted):
    """Largest batch whose measured peak fits ``budget`` (doubling + bisect).

    Peak grows monotonically with batch (activations scale linearly), so the
    doubling probe brackets the boundary and the bisection pins it down.
    """
    probe = {}

    def fits(batch):
        if batch not in probe:
            result = _run_step(case, batch,
                               budget=budget if budgeted else None)
            probe[batch] = result["peak"] <= budget
        return probe[batch]

    if not fits(1):
        return 0, probe
    low = 1
    while low * 2 <= MAX_BATCH and fits(low * 2):
        low *= 2
    high = min(low * 2, MAX_BATCH)
    while high - low > 1:
        mid = (low + high) // 2
        if fits(mid):
            low = mid
        else:
            high = mid
    return low, probe


def bench_case(case):
    # fix the budget one byte below what the baseline needs for the *next*
    # batch size: the most generous budget that still provably caps the
    # baseline at ref_batch, so every extra image the remat mode fits is
    # bought purely by recomputation
    reference = _run_step(case, case.ref_batch)
    next_up = _run_step(case, case.ref_batch + 1)
    budget = next_up["peak"] - 1

    base_max, _ = _max_feasible_batch(case, budget, budgeted=False)
    remat_max, _ = _max_feasible_batch(case, budget, budgeted=True)

    at_max = _run_step(case, remat_max, budget=budget)
    assert at_max["peak"] <= budget, \
        f"{case.name}: measured peak {at_max['peak']} exceeds {budget}"
    assert at_max["remat"] is not None and at_max["remat_error"] is None

    # bit-identity: budgeted training matches unbudgeted
    vanilla = _run_step(case, case.ref_batch, steps=2)
    budgeted = _run_step(case, case.ref_batch, budget=budget // 2, steps=2)
    for expected, got in zip(vanilla["losses"], budgeted["losses"]):
        np.testing.assert_array_equal(expected, got)

    # recompute overhead at the max remat batch: budgeted vs unbudgeted wall
    plain_walls, remat_walls = [], []
    for _ in range(ROUNDS):
        plain_walls.append(_run_step(case, remat_max)["elapsed"])
        remat_walls.append(
            _run_step(case, remat_max, budget=budget)["elapsed"])
    return {
        "name": case.name,
        "budget": budget,
        "reference_peak": reference["peak"],
        "base_max": base_max,
        "remat_max": remat_max,
        "remat_peak": at_max["peak"],
        "schedule": at_max["remat"],
        "plain_wall": float(np.median(plain_walls)),
        "remat_wall": float(np.median(remat_walls)),
    }


def check_and_report(results):
    lines = [f"host_cpus={os.cpu_count()}, rounds={ROUNDS}, "
             f"max probed batch={MAX_BATCH}; budget = one byte below the "
             f"baseline's peak at ref_batch+1; feasible = "
             f"tracker-measured peak <= budget; fetch=[loss, train_op]"]
    for r in results:
        sched = r["schedule"]
        ratio = r["remat_max"] / max(1, r["base_max"])
        lines.append(f"{r['name']}: budget {r['budget'] / 1e6:.2f} MB")
        lines.append(f"  max feasible batch: baseline "
                     f"{r['base_max']}, remat {r['remat_max']} "
                     f"({ratio:.2f}x)")
        lines.append(f"  remat peak at batch {r['remat_max']}: "
                     f"{r['remat_peak'] / 1e6:.2f} MB "
                     f"({sched.num_recomputes} recomputes over "
                     f"{len(sched.evicted)} evicted ops, "
                     f"+{sched.recompute_flops} FLOPs)")
        lines.append(f"  wall/step at batch {r['remat_max']}: "
                     f"unbudgeted {r['plain_wall'] * 1e3:.1f}ms, "
                     f"budgeted {r['remat_wall'] * 1e3:.1f}ms "
                     f"({r['remat_wall'] / r['plain_wall']:.2f}x)")
        if r["name"] == "InceptionV3":
            assert ratio >= 1.5, \
                f"remat max batch ratio {ratio:.2f}x below 1.5x"
    report("remat_ab", lines)


def run_all():
    return [bench_case(InceptionCase()), bench_case(BertCase())]


def test_remat_ab(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    check_and_report(results)


if __name__ == "__main__":
    check_and_report(run_all())
