"""The four workloads: seeded inputs, set-up, timed phase and output oracle.

Each workload draws all of its inputs from ``--seed`` in ``__init__``; the
program only ever sees those generated inputs.  ``setup`` builds everything
and completes the first operation of every kind the timed phase runs;
``timed`` measures for a fixed number of seconds; ``check`` is the untimed
output oracle.  Every operation and every oracle comparison feeds a
:class:`harness.Tally`.
"""

from __future__ import annotations

import contextlib
import gc
import time

import numpy as np

import repro.amanda as amanda
import repro.eager.functional as F
import repro.models.eager as EM
import repro.models.graph as GM
from repro import serve
from repro.capture import capture_step
from repro.core.config import config
from repro.eager import alloc
from repro.eager.optim import SGD
from repro.tools.profiling import FlopsProfilingTool
from repro.tools.pruning import ActivationPruningTool, MagnitudePruningTool

import harness

clock = time.perf_counter

#: replica kinds of the paired training workloads, in round-0 order
KINDS = ("primary", "vanilla")


def start_phase() -> None:
    """Collect set-up garbage, freeze the heap, start a fresh ``dnn`` peak.

    The collection makes every timed phase start from the same collector
    state instead of inheriting whatever set-up left pending.  Freezing
    keeps the objects alive at that point (imports, models, the benchmark's
    own inputs) out of the collector's full passes: the collector still
    runs inside the phase on everything the phase allocates, but a full
    pass no longer walks the whole set-up heap, a 40-60 ms pause that fell
    on whichever step crossed an allocation count and set the steps' p99.
    """
    gc.collect()
    gc.freeze()
    restart_peak()


def end_phase() -> None:
    """Return the heap frozen by :func:`start_phase` to the collector."""
    gc.unfreeze()


def restart_peak() -> None:
    """Start a fresh ``dnn``-scope peak from the bytes live right now."""
    alloc.tracker.peak["dnn"] = alloc.tracker.live["dnn"]


def _same(a, b) -> bool:
    """Bit-for-bit equality (NaN never matches)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


class Workload:
    def __init__(self) -> None:
        self.recorder = None  # set for the traced part of a traced run

    def _root(self, key):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("step", root=key)

    def _span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def traced_keys(self, raw: dict) -> tuple[list, list]:
        """Root keys of the phase's primary and vanilla operations."""
        raise NotImplementedError

    def layer_extras(self, raw: dict) -> dict[str, float]:
        """Per-layer numbers read from the program's own counters."""
        return {}


# ---------------------------------------------------------------------------
# paired training: a primary and a vanilla replica, interleaved 1:1
# ---------------------------------------------------------------------------

class PairedTraining(Workload):
    """One closed-loop caller trains two replicas on the same inputs.

    Each round runs one step of each replica, alternating which goes first
    so host drift hits both alike.  A step is due when the previous one
    completes, so its request latency is its wall time.
    """

    def run_step(self, kind: str, index: int) -> np.ndarray:
        raise NotImplementedError

    def after_round(self, index: int) -> list[str]:
        """Untimed checks once both replicas finished step ``index``."""
        return []

    def setup_first_steps(self) -> None:
        """Step 0 of each replica; its round checks wait for the tally."""
        self.losses = {kind: [] for kind in KINDS}
        for kind in KINDS:
            with self._root(("setup", kind)):
                self.losses[kind].append(self.run_step(kind, 0))
        self.setup_problems = self.after_round(0)

    def timed(self, seconds: float, tally: harness.Tally) -> dict:
        times = {kind: [] for kind in KINDS}
        keys = {kind: [] for kind in KINDS}
        # the set-up round is one more operation of the primary replica
        tally.check(self.setup_problems)
        self.setup_problems = []
        start_phase()
        start = clock()
        deadline = start + seconds
        index = len(self.losses["primary"])
        try:
            while clock() < deadline:
                problems = {kind: [] for kind in KINDS}
                order = KINDS if index % 2 == 0 else KINDS[::-1]
                for kind in order:
                    key = (kind, index)
                    begin = clock()
                    try:
                        with self._root(key):
                            loss = self.run_step(kind, index)
                    except Exception as exc:  # counted, then the run goes on
                        loss = np.float64("nan")
                        problems[kind].append(f"{kind} step {index}: {exc!r}")
                    times[kind].append(clock() - begin)
                    keys[kind].append(key)
                    self.losses[kind].append(loss)
                    if not np.isfinite(loss):
                        problems[kind].append(
                            f"{kind} step {index}: loss {loss}")
                # round checks compare the primary replica with the vanilla
                problems["primary"] += self.after_round(index)
                for kind in KINDS:  # one operation per replica
                    tally.check(problems[kind])
                index += 1
            elapsed = clock() - start
        finally:
            end_phase()
        return {"times": times, "keys": keys, "elapsed": elapsed,
                "peak": alloc.tracker.peak["dnn"]}

    def end_to_end(self, raw: dict, tally: harness.Tally) -> dict:
        """``step``/``sampled`` time the primary replica, ``vanilla`` the
        vanilla one, and ``req`` every step the caller issued."""
        primary, vanilla = raw["times"]["primary"], raw["times"]["vanilla"]
        p50 = harness.quantile(primary, 0.5)
        return {
            "step_ms_p50": p50 * 1e3,
            "vanilla_step_ms_p50": harness.quantile(vanilla, 0.5) * 1e3,
            "req_ms_p50": harness.balanced_median([primary, vanilla]) * 1e3,
            "sampled_req_ms_p50": p50 * 1e3,
            "goodput_rps": (max(0, len(primary) + len(vanilla) - tally.failed)
                            / raw["elapsed"]),
            "peak_alloc_mb": raw["peak"] / 1e6,
        }

    def primary_p50(self, raw: dict) -> float:
        return harness.quantile(raw["times"]["primary"], 0.5)

    def notes(self, raw: dict) -> list[str]:
        primary, vanilla = raw["times"]["primary"], raw["times"]["vanilla"]
        return [f"{kind}: {len(times)} steps" for kind, times
                in raw["times"].items()] + [
            harness.tail_note("step tail", primary, 0.90),
            harness.tail_note("request tail", primary + vanilla, 0.99)]

    def traced_keys(self, raw: dict) -> tuple[list, list]:
        return raw["keys"]["primary"], raw["keys"]["vanilla"]


# ---------------------------------------------------------------------------
# eager-bert-tools / captured-bert-tools
# ---------------------------------------------------------------------------

BERT_SHAPE = (2, 16)
BERT_VOCAB = 32
BERT_LABELS = 2
#: distinct input batches the training loop cycles through
BERT_BATCHES = 32
#: steps of each replica the oracle replays on the other execution path
ORACLE_STEPS = 100


def _token_loss(model, tokens, labels):
    # labels arrive flat: an array derived from an argument outside an
    # operator (``labels.reshape(-1)`` here) is baked into the captured
    # graph as a constant, so every replay would train on the first labels
    logits = model(tokens)
    return F.cross_entropy(F.reshape(logits, (-1, BERT_LABELS)), labels)


def _bert_tools():
    # ``("linear",)``: with the default op types the pruning tool also masks
    # the activation operand of attention's matmul in eager mode only (see
    # NOTES.md), and the two paths would diverge
    return (FlopsProfilingTool(),
            MagnitudePruningTool(sparsity=0.5, op_types=("linear",)))


class _BertReplica:
    def __init__(self, captured: bool) -> None:
        self.model = EM.bert_mini(layers=2)
        self.opt = SGD(self.model.parameters(), lr=0.01)
        self.step = capture_step(self.model, _token_loss) if captured \
            else None

    def train(self, tokens, labels, vanilla: bool, span) -> np.ndarray:
        """zero_grad, loss + backward (or the captured step), SGD update,
        new_iteration; the vanilla replica runs under ``amanda.disabled``."""
        with amanda.disabled() if vanilla else contextlib.nullcontext():
            self.opt.zero_grad()
            if self.step is not None:
                with span("capture.step"):
                    loss = self.step(tokens, labels)
            else:
                loss = _token_loss(self.model, tokens, labels)
                loss.backward()
            self.opt.step()
            amanda.new_iteration()
        return np.array(loss.data)

    def params(self) -> list[np.ndarray]:
        return [param.data.copy() for _, param in
                self.model.named_parameters()]


class BertTools(PairedTraining):
    """BERT-mini token classification under FLOPs profiling + pruning."""

    captured = False

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.batches = [(rng.integers(0, BERT_VOCAB, BERT_SHAPE),
                         rng.integers(0, BERT_LABELS, BERT_SHAPE[0]
                                      * BERT_SHAPE[1]))
                        for _ in range(BERT_BATCHES)]
        self.scope = None

    def setup(self) -> None:
        self.tools = _bert_tools()
        self.scope = contextlib.ExitStack()
        self.scope.enter_context(amanda.apply(*self.tools))
        self.replicas = {kind: _BertReplica(self.captured) for kind in KINDS}
        self.snapshot = None
        self.setup_first_steps()

    def teardown(self) -> None:
        if self.scope is not None:
            self.scope.close()
            self.scope = None

    def run_step(self, kind: str, index: int) -> np.ndarray:
        tokens, labels = self.batches[index % BERT_BATCHES]
        return self.replicas[kind].train(tokens, labels, kind == "vanilla",
                                         self._span)

    def after_round(self, index: int) -> list[str]:
        if index + 1 == ORACLE_STEPS:
            self._take_snapshot()
        return []

    def _take_snapshot(self) -> None:
        self.snapshot = {
            "steps": min(len(losses) for losses in self.losses.values()),
            "params": {kind: replica.params()
                       for kind, replica in self.replicas.items()},
            "flops": self.tools[0].total_flops(),
        }

    def layer_extras(self, raw: dict) -> dict[str, float]:
        step = self.replicas["primary"].step
        if step is None:
            return {}
        calls = step.replay_count + step.fallback_count
        return {"capture.replay_ratio": step.replay_count / calls}

    def check(self, tally: harness.Tally) -> None:
        """Replay the first steps on fresh replicas of the other path.

        Losses of both replicas, final parameters and the FLOPs count must
        match the timed replicas bit for bit.
        """
        if self.snapshot is None:
            self._take_snapshot()
        self.teardown()
        snapshot = self.snapshot
        tools = _bert_tools()
        with amanda.apply(*tools):
            replicas = {kind: _BertReplica(not self.captured)
                        for kind in KINDS}
            for index in range(snapshot["steps"]):
                tokens, labels = self.batches[index % BERT_BATCHES]
                for kind in KINDS:
                    try:
                        loss = replicas[kind].train(
                            tokens, labels, kind == "vanilla", self._span)
                        same = _same(loss, self.losses[kind][index])
                    except Exception as exc:
                        tally.check([f"oracle {kind} step {index}: {exc!r}"])
                        continue
                    tally.check([] if same else [
                        f"oracle {kind} step {index}: loss {loss} vs "
                        f"{self.losses[kind][index]}"])
            for kind in KINDS:
                mine = snapshot["params"][kind]
                other = replicas[kind].params()
                tally.check([] if all(map(_same, mine, other)) else
                            [f"oracle {kind}: parameters differ after "
                             f"{snapshot['steps']} steps"])
            flops = tools[0].total_flops()
            tally.check([] if flops == snapshot["flops"] else
                        [f"oracle: FLOPs {flops} vs {snapshot['flops']}"])


class CapturedBertTools(BertTools):
    """The same step through ``capture_step``; the optimizer stays eager."""

    captured = True


# ---------------------------------------------------------------------------
# graph-inception-budget
# ---------------------------------------------------------------------------

INCEPTION_BATCH = 5
INCEPTION_CLASSES = 4
INCEPTION_BATCHES = 16
#: the InceptionV3 budget of the rematerialization A/B (bytes)
MEMORY_BUDGET = 3_790_000


class InceptionBudget(PairedTraining):
    """TF-style InceptionV3 training under ``amanda.memory_budget``.

    The vanilla replica trains unbudgeted on the same inputs, so every step
    is checked against it and its step time is the remat-free baseline.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.batches = [
            (rng.standard_normal((INCEPTION_BATCH, 32, 32, 3)),
             rng.integers(0, INCEPTION_CLASSES, INCEPTION_BATCH))
            for _ in range(INCEPTION_BATCHES)]
        self.sessions = {}

    def setup(self) -> None:
        self.models = {kind: GM.build_inception_v3(learning_rate=0.1)
                       for kind in KINDS}
        self.sessions = {kind: model.session()
                         for kind, model in self.models.items()}
        self.step_peaks = []
        self.setup_first_steps()

    def teardown(self) -> None:
        for session in self.sessions.values():
            session.close()
        self.sessions = {}

    def run_step(self, kind: str, index: int) -> np.ndarray:
        model = self.models[kind]
        inputs, labels = self.batches[index % INCEPTION_BATCHES]
        budget = MEMORY_BUDGET if kind == "primary" else 0
        if kind == "primary":
            restart_peak()
        with amanda.memory_budget(budget):
            loss, _ = self.sessions[kind].run(
                [model.loss, model.train_op],
                {model.inputs: inputs, model.labels: labels})
        if kind == "primary":
            self.step_peaks.append(alloc.tracker.peak["dnn"])
        return np.array(loss)

    def after_round(self, index: int) -> list[str]:
        problems = []
        primary, vanilla = (self.losses[kind][index] for kind in KINDS)
        if not _same(primary, vanilla):
            problems.append(f"step {index}: budgeted loss {primary} vs "
                            f"unbudgeted {vanilla}")
        peak = self.step_peaks[-1]
        if peak > MEMORY_BUDGET:
            problems.append(f"step {index}: peak {peak} B over the budget")
        return problems

    def remat(self):
        compiled = self.sessions["primary"].last_compiled
        return compiled.remat if compiled is not None else None

    def layer_extras(self, raw: dict) -> dict[str, float]:
        remat = self.remat()
        if remat is None:
            return {}
        return {"remat.recomputes": remat.num_recomputes,
                "remat.recompute_mflops": remat.recompute_flops / 1e6}

    def timed(self, seconds: float, tally: harness.Tally) -> dict:
        raw = super().timed(seconds, tally)
        # one budgeted step's peak, not the unbudgeted replica's
        raw["peak"] = max(self.step_peaks)
        return raw

    def check(self, tally: harness.Tally) -> None:
        """Losses matched the unbudgeted replica and every budgeted peak
        fit the budget, step by step; the schedule must recompute."""
        remat = self.remat()
        recomputes = remat.num_recomputes if remat is not None else 0
        tally.check([] if recomputes > 0 else
                    ["memory budget scheduled no recomputes"])
        self.teardown()


# ---------------------------------------------------------------------------
# serve-two-tenant
# ---------------------------------------------------------------------------

#: total Poisson arrival rate (requests per second), split 50/50
SERVE_RATE = 100.0
SAMPLE_RATE = 10
#: request lanes: drew the instrumentation sample, or took the fast path
LANES = ("sampled", "vanilla")
#: distinct inputs per tenant the generator draws from
SERVE_POOL = 64
#: a response counts toward goodput when correct and within this latency
GOOD_LATENCY = 0.050
#: how long collection waits for the last responses after generation ends
DRAIN_TIMEOUT = 60.0


class _SpectrumTool(ActivationPruningTool):
    """A heavy analysis routine: eight SVDs per activation, which it then
    passes through unchanged, so sampled and vanilla outputs stay equal."""

    def analysis(self, context):
        if context.get("type") not in self.op_types:
            return
        context.insert_after_op(self.spectrum, outputs=[0])

    @staticmethod
    def spectrum(activation):
        mat = activation.reshape(activation.shape[0], -1)
        for _ in range(8):
            np.linalg.svd(mat, compute_uv=False)
        return activation


_resolved: dict = {}


def _install_resolve_clock() -> None:
    """Timestamp every future when the worker resolves it."""
    future_type = serve.ServeFuture
    if getattr(future_type.set_result, "timestamped", False):
        return
    for name in ("set_result", "set_exception"):
        original = getattr(future_type, name)

        def stamped(future, value, original=original):
            _resolved[future] = clock()
            original(future, value)

        stamped.timestamped = True
        setattr(future_type, name, stamped)


class ServeTwoTenant(Workload):
    """Two tenants behind one serve worker, open-loop Poisson arrivals."""

    TENANTS = ("mlp", "bert")

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.inputs = {
            "mlp": [self.rng.standard_normal((64, 16))
                    for _ in range(SERVE_POOL)],
            "bert": [self.rng.integers(0, BERT_VOCAB, BERT_SHAPE)
                     for _ in range(SERVE_POOL)],
        }
        # the oracle: a direct vanilla session.run per input, computed
        # before anything is served
        self.expected = {}
        for name, model in self._build().items():
            with model.session() as session:
                self.expected[name] = [
                    session.run(model.logits, {model.inputs: value})
                    for value in self.inputs[name]]
        self.runtime = None
        _install_resolve_clock()

    @staticmethod
    def _build() -> dict:
        return {"mlp": GM.build_mlp(seed=17), "bert": GM.build_bert()}

    def setup(self) -> None:
        self.models = self._build()
        tools = {"mlp": (_SpectrumTool(),), "bert": (FlopsProfilingTool(),)}
        runtime = serve.ServeRuntime("perfbench", workers=1, batch_size=8,
                                     deadline_ms=2.0)
        self.tenants = {}
        self.draws = {}
        for name, model in self.models.items():
            tenant = runtime.register(name, model.graph, model.logits,
                                      tools=tools[name],
                                      sample_rate=SAMPLE_RATE)
            self.tenants[name] = tenant
            self.draws[name] = self._record_draws(tenant)
        self.runtime = runtime.start()
        # first response per tenant and lane
        for name in self.TENANTS:
            seen = set()
            while len(seen) < 2:
                future = self._submit(name, 0)
                future.result(timeout=DRAIN_TIMEOUT)
                seen.add(self.draws[name][-1])

    @staticmethod
    def _record_draws(tenant) -> list[bool]:
        drawn: list[bool] = []
        draw = tenant.draw

        def recording_draw():
            sampled = draw()
            drawn.append(sampled)
            return sampled

        tenant.draw = recording_draw
        return drawn

    def _submit(self, name: str, index: int, root=None):
        feed = {self.models[name].inputs: self.inputs[name][index]}
        if root is not None and self.recorder is not None:
            self.recorder.feed_roots[id(feed)] = root
        return self.runtime.submit(self.tenants[name], feed)

    def teardown(self) -> None:
        if self.runtime is not None:
            self.runtime.stop()
            self.runtime = None

    def _schedule(self, seconds: float) -> list[tuple[float, str, int]]:
        """Poisson arrivals at ``SERVE_RATE`` conditioned on their count:
        ``SERVE_RATE * seconds`` due times uniform over the phase, each
        with a tenant drawn 50/50 and one of the tenant's inputs."""
        count = round(SERVE_RATE * seconds)
        due = np.sort(self.rng.uniform(0.0, seconds, count))
        tenant = self.rng.integers(0, 2, count)
        pick = self.rng.integers(0, SERVE_POOL, count)
        return [(float(t), self.TENANTS[w], int(i))
                for t, w, i in zip(due, tenant, pick)]

    def warm_up(self, tally: harness.Tally) -> None:
        """Bring the serving caches to their steady state before timing.

        Every lease swap compiles a fresh instrumented graph into the
        tenant's session plan cache, which keeps up to ``plan_cache_size``
        of them, so the heap (and with it every garbage-collection pause)
        grows until each tenant's cache has filled.  Closed-loop requests,
        alternating tenants, swap the lease until both caches turned over.
        """
        def swaps() -> int:
            return self.runtime.snapshot()["lease"]["swaps"]

        target = swaps() + 2 * config.plan_cache_size + 8
        while swaps() < target:
            for name in self.TENANTS:
                sent = []
                while len(sent) < 4 * SAMPLE_RATE:
                    index = len(sent) % SERVE_POOL
                    sent.append((index, self._submit(name, index)))
                    if self.draws[name][-1]:
                        break
                for index, future in sent:
                    try:
                        value = future.result(timeout=DRAIN_TIMEOUT)
                    except Exception as exc:
                        tally.check([f"{name} warm-up request: {exc!r}"])
                        continue
                    tally.check([] if _same(value, self.expected[name][index])
                                else [f"{name} warm-up response differs"])

    def timed(self, seconds: float, tally: harness.Tally) -> dict:
        self.warm_up(tally)
        schedule = self._schedule(seconds)
        sent = []
        before = self.runtime.snapshot()
        amanda_before = alloc.tracker.live["amanda"]
        _resolved.clear()
        start_phase()
        # here the collector waits for the end of the phase altogether:
        # every lease swap replaces a cached plan, so within a phase the
        # live heap outgrows what start_phase froze, and full passes over
        # it stopped the worker and the generator alike for 100-300 ms; the
        # few that fell into a phase decided its tail
        gc.disable()

        def submit(i: int, due: float) -> None:
            _, name, index = schedule[i]
            future = self._submit(name, index, root=("request", len(sent)))
            sent.append((due, name, index, self.draws[name][-1], future))

        try:
            start = clock() + 0.01
            lags = harness.OpenLoop([row[0] for row in schedule]).run(
                submit, start)
            deadline = clock() + DRAIN_TIMEOUT
            latency = {(lane, name): [] for lane in LANES
                       for name in self.TENANTS}
            good = 0
            for due, name, index, sampled, future in sent:
                try:
                    value = future.result(
                        timeout=max(0.0, deadline - clock()))
                except Exception as exc:
                    tally.check([f"{name} request: {exc!r}"])
                    continue
                took = _resolved[future] - due  # open loop: from the due time
                latency[(LANES[0] if sampled else LANES[1], name)].append(took)
                if tally.check([] if _same(value, self.expected[name][index])
                               else [f"{name} response differs from the "
                                     f"direct session.run"]):
                    good += took <= GOOD_LATENCY
            after = self.runtime.snapshot()
        finally:
            gc.enable()
            end_phase()
        raw = {"latency": latency, "good": good, "elapsed": seconds,
               "lags": lags, "before": before, "after": after,
               "requests": len(sent), "due": [row[0] for row in sent],
               "resolved": [_resolved.get(row[4]) for row in sent],
               "peak": alloc.tracker.peak["dnn"],
               "amanda_growth": alloc.tracker.live["amanda"] - amanda_before}
        raw["garbage"] = gc.collect()
        return raw

    def _lane(self, raw: dict, lanes=LANES) -> list[list[float]]:
        """Per tenant, the latencies of its requests on ``lanes``."""
        return [[t for lane in lanes for t in raw["latency"][(lane, name)]]
                for name in self.TENANTS]

    def _p50(self, raw: dict, lanes=LANES) -> float:
        """Each tenant's median over ``lanes``, averaged over the tenants."""
        return harness.balanced_median(self._lane(raw, lanes))

    def end_to_end(self, raw: dict, tally: harness.Tally) -> dict:
        """``step``/``sampled`` time the sampled lane, the instrumented
        operation (as the primary replica is in training), ``vanilla`` the
        vanilla lane, and ``req`` every request."""
        p50 = self._p50(raw, ("sampled",))
        return {
            "step_ms_p50": p50 * 1e3,
            "vanilla_step_ms_p50": self._p50(raw, ("vanilla",)) * 1e3,
            "req_ms_p50": self._p50(raw) * 1e3,
            "sampled_req_ms_p50": p50 * 1e3,
            "goodput_rps": raw["good"] / raw["elapsed"],
            "peak_alloc_mb": raw["peak"] / 1e6,
        }

    def primary_p50(self, raw: dict) -> float:
        return self._p50(raw)

    def notes(self, raw: dict) -> list[str]:
        lines = [f"{lane} {name}: {len(times)} requests, p50 "
                 f"{harness.quantile(times, 0.5) * 1e3:.3f} ms, p90 "
                 f"{harness.quantile(times, 0.9) * 1e3:.3f} ms"
                 for (lane, name), times in raw["latency"].items()]
        every = [t for times in raw["latency"].values() for t in times]
        lines.append(harness.tail_note(
            "step tail", sum(self._lane(raw, ("sampled",)), []), 0.90))
        lines.append(harness.tail_note("request tail", every, 0.99))
        lag, q = harness.tail(raw["lags"], 0.99)
        lines.append(f"generator lag p{q * 100:.1f} {lag * 1e3:.3f} ms")
        swaps = raw["after"]["lease"]["swaps"] - raw["before"]["lease"]["swaps"]
        lines.append(f"amanda scope grew {raw['amanda_growth']} B over "
                     f"{swaps} lease swaps")
        lines.append(f"collector found {raw['garbage']} unreachable objects "
                     f"after the phase ({raw['garbage'] / raw['requests']:.1f}"
                     f" per request)")
        return lines

    def traced_keys(self, raw: dict) -> tuple[list, list]:
        return [("request", i) for i in range(raw["requests"])], []

    def layer_extras(self, raw: dict) -> dict[str, float]:
        before, after = raw["before"], raw["after"]
        batches = after["queue"]["batches"] - before["queue"]["batches"]
        enqueued = after["queue"]["enqueued"] - before["queue"]["enqueued"]
        flushes = (after["queue"]["deadline_flushes"]
                   - before["queue"]["deadline_flushes"])
        swaps = after["lease"]["swaps"] - before["lease"]["swaps"]
        extras = {
            "serve.batch_size_mean": enqueued / batches if batches else 0.0,
            "serve.deadline_flush_ratio": flushes / batches if batches
            else 0.0,
            "serve.lease_swaps": swaps / raw["requests"] * 1e3,
            "serve.gen_lag_ms_p99": harness.tail(raw["lags"], 0.99)[0] * 1e3,
        }
        # split each request's latency at the start of its own Session.run
        starts = {}
        for span in self.recorder.spans:
            if span.name == "session.run" and span.parent is None \
                    and span.root not in starts:
                starts[span.root] = span.start
        waits, execs = [], []
        for i, (due, resolved) in enumerate(zip(raw["due"],
                                                raw["resolved"])):
            begin = starts.get(("request", i))
            if begin is not None and resolved is not None:
                waits.append(begin - due)
                execs.append(resolved - begin)
        if waits:
            extras["serve.wait_ms_p50"] = harness.quantile(waits, 0.5) * 1e3
            extras["serve.exec_ms_p50"] = harness.quantile(execs, 0.5) * 1e3
        return extras

    def check(self, tally: harness.Tally) -> None:
        """Every response was compared as it was collected."""
        self.teardown()


WORKLOAD_TYPES = {
    "eager-bert-tools": BertTools,
    "captured-bert-tools": CapturedBertTools,
    "graph-inception-budget": InceptionBudget,
    "serve-two-tenant": ServeTwoTenant,
}
