"""Instrumentation-as-a-service: the multi-tenant serving runtime.

A :class:`ServeRuntime` serves inference requests for several *tenants* —
each a (graph, fetches, tools) triple — concurrently from one process,
while keeping the paper's one-manager-per-process instrumentation model
intact.  Requests reach the workers through a work-conserving queue
(:class:`~repro.serve.batcher.MicroBatcher`): a free worker takes the oldest
queued request at once, together with requests already queued for the same
tenant and lane.  A sampled batch shares one lease acquire; each request
still runs its own ``session.run``, so a served response is bit-identical
to a direct one.  Four mechanisms make serving safe:

**Two sessions per graph.**  :meth:`ServeRuntime.register` hands each
tenant the two sessions of its graph, made when the first tenant of that
``Graph.fingerprint()`` registers and shared by every later one: a
*vanilla* session marked ``instrumentation_exempt``, which the graph driver
never intercepts, and an *instrumented* session, used only under the
instrumentation lease.  ``Session.run`` is safe to call from concurrent
threads, so every worker runs vanilla batches on the one vanilla session.

**Sampled instrumentation.**  Running every request under instrumentation
would serialize the whole service on the process-global manager.  Instead
each tenant samples 1-in-N requests (``sample_rate``, deterministic per
tenant: requests ``0, N, 2N, ...`` are sampled) onto the *instrumented
lane*; the rest take the *vanilla lane*, which runs the uninstrumented fast
path even while another tenant's tools are active.

**The instrumentation lease.**  Sampled batches run under a process-wide
lease (an RLock) that serializes instrumented execution.  The lease is
*sticky*: after a batch it stays open on the current tenant's tools, so
back-to-back sampled batches from one tenant reuse the open activation.
When a different tenant's sampled batch arrives the lease *swaps* tenants
in place (:meth:`manager.replace_tools`): the drivers stay attached, and
the graph driver keys its instrumented graphs by toolset, so a returning
tenant finds its instrumented graph, and its instrumented session the
compiled plan, from the tenant's last turn.  The lease closes
(``deactivate``, dropping those caches) when the service goes idle, so an
idle serving process leaves ``manager.active`` false and does not intercept
unrelated code.  A lease that fails to open (a tool's ``on_apply`` raises)
closes again before the error reaches the batch's futures.

**Per-tenant fault isolation.**  Each tenant carries its own error policy
and quarantine set.  On every lease swap the leaving tenant's quarantine is
captured from the manager (the swap and ``deactivate`` clear it) and the
arriving tenant's is re-applied via :meth:`manager.quarantine`, so one
tenant's faulty tool stays quarantined for *that* tenant across swaps
without ever disabling another tenant's tools.
"""

from __future__ import annotations

import threading
import time

from ..core.faults import check_error_policy
from ..core.manager import manager
from ..graph.session import Session
from .batcher import MicroBatcher
from .metrics import LatencyRecorder
from .queue import ServeFuture, ServeRequest

__all__ = ["Tenant", "ServeRuntime"]

#: worker poll interval when the queue is empty; also bounds how long a
#: sticky lease outlives the last sampled batch once traffic goes idle
_IDLE_TICK = 0.05


class Tenant:
    """One served model: graph + fetches + tool registry + sampling state."""

    def __init__(self, name: str, graph, fetches, tools=(),
                 sample_rate: int = 1,
                 error_policy: str = "quarantine") -> None:
        self.name = name
        self.graph = graph
        self.fetches = fetches
        self.tools = tuple(tools)
        self.sample_rate = max(0, int(sample_rate))
        self.error_policy = check_error_policy(error_policy)
        #: the graph's vanilla and instrumented sessions, handed over by
        #: :meth:`ServeRuntime.register`
        self.vanilla: Session | None = None
        self.instrumented: Session | None = None
        #: quarantine survives lease swaps: captured from the manager when
        #: this tenant's lease closes, re-applied when it reopens
        self.quarantined: set[str] = set()
        self._lock = threading.Lock()
        self._drawn = 0
        self.submitted = 0
        self.errors = 0
        self.lane_counts = {"sampled": 0, "vanilla": 0}
        self.latency = {"sampled": LatencyRecorder(),
                        "vanilla": LatencyRecorder()}

    def draw(self) -> bool:
        """Deterministic 1-in-N sampling: request k sampled iff k % N == 0."""
        if not self.tools or self.sample_rate <= 0:
            return False
        with self._lock:
            k = self._drawn
            self._drawn += 1
        return k % self.sample_rate == 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "submitted": self.submitted,
                "errors": self.errors,
                "sampled": self.lane_counts["sampled"],
                "vanilla": self.lane_counts["vanilla"],
                "sample_rate": self.sample_rate,
                "quarantined": sorted(self.quarantined),
                "latency": {lane: rec.snapshot()
                            for lane, rec in self.latency.items()},
            }


class _InstrumentationLease:
    """Sticky, tenant-swapping ownership of the process-global manager."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._current: Tenant | None = None
        self._saved_policy: str | None = None
        self.swaps = 0

    def acquire(self, tenant: Tenant) -> None:
        """Enter instrumented execution for ``tenant`` (blocks other lanes).

        Reuses the open activation when ``tenant`` already holds the lease.
        Otherwise a closed lease opens with ``activate`` and an open one
        swaps the previous tenant's tools for this tenant's in place; either
        way this tenant's error policy and quarantine set are applied.  If
        any of that raises, the lease closes before the error propagates:
        no tools stay active, the saved policy is back and the lock is free.
        """
        self._lock.acquire()
        if self._current is tenant:
            return
        try:
            if self._current is None:
                self._saved_policy = manager.error_policy
                manager.activate(tenant.tools)
            else:
                # the swap clears the quarantine set: keep the leaving tenant's
                self._current.quarantined = set(manager.quarantined)
                manager.replace_tools(tenant.tools)
            manager.set_error_policy(tenant.error_policy)
            for name in sorted(tenant.quarantined):
                manager.quarantine(name)
        except BaseException:
            # close what opened; the failed tenant keeps its quarantine set
            self._current = None
            try:
                self._deactivate()
            finally:
                self._lock.release()
            raise
        self._current = tenant
        self.swaps += 1

    def release(self) -> None:
        """Exit the critical section, leaving the activation open (sticky)."""
        self._lock.release()

    def close(self) -> None:
        """Deactivate the current tenant's tools (idle / shutdown path)."""
        with self._lock:
            tenant = self._current
            if tenant is None:
                return
            # deactivate() clears the quarantine set; capture it first so
            # the tenant's quarantine survives until its lease reopens
            tenant.quarantined = set(manager.quarantined)
            self._current = None
            self._deactivate()

    def _deactivate(self) -> None:
        manager.deactivate()
        if self._saved_policy is not None:
            manager.set_error_policy(self._saved_policy)
            self._saved_policy = None

    @property
    def open(self) -> bool:
        return self._current is not None


class ServeRuntime:
    """Concurrent multi-tenant serving loop over the graph backend."""

    def __init__(self, name: str = "default", workers: int = 2,
                 batch_size: int = 8,
                 deadline_ms: float | None = None) -> None:
        """``workers`` threads serve the queue; each takes up to
        ``batch_size`` requests of one tenant and lane at once.

        ``deadline_ms`` is accepted and ignored: the queue is
        work-conserving and holds no batch open waiting for company.  It
        stays only so that existing callers passing it keep working."""
        self.name = name
        self.workers = max(1, int(workers))
        self._batcher = MicroBatcher(batch_size)
        self._lease = _InstrumentationLease()
        self._tenants: dict[str, Tenant] = {}
        #: graph fingerprint -> its (vanilla, instrumented) sessions
        self._sessions: dict[tuple, tuple[Session, Session]] = {}
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self.completed = 0
        self.batches_run = 0

    # -- tenants ---------------------------------------------------------------
    def register(self, name: str, graph, fetches, tools=(),
                 sample_rate: int = 1,
                 error_policy: str = "quarantine") -> Tenant:
        """Register a tenant and hand it the two sessions of its graph.

        Finalizes ``graph`` so its fingerprint is stable; tenants of the same
        graph share its sessions.  An unknown ``error_policy`` raises
        ``ValueError``.
        """
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenant = Tenant(name, graph, fetches, tools,
                            sample_rate=sample_rate,
                            error_policy=error_policy)
            if not graph.finalized:
                graph.finalize()
            key = graph.fingerprint()
            if key not in self._sessions:
                vanilla = Session(graph)
                vanilla.instrumentation_exempt = True
                self._sessions[key] = (vanilla, Session(graph))
            tenant.vanilla, tenant.instrumented = self._sessions[key]
            self._tenants[name] = tenant
            return tenant

    def _resolve(self, tenant) -> Tenant:
        if isinstance(tenant, Tenant):
            return tenant
        return self._tenants[tenant]

    # -- request path ----------------------------------------------------------
    def submit(self, tenant, feed: dict | None = None) -> ServeFuture:
        """Enqueue one inference call; returns immediately with its future."""
        t = self._resolve(tenant)
        request = ServeRequest(t, feed or {}, sampled=t.draw())
        self._batcher.put(request)  # raises once the runtime is stopped
        with t._lock:
            t.submitted += 1
        return request.future

    def request(self, tenant, feed: dict | None = None,
                timeout: float | None = None):
        """Blocking convenience wrapper: submit and wait for the result."""
        return self.submit(tenant, feed).result(timeout)

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ServeRuntime":
        with self._lock:
            if self._started:
                return self
            self._started = True
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-{self.name}-{i}", daemon=True)
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain the queue, stop the workers, release all shared state.

        Every already-submitted request is still served (workers drain the
        queue before exiting); afterwards the lease is closed so
        ``manager.active`` is false again and the sessions drop their plans.
        """
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        self._batcher.stop()
        for thread in threads:
            thread.join()
        self._lease.close()
        for sessions in self._sessions.values():
            for session in sessions:
                session.close()

    def __enter__(self) -> "ServeRuntime":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- worker loop -----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.take(timeout=_IDLE_TICK)
            if batch is None:
                if self._stopping:
                    return  # stopped and drained
                if self._lease.open:
                    self._lease.close()  # idle: stop intercepting the process
                continue
            self._run_batch(batch)

    def _run_batch(self, batch: list[ServeRequest]) -> None:
        tenant = batch[0].tenant
        try:
            if batch[0].sampled:
                self._lease.acquire(tenant)
                try:
                    self._run_requests(tenant.instrumented, tenant, batch,
                                       "sampled")
                finally:
                    self._lease.release()
            else:
                self._run_requests(tenant.vanilla, tenant, batch, "vanilla")
        except BaseException as error:  # the lease failed to open
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
        with self._lock:
            self.batches_run += 1

    def _run_requests(self, session, tenant: Tenant,
                      batch: list[ServeRequest], lane: str) -> None:
        for request in batch:
            try:
                value = session.run(tenant.fetches, request.feed)
            except BaseException as error:
                request.future.set_exception(error)
                with tenant._lock:
                    tenant.errors += 1
            else:
                request.future.set_result(value)
            tenant.latency[lane].record(
                time.perf_counter() - request.enqueued_at)
            with tenant._lock:
                tenant.lane_counts[lane] += 1
            with self._lock:
                self.completed += 1

    # -- observability ---------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            completed = self.completed
            batches_run = self.batches_run
            tenants = list(self._tenants.values())
        return {
            "workers": self.workers,
            "started": self._started,
            "stopping": self._stopping,
            "completed": completed,
            "batches_run": batches_run,
            "lease": {"open": self._lease.open, "swaps": self._lease.swaps},
            "tenants": {t.name: t.stats() for t in tenants},
            "queue": self._batcher.stats(),
        }
