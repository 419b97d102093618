"""Session pool sharded by ``Graph.fingerprint()``.

One *shard* per distinct (finalized) graph; tenants that serve the same
graph instance share a shard, so its sessions' compiled-plan caches stay hot
across tenants.  Each shard holds

* a free list of **vanilla** sessions (``instrumentation_exempt = True``):
  the graph driver never intercepts them, so un-sampled requests run the
  tri-state vanilla fast path even while another tenant's tools hold the
  instrumentation lease.  Sessions are checked out exclusively per
  micro-batch and parked on check-in; the population grows on demand and is
  naturally bounded by the worker count.
* one **instrumented** session (``instrumentation_exempt = False``), used
  only under the instrumentation lease — the lease serializes sampled
  execution, so one session per shard suffices.  Its plan cache holds one
  plan per toolset served on the shard's graph: across lease swaps the
  graph driver hands back the same instrumented graph for a returning
  toolset, so its compiled plan is hit, not rebuilt (bounded by
  ``AMANDA_PLAN_CACHE_SIZE``).
"""

from __future__ import annotations

import threading

from ..graph.core import Graph
from ..graph.session import Session

__all__ = ["SessionPool"]


class _Shard:
    __slots__ = ("graph", "idle", "created", "instrumented")

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.idle: list[Session] = []
        self.created = 0
        self.instrumented: Session | None = None


class SessionPool:
    """Checkout/check-in pool of graph sessions, one shard per fingerprint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: dict[tuple, _Shard] = {}
        self.checkouts = 0
        self.misses = 0  # checkouts that had to create a fresh session

    def _shard(self, graph: Graph) -> _Shard:
        if not graph.finalized:
            # freeze the fingerprint before using it as a shard key
            graph.finalize()
        key = graph.fingerprint()
        shard = self._shards.get(key)
        if shard is None:
            shard = self._shards[key] = _Shard(graph)
        return shard

    # -- vanilla lane ----------------------------------------------------------
    def checkout(self, graph: Graph, tenant: str | None = None) -> Session:
        """An exclusively-owned vanilla (instrumentation-exempt) session.

        ``tenant`` charges plans compiled during this checkout to that
        tenant's plan-cache quota (sessions are shared across tenants of the
        same graph, so without quotas one tenant's plan churn — e.g. distinct
        memory-budget variants — could evict another tenant's hot plans).
        """
        with self._lock:
            shard = self._shard(graph)
            self.checkouts += 1
            if shard.idle:
                session = shard.idle.pop()
                session.cache_tenant = tenant
                return session
            self.misses += 1
            shard.created += 1
            session = Session(graph)
            session.instrumentation_exempt = True
            session.cache_tenant = tenant
            return session

    def checkin(self, graph: Graph, session: Session) -> None:
        with self._lock:
            self._shard(graph).idle.append(session)

    # -- instrumented lane -----------------------------------------------------
    def instrumented(self, graph: Graph,
                     tenant: str | None = None) -> Session:
        """The shard's dedicated interceptable session (lease-serialized)."""
        with self._lock:
            shard = self._shard(graph)
            if shard.instrumented is None:
                shard.instrumented = Session(graph)
            # the instrumentation lease serializes use, so reassigning the
            # charged tenant per batch is race-free
            shard.instrumented.cache_tenant = tenant
            return shard.instrumented

    # -- lifecycle / observability ---------------------------------------------
    def close(self) -> None:
        with self._lock:
            for shard in self._shards.values():
                for session in shard.idle:
                    session.close()
                if shard.instrumented is not None:
                    shard.instrumented.close()
            self._shards.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "shards": len(self._shards),
                "sessions": sum(s.created for s in self._shards.values()),
                "idle": sum(len(s.idle) for s in self._shards.values()),
                "instrumented": sum(
                    1 for s in self._shards.values()
                    if s.instrumented is not None),
                "checkouts": self.checkouts,
                "misses": self.misses,
            }
