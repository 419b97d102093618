"""``repro.serve`` — instrumentation-as-a-service for the graph backend.

Serve several tenants (graph + fetches + tool registry) concurrently from
one process.  Requests queue per tenant and lane, and a free worker takes
the oldest at once; 1-in-N requests run under that tenant's
instrumentation and the rest take the vanilla fast path on the graph's
instrumentation-exempt session.  See :mod:`repro.serve.runtime` for the
architecture notes and ``DESIGN.md`` ("Serving layer") for the rationale.

Typical use::

    from repro import serve

    rt = serve.ServeRuntime(workers=4)
    tenant = rt.register("resnet", graph, fetches=["probs"],
                         tools=(ProfilingTool(),), sample_rate=10)
    with rt:
        future = rt.submit(tenant, {"x": batch})
        probs = future.result(timeout=5.0)
    print(rt.snapshot()["tenants"]["resnet"]["latency"])
"""

from .. import backends as _backends  # noqa: F401  (registers the backend
# drivers: the instrumented lane needs the graph driver's run interceptor
# attached when the lease activates a tenant's tools, and ``repro.serve``
# must work without a prior ``import repro.amanda``)
from .batcher import MicroBatcher
from .metrics import LatencyRecorder
from .queue import ServeFuture, ServeRequest
from .runtime import ServeRuntime, Tenant

__all__ = [
    "ServeRuntime", "Tenant", "MicroBatcher", "ServeFuture", "ServeRequest",
    "LatencyRecorder",
]
