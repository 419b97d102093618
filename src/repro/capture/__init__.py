"""Symbolic capture: run eager modules on the compiled graph executor.

The reproduction has two frontends — define-by-run eager modules and the
define-then-run graph backend — but only the graph backend owns the compiled
execution stack (plan caching, static verification, the slot-table
executor).  This package
unifies them: :func:`capture` traces an eager module into the graph IR and
executes subsequent calls through a :class:`~repro.graph.session.Session`,
guarded by input shapes/dtypes and train/eval mode, with transparent
bail-out to plain eager dispatch whenever a trace cannot be replayed
faithfully.  :func:`capture_step` extends the capture across the autograd
tape, so a whole training step (loss forward plus every parameter gradient)
becomes one compiled graph.  Both wrappers share one guarded-bucket trace,
replay and fallback path.

The contract is bit-identity: a captured call returns byte-for-byte the
arrays plain eager dispatch would, including under instrumentation tools,
because replay executes the very same eager kernel functions in the same
order on the same parameter buffers (lifted to graph variables by aliasing,
not copying), and no pass rewrites the recorded graph, so a tool sees the
same operators as on eager dispatch.
"""

from .captured import CapturedModule, CapturedStep, capture, capture_step
from .ops import CAPTURABLE, ensure_registered
from .tracer import CaptureBailout, Tracer, mirror_backward

__all__ = [
    "CAPTURABLE",
    "CaptureBailout",
    "CapturedModule",
    "CapturedStep",
    "Tracer",
    "capture",
    "capture_step",
    "ensure_registered",
    "mirror_backward",
]
