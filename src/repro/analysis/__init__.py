"""Static analysis over both IRs: schemas, verification, lint, liveness.

The Amanda graph driver rewrites a *copied* graph statically at submission
time (Sec. 5.3), so a buggy tool can produce a malformed or shape-inconsistent
instrumented graph that only explodes deep inside ``Session.run`` — or, worse,
runs and silently computes the wrong thing.  This package catches those bugs
*before* any kernel executes:

* :mod:`repro.analysis.schemas` — per-op-type schemas (arity, attribute
  types, shape/dtype inference rules, and whether the op touches state
  beyond its inputs) for every operator of the graph backend and the eager
  backend, with completeness checks so a new op cannot be added without a
  schema;
* :mod:`repro.analysis.verify` — structural graph verification (dangling
  inputs, duplicate names, cycles, orphaned ``PyCall`` wrappers,
  fetch-redirect consistency) plus full shape/dtype propagation with
  op-level provenance on the first inconsistency;
* :mod:`repro.analysis.lint` — lint rules over the instrumentation action
  stream (tool conflicts, fetch-shadowing wrappers, backward mutation without
  ``allow_instrumented_ad``, cache-unsafe context mutation);
* :mod:`repro.analysis.liveness` — a static liveness / peak-activation-memory
  estimator cross-checkable against the dynamic
  :class:`repro.tools.memory.MemoryProfilingTool`;
* :mod:`repro.analysis.remat` — static keep-vs-recompute schedules for a
  memory budget, recomputing only ops whose schema says they are functions
  of their inputs.

Run ``python -m repro.analysis`` to verify and lint the graphs built by the
``examples/`` model zoo.
"""

from .lint import LintIssue, lint_contexts
from .liveness import LivenessReport, estimate_liveness
from .source_lint import (SourceLintIssue, lint_span_safety,
                          lint_span_safety_source)
from .schemas import (EAGER_SCHEMAS, GRAPH_SCHEMAS, InferenceError, OpSchema,
                      SchemaError, check_registry_complete,
                      missing_eager_schemas, missing_graph_schemas,
                      validate_mask_shape, validate_scale)
from .verify import (GraphVerifier, Issue, VerificationError,
                     VerificationReport, verify_graph)

__all__ = [
    "OpSchema", "SchemaError", "InferenceError",
    "GRAPH_SCHEMAS", "EAGER_SCHEMAS",
    "missing_graph_schemas", "missing_eager_schemas",
    "check_registry_complete", "validate_mask_shape", "validate_scale",
    "GraphVerifier", "VerificationReport", "VerificationError", "Issue",
    "verify_graph",
    "LintIssue", "lint_contexts",
    "LivenessReport", "estimate_liveness",
    "SourceLintIssue", "lint_span_safety", "lint_span_safety_source",
]
