"""Subgraph rewriting tool (built-in, Sec. 5.2).

Modifies the DNN at subgraph granularity: the user supplies *patterns* —
linear chains of canonical op types — and a rewrite callback.  The tool uses
the built-in :class:`GraphTracingTool` to know each operator's producers, so
it works identically in eager mode (where no explicit graph exists) and graph
mode.

A matched chain is rewritten by replacing its ops: the rewrite callback
returns, per position in the chain, either ``None`` (keep the op), a callable
(replace the op's computation), or the string ``"identity"`` (remove the op —
replace-with-identity semantics).
"""

from __future__ import annotations

from typing import Callable

from ..core.context import OpContext
from ..core.tool import Tool
from .mapping import standard_mapping_tool
from .tracing import GraphTracingTool

__all__ = ["SubgraphRewritingTool"]


def _identity(*arrays):
    """Removal semantics: forward the op's first (data) input unchanged."""
    return arrays[0]


class SubgraphRewritingTool(Tool):
    """Pattern-matched rewriting of operator chains."""

    def __init__(self, pattern: list[str],
                 rewrite: Callable[[list[OpContext]], list]) -> None:
        """``pattern`` is a chain of canonical op types, matched along data
        edges; ``rewrite(chain_contexts)`` returns one entry per position."""
        super().__init__()
        self.pattern = list(pattern)
        self.rewrite = rewrite
        self.matches: list[list[int]] = []
        self.tracer = GraphTracingTool()
        self.depends_on(standard_mapping_tool(), self.tracer)
        #: op_id -> (context, type); pending contexts of potential chain heads
        self._contexts: dict[int, OpContext] = {}
        # before-forward: the tracer (a dependency) has already added the
        # current op and its input edges, and a replace action registered now
        # still applies to this very execution
        self.add_inst_for_op(self.analysis)

    def analysis(self, context: OpContext) -> None:
        op_id = context.get_op_id()
        op_type = context.get("type")
        self._contexts[op_id] = context
        if op_type != self.pattern[-1]:
            return
        chain = self._match_chain(op_id)
        if chain is None:
            return
        self.matches.append(chain)
        contexts = [self._contexts[node] for node in chain]
        replacements = self.rewrite(contexts)
        from ..core.manager import manager
        for node_context, replacement in zip(contexts, replacements):
            if replacement is None:
                continue
            func = _identity if replacement == "identity" else replacement
            action = node_context.replace_op(func)
            if node_context is not context:
                # the earlier op's actions were already evaluated/cached this
                # iteration; back-patch its cache record so the replacement
                # applies from the next execution (eager) — the graph driver
                # applies all actions after the full analysis pass instead
                manager.cache_append(node_context.get_op_id(), action)

    def _match_chain(self, tail_id: int) -> list[int] | None:
        """Walk producers backwards matching the pattern right-to-left."""
        graph = self.tracer.graph
        chain = [tail_id]
        current = tail_id
        for expected in reversed(self.pattern[:-1]):
            preds = [p for p in graph.predecessors(current)
                     if not graph.nodes[p].get("backward")]
            matching = [p for p in preds
                        if graph.nodes[p].get("type") == expected]
            if len(matching) != 1:
                return None
            current = matching[0]
            chain.append(current)
        chain.reverse()
        # all chain contexts must still be pending (same iteration)
        if any(node not in self._contexts for node in chain):
            return None
        return chain
