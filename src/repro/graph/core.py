"""Core data structures of the graph (define-then-run) backend.

This is the reproduction's TensorFlow-1.x analog: a model is first built as an
append-only :class:`Graph` of symbolic :class:`Operation` nodes connected by
:class:`GraphTensor` edges, then executed by a
:class:`~repro.graph.session.Session`.  Mirroring TF semantics that matter to
the paper:

* the graph is **append-only** for users and **finalized** (sealed) once a
  session first runs it — the limitation that breaks user-level tracing via
  graph transformation (Sec. 7);
* variables live in a :class:`VariableStore` shared between a vanilla graph
  and any instrumented copies the Amanda driver builds, so graph switching
  keeps computation state consistent (Sec. 5.3);
* op types use TensorFlow naming (``Conv2D``, ``BiasAdd``...) and NHWC/HWIO
  layouts, so the context MappingTool has a real divergence to normalize.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = ["Graph", "GraphTensor", "Operation", "VariableStore",
           "default_graph", "get_default_graph", "GraphFinalizedError",
           "SKIP_TYPES", "ALIASING_TYPES", "topo_plan", "lifetime_rule",
           "Lifetimes"]

#: op types the instrumentation machinery never analyzes or re-instruments:
#: ``PyCall`` nodes are themselves instrumentation artifacts and ``NoOp``
#: anchors carry no data.  Shared by the graph driver and the static verifier.
SKIP_TYPES = frozenset({"PyCall", "NoOp"})


class GraphFinalizedError(RuntimeError):
    """Raised when user code mutates a graph already submitted to a session."""


def topo_plan(roots: Iterable["Operation"]) -> list["Operation"]:
    """Depth-first topological order over the dependency closure of ``roots``.

    Follows data *and* control dependencies.  This is the single scheduling
    model of the graph backend: :meth:`Session._plan` executes it, and the
    static liveness estimator (:mod:`repro.analysis.liveness`) replays it
    symbolically — keeping the two in lockstep by construction.  (Creation
    order is not sufficient: the rewriter may append a node that earlier ops
    were rewired to consume.)
    """
    plan: list[Operation] = []
    visited: set[str] = set()
    stack: list[tuple[Operation, bool]] = [(op, False) for op in roots]
    while stack:
        op, expanded = stack.pop()
        if expanded:
            plan.append(op)
            continue
        if op.name in visited:
            continue
        visited.add(op.name)
        stack.append((op, True))
        for edge in op.inputs:
            if edge.op.name not in visited:
                stack.append((edge.op, False))
        for dep in op.control_inputs:
            if dep.name not in visited:
                stack.append((dep, False))
    return plan


#: op types whose output may be one of their inputs (the same array)
ALIASING_TYPES = frozenset({"PyCall", "Identity"})


class Lifetimes(NamedTuple):
    """When each value of a plan is read and freed (:func:`lifetime_rule`)."""

    #: per instance step, the instance each data input edge reads
    reads: list[list[int]]
    #: per instance step, the instances whose outputs are freed after it
    release_after_step: list[tuple[int, ...]]
    #: forward ops whose ``OpCtx`` stash some backward op of the plan reads
    stashers: frozenset
    #: the backward ops that read their stash last and drop it
    stash_drops: frozenset


def lifetime_rule(plan: Sequence["Operation"], fetched: Iterable[str] = ()
                  ) -> Callable[..., Lifetimes]:
    """The lifetime rule of a topological plan: when each value dies.

    Returns ``lifetimes(instances=None) -> Lifetimes``.  ``instances`` lists
    the plan positions executed in order: the identity when ``None``, while a
    rematerialization schedule repeats the positions of the ops it
    recomputes.  Every executed instance is one *incarnation* of its op's
    outputs, and a data input reads the incarnation its producer published
    last.  An incarnation dies after the last instance that reads it (its
    own step when none does), extended so that a run never drops bytes it
    still holds:

    * a captured backward op names the forward op whose ``OpCtx`` stash it
      reads in ``attrs["forward_name"]``.  The stash may hold the forward
      op's inputs and outputs, so those incarnations live until the stash's
      last reader, which then drops the stash;
    * a ``PyCall`` or ``Identity`` output may be its own input, so the
      incarnations such an op reads live as long as its output does.

    Fetched ops (names in ``fetched``) are never freed: the run returns them.
    The executor (:class:`repro.graph.session.CompiledPlan`), the
    rematerialization planner and the liveness estimator all take their
    releases from here; the planner evaluates many instance lists of one
    plan, so the per-op facts are gathered once, here.
    """
    position = {op.name: i for i, op in enumerate(plan)}
    inputs_of = [[position[edge.op.name] for edge in op.inputs]
                 for op in plan]
    fetched_names = set(fetched)
    kept = [op.name in fetched_names for op in plan]
    aliasing = [op.type in ALIASING_TYPES for op in plan]
    stash_of: dict[int, tuple[str, int]] = {}   # reader -> (forward, pos)
    for j, op in enumerate(plan):
        forward = op.attrs.get("forward_name")
        if forward is not None:
            stash_of[j] = (forward, position.get(forward, -1))
    stashers = frozenset(forward for forward, _ in stash_of.values())

    def lifetimes(instances: Sequence[int] | None = None) -> Lifetimes:
        if instances is None:
            instances = range(len(plan))
        current = [-1] * len(plan)      # incarnation each op published last
        reads: list[list[int]] = []
        end: list[int] = []
        held: dict[int, int] = {}       # stashed incarnation -> last reader
        last_reader: dict[str, int] = {}
        kept_steps: list[int] = []
        alias_steps: list[int] = []
        for t, j in enumerate(instances):
            read = [current[i] for i in inputs_of[j]]
            assert -1 not in read, "an input runs after its reader"
            for u in read:
                end[u] = t
            reads.append(read)
            end.append(t)
            current[j] = t
            if kept[j]:
                kept_steps.append(t)
            if aliasing[j]:
                alias_steps.append(t)
            if j in stash_of:
                forward, i = stash_of[j]
                last_reader[forward] = t
                if i >= 0 and current[i] >= 0:
                    held[current[i]] = t
        for f, last in held.items():
            for u in [f, *reads[f]]:
                if end[u] < last:
                    end[u] = last
        never = len(end)
        for t in kept_steps:
            end[t] = never
        # readers come later, so one reverse pass settles chains of aliases
        for t in reversed(alias_steps):
            for u in reads[t]:
                if end[u] < end[t]:
                    end[u] = end[t]
        by_step: defaultdict[int, list[int]] = defaultdict(list)
        for u, step in enumerate(end):
            if step < never:
                by_step[step].append(u)
        releases: list[tuple[int, ...]] = [()] * never
        for step, freed in by_step.items():
            releases[step] = tuple(freed)
        return Lifetimes(reads, releases, stashers,
                         frozenset(plan[instances[t]].name
                                   for t in last_reader.values()))

    return lifetimes


class GraphTensor:
    """A symbolic edge: the ``index``-th output of ``op``."""

    __slots__ = ("op", "index", "name")

    def __init__(self, op: "Operation", index: int) -> None:
        self.op = op
        self.index = index
        self.name = f"{op.name}:{index}"

    @property
    def graph(self) -> "Graph":
        return self.op.graph

    # arithmetic sugar builds graph nodes (like TF operator overloading)
    def _binary(self, op_type: str, other) -> "GraphTensor":
        from . import builder
        other = builder.convert_to_tensor(other, graph=self.graph)
        return self.graph.add_op(op_type, [self, other]).outputs[0]

    def __add__(self, other):
        return self._binary("Add", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("Sub", other)

    def __mul__(self, other):
        return self._binary("Mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("RealDiv", other)

    def __neg__(self):
        return self.graph.add_op("Neg", [self]).outputs[0]

    def __repr__(self) -> str:
        return f"GraphTensor({self.name})"


class Operation:
    """A node in the data-flow graph."""

    __slots__ = ("graph", "type", "name", "inputs", "attrs", "outputs",
                 "control_inputs", "forward_op", "op_id", "tags")

    def __init__(self, graph: "Graph", op_type: str, name: str,
                 inputs: Iterable[GraphTensor], attrs: dict | None = None,
                 num_outputs: int = 1,
                 control_inputs: Iterable["Operation"] = ()) -> None:
        self.graph = graph
        self.type = op_type
        self.name = name
        self.inputs = list(inputs)
        self.attrs = dict(attrs or {})
        self.outputs = [GraphTensor(self, i) for i in range(num_outputs)]
        self.control_inputs = list(control_inputs)
        #: for backward ops: the forward Operation they differentiate
        self.forward_op: Operation | None = None
        #: stable instrumentation id, assigned by the framework
        self.op_id: int | None = None
        #: free-form annotations (instrumentation bookkeeping)
        self.tags: dict[str, Any] = {}

    def __repr__(self) -> str:
        return f"Operation(type={self.type!r}, name={self.name!r})"


class VariableStore:
    """Mutable storage for variable values, shared across graph instances.

    The store also tracks the identity of every array it holds (``owns``),
    so the executor's allocation accounting can recognize op outputs that
    *alias* stored state — a ``Variable`` read returns the stored array
    itself — instead of counting them as freshly allocated activation bytes.
    """

    def __init__(self) -> None:
        self._values: dict[str, np.ndarray] = {}
        self._array_ids: dict[int, str] = {}

    def _forget(self, name: str) -> None:
        old = self._values.get(name)
        if old is not None:
            self._array_ids.pop(id(old), None)

    def create(self, name: str, value: np.ndarray) -> None:
        self._forget(name)
        arr = np.array(value, dtype=np.float64)
        self._values[name] = arr
        self._array_ids[id(arr)] = name

    def adopt(self, name: str, array: np.ndarray) -> None:
        """Store ``array`` itself (no copy) as variable ``name``.

        Symbolic capture lifts eager parameters into Variables by *aliasing*
        their live buffers: eager in-place updates (optimizer steps,
        batch-norm running stats, ``load_state_dict``) then stay visible to
        the captured graph without any synchronization step, and vice versa.
        """
        self._forget(name)
        arr = np.asarray(array)
        self._values[name] = arr
        self._array_ids[id(arr)] = name

    def read(self, name: str) -> np.ndarray:
        return self._values[name]

    def write(self, name: str, value: np.ndarray) -> None:
        self._forget(name)
        arr = np.asarray(value)
        self._values[name] = arr
        self._array_ids[id(arr)] = name

    def update_in_place(self, name: str, fn) -> None:
        new = fn(self._values[name])
        self._forget(name)
        self._values[name] = new
        self._array_ids[id(new)] = name

    def owns(self, array) -> bool:
        """Whether ``array`` is one of the store's value arrays."""
        return id(array) in self._array_ids

    def names(self) -> list[str]:
        return sorted(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values


class Graph:
    """An append-only data-flow graph of operations."""

    def __init__(self, variable_store: VariableStore | None = None) -> None:
        self.operations: list[Operation] = []
        self._by_name: dict[str, Operation] = {}
        self._name_counter = itertools.count()
        self.variables = variable_store or VariableStore()
        self.finalized = False
        self.version = 0
        #: instrumented copies bypass the finalize check (driver-internal)
        self._internal_mutation = False
        #: (fingerprint, version) memo — valid while the version is unchanged
        self._fingerprint_memo: tuple[tuple, int] | None = None
        #: capture guard-bucket token: two captured graphs of the same module
        #: traced under different guards (input shapes/dtypes, train/eval)
        #: are structurally near-identical, so the token is mixed into the
        #: fingerprint digest to keep their cache entries distinct
        self.guard_token: Any = None

    # -- construction ---------------------------------------------------------
    def unique_name(self, base: str) -> str:
        name = base
        while name in self._by_name:
            name = f"{base}_{next(self._name_counter)}"
        return name

    def add_op(self, op_type: str, inputs: Iterable[GraphTensor] = (),
               attrs: dict | None = None, name: str | None = None,
               num_outputs: int = 1,
               control_inputs: Iterable[Operation] = ()) -> Operation:
        if self.finalized and not self._internal_mutation:
            raise GraphFinalizedError(
                f"graph is finalized; cannot add op {op_type!r}. "
                "(TensorFlow graphs seal after session submission.)")
        name = self.unique_name(name or op_type)
        op = Operation(self, op_type, name, inputs, attrs, num_outputs,
                       control_inputs)
        self.operations.append(op)
        self._by_name[name] = op
        self.version += 1
        return op

    def get_operation(self, name: str) -> Operation:
        return self._by_name[name]

    def get_tensor(self, name: str) -> GraphTensor:
        op_name, _, index = name.partition(":")
        return self._by_name[op_name].outputs[int(index or 0)]

    # -- lifecycle -------------------------------------------------------------
    def finalize(self) -> None:
        self.finalized = True

    def fingerprint(self) -> tuple:
        """Structural identity used by the session/driver plan caches.

        ``(id, version, structural digest)``: the digest guards against id
        reuse after a graph is garbage-collected (a recycled ``id()`` with a
        coincidentally equal version must not resurrect a stale cache entry).
        Computing it walks the whole graph, an O(ops) cost ``Session.run``
        would otherwise pay on every iteration — so the result is memoized
        and only recomputed when ``version`` moves (user mutation before
        finalization, or a driver rewrite of an instrumented copy).
        """
        memo = self._fingerprint_memo
        if memo is not None and memo[1] == self.version:
            return memo[0]
        digest = hash((self.guard_token, tuple(
            (op.type, op.name,
             tuple(edge.name for edge in op.inputs),
             tuple(dep.name for dep in op.control_inputs))
            for op in self.operations)))
        fingerprint = (id(self), self.version, digest)
        self._fingerprint_memo = (fingerprint, self.version)
        return fingerprint

    # -- queries ----------------------------------------------------------------
    def consumers(self, tensor: GraphTensor) -> list[Operation]:
        return [op for op in self.operations if tensor in op.inputs]

    def __len__(self) -> int:
        return len(self.operations)

    def __repr__(self) -> str:
        return f"Graph({len(self.operations)} ops, version={self.version})"


_default_graph_stack: list[Graph] = [Graph()]


def get_default_graph() -> Graph:
    return _default_graph_stack[-1]


class default_graph:
    """Context manager making ``graph`` the implicit build target."""

    def __init__(self, graph: Graph | None = None) -> None:
        # explicit identity check (same falsy-empty-graph hazard as
        # builder._graph): a fresh Graph has len() == 0 and is falsy, and
        # ``with default_graph(my_graph):`` must target *that* graph even
        # before its first op is added
        self.graph = graph if graph is not None else Graph()

    def __enter__(self) -> Graph:
        _default_graph_stack.append(self.graph)
        return self.graph

    def __exit__(self, *exc) -> bool:
        _default_graph_stack.pop()
        return False
