"""Static effect system: which graph ops touch shared state.

The rematerialization pass (:mod:`repro.analysis.remat`) may only re-execute
an op whose result depends on its inputs alone.  The effect system tells it
which ops those are:

* every builtin graph op type has a registered **effect signature** —
  :data:`PURE` (a function of its inputs only), ``reads-state(key)`` /
  ``writes-state(key)`` over named variable-store keys, ``rng`` (consumes
  nondeterministic generator state, modeled as the synthetic key
  :data:`RNG_KEY`), or ``ordered-event`` (:data:`ORDERED_EVENTS_KEY`);
* tool-inserted ``PyCall`` ops carry explicit declarations
  (``Tool.effects`` → the ``effects`` tag the graph driver attaches); an
  undeclared ``PyCall`` is **opaque**;
* :func:`recomputable` admits only effect-pure ops, and pins every
  ``PyCall`` before it reads a signature.

Completeness is enforced like the op-schema registry:
:func:`missing_effect_signatures` diffs the effect table against
``GRAPH_SCHEMAS`` and a unit test (plus ``python -m repro.analysis``) fails
when an op type has a schema but no effect signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..graph.core import SKIP_TYPES, Operation
from .schemas import GRAPH_SCHEMAS, SchemaError

__all__ = [
    "EffectSig", "PURE", "OPAQUE", "RNG_KEY", "ORDERED_EVENTS_KEY",
    "GRAPH_EFFECTS", "register_graph_effect", "effect_signature",
    "recomputable", "normalize_effects", "missing_effect_signatures",
    "stale_effect_signatures", "check_effects_complete",
]

#: synthetic state key modeling nondeterministic RNG stream consumption
RNG_KEY = "<rng>"
#: synthetic state key modeling externally observable event ordering
ORDERED_EVENTS_KEY = "<ordered-events>"

#: op tag caching the computed signature; ``copy_graph`` copies tags, so the
#: memo survives the driver's clone/rewrite cycle and plan recompilation
#: after ``tool_epoch`` bumps never redoes the per-op classification.  Safe
#: because signatures depend only on op type / attrs / declaration tags, all
#: fixed at op construction, and ``Graph.fingerprint`` ignores tags.
_MEMO_TAG = "_effect_sig"


@dataclass(frozen=True)
class EffectSig:
    """Static effect signature of one operation.

    ``reads``/``writes`` are variable-store keys (plus the synthetic
    :data:`RNG_KEY` / :data:`ORDERED_EVENTS_KEY`).  ``opaque`` marks an op
    whose effects are unknown, which no analysis can bound.
    """

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    opaque: bool = False

    @property
    def pure(self) -> bool:
        return not (self.reads or self.writes or self.opaque)

    def __str__(self) -> str:
        if self.opaque:
            return "opaque"
        if self.pure:
            return "pure"
        parts = []
        if self.reads:
            parts.append(f"reads={sorted(self.reads)}")
        if self.writes:
            parts.append(f"writes={sorted(self.writes)}")
        return " ".join(parts)


PURE = EffectSig()
OPAQUE = EffectSig(opaque=True)
_RNG = EffectSig(reads=frozenset((RNG_KEY,)), writes=frozenset((RNG_KEY,)))


def normalize_effects(declaration) -> EffectSig:
    """Normalize a user/tool effect declaration into an :class:`EffectSig`.

    Accepts an :class:`EffectSig`, the strings ``"pure"`` / ``"opaque"``, or
    a mapping with any of ``reads`` / ``writes`` (iterables of state keys)
    and ``rng`` / ``ordered`` (booleans, expanded to the synthetic keys).
    """
    if isinstance(declaration, EffectSig):
        return declaration
    if declaration == "pure":
        return PURE
    if declaration == "opaque":
        return OPAQUE
    if isinstance(declaration, Mapping):
        unknown = set(declaration) - {"reads", "writes", "rng", "ordered"}
        if unknown:
            raise ValueError(
                f"unknown effect declaration keys {sorted(unknown)}; "
                "expected reads/writes/rng/ordered")
        reads = frozenset(declaration.get("reads", ()))
        writes = frozenset(declaration.get("writes", ()))
        if declaration.get("rng"):
            reads |= {RNG_KEY}
            writes |= {RNG_KEY}
        if declaration.get("ordered"):
            reads |= {ORDERED_EVENTS_KEY}
            writes |= {ORDERED_EVENTS_KEY}
        return EffectSig(reads=reads, writes=writes)
    raise ValueError(f"cannot interpret effect declaration {declaration!r}")


# ---------------------------------------------------------------------------
# signature registry (graph backend)
# ---------------------------------------------------------------------------

#: op type -> rule computing the signature from the concrete Operation
GRAPH_EFFECTS: dict[str, Callable[[Operation], EffectSig]] = {}


def register_graph_effect(op_type: str,
                          rule: Callable[[Operation], EffectSig]) -> None:
    if op_type in GRAPH_EFFECTS:
        raise SchemaError(f"duplicate graph effect rule for {op_type!r}")
    GRAPH_EFFECTS[op_type] = rule


def _pure_rule(op: Operation) -> EffectSig:
    return PURE


#: builtin op types that are pure functions of their inputs.  Listed
#: explicitly (not defaulted) so that adding a new op forces a conscious
#: effect classification — the completeness check below enforces it.
_PURE_OPS = (
    "Placeholder", "Const", "Identity", "NoOp",
    "Add", "Sub", "Mul", "RealDiv", "Neg", "Square", "Sqrt",
    "Relu", "Gelu", "Sigmoid", "Tanh", "Softmax", "LogSoftmax", "OnesLike",
    "ReluGrad", "GeluGrad", "SigmoidGrad", "TanhGrad", "SoftmaxGrad",
    "LogSoftmaxGrad", "BroadcastGradient",
    "MatMul", "Conv2D", "Conv2DBackpropInput", "Conv2DBackpropFilter",
    "BiasAdd", "BiasAddGrad", "MaxPool", "AvgPool", "MaxPoolGrad",
    "AvgPoolGrad", "FusedBatchNormGrad", "LayerNorm", "LayerNormGrad",
    "Reshape", "ReshapeGrad", "Transpose", "ConcatV2", "ConcatGrad",
    "Mean", "Sum", "ReduceGrad", "GatherV2", "GatherGrad",
    "SparseSoftmaxCrossEntropyWithLogits", "XentGrad",
    "AddN", "FusedConv2D", "FusedMatMul", "FusedElementwise",
)
for _name in _PURE_OPS:
    register_graph_effect(_name, _pure_rule)


def _variable_rule(op: Operation) -> EffectSig:
    # compute reads the store under the op's own name
    return EffectSig(reads=frozenset((op.name,)))


def _assign_rule(op: Operation) -> EffectSig:
    # the current value arrives as a data input (the Variable output), so the
    # compute only *writes* the store; the read is ordered by the data edge
    return EffectSig(writes=frozenset((op.attrs["var_name"],)))


def _batch_norm_rule(op: Operation) -> EffectSig:
    keys = frozenset((op.attrs["running_mean"], op.attrs["running_var"]))
    if op.attrs.get("training"):
        return EffectSig(reads=keys, writes=keys)
    return EffectSig(reads=keys)


def _dropout_rule(op: Operation) -> EffectSig:
    # a fixed seed makes the mask a pure function of the attrs; a None seed
    # in training mode draws fresh OS entropy per execution
    if op.attrs.get("training") and op.attrs.get("rate", 0.0) > 0 \
            and op.attrs.get("seed") is None:
        return _RNG
    return PURE


def _pycall_rule(op: Operation) -> EffectSig:
    declaration = op.tags.get("effects")
    if declaration is not None:
        return normalize_effects(declaration)
    if op.tags.get("parallel_safe"):
        # observe-only tag from the graph driver: no declared state
        return PURE
    return OPAQUE


register_graph_effect("Variable", _variable_rule)
register_graph_effect("AssignSub", _assign_rule)
register_graph_effect("AssignAdd", _assign_rule)
register_graph_effect("AssignVar", _assign_rule)
register_graph_effect("FusedBatchNorm", _batch_norm_rule)
register_graph_effect("Dropout", _dropout_rule)
register_graph_effect("PyCall", _pycall_rule)


def effect_signature(op: Operation) -> EffectSig:
    """The (memoized) effect signature of one graph operation.

    Unregistered op types (e.g. a user-registered compute without an effect
    rule) are conservatively opaque.
    """
    memo = op.tags.get(_MEMO_TAG)
    if memo is not None:
        return memo
    rule = GRAPH_EFFECTS.get(op.type)
    sig = rule(op) if rule is not None else OPAQUE
    op.tags[_MEMO_TAG] = sig
    return sig


def recomputable(op: Operation) -> bool:
    """Whether the rematerialization pass may re-execute ``op``.

    Only effect-*pure* ops qualify: re-running a state reader could observe a
    later write, a writer/RNG op would apply its effect twice, and an opaque
    op cannot be bounded at all.  ``PyCall`` is pinned even when declared
    pure — its callback is an externally observable tool routine (a profiler
    counting invocations must not see instrumentation points fire twice) —
    and ``NoOp`` anchors carry no value worth evicting.  Seeded dropout *is*
    recomputable (:func:`_dropout_rule` classifies it pure): the recompute
    reseeds ``default_rng(seed)`` and replays the identical mask.
    """
    if op.type in SKIP_TYPES:
        return False
    return effect_signature(op).pure


# ---------------------------------------------------------------------------
# registry completeness (CI-enforced, like the schema registry)
# ---------------------------------------------------------------------------

def missing_effect_signatures() -> set[str]:
    """Graph op types with a schema but no effect signature rule."""
    from ..graph import builder, fusion, gradients  # noqa: F401 (register)
    return set(GRAPH_SCHEMAS) - set(GRAPH_EFFECTS)


def stale_effect_signatures() -> set[str]:
    """Effect rules whose op type has no schema (dead rule)."""
    from ..graph import builder, fusion, gradients  # noqa: F401
    return set(GRAPH_EFFECTS) - set(GRAPH_SCHEMAS)


def check_effects_complete() -> None:
    """Raise :class:`SchemaError` if any schema'd op lacks an effect rule."""
    problems = []
    missing = missing_effect_signatures()
    if missing:
        problems.append(f"graph ops without an effect signature: "
                        f"{sorted(missing)}")
    stale = stale_effect_signatures()
    if stale:
        problems.append(f"effect signatures without a schema: "
                        f"{sorted(stale)}")
    if problems:
        raise SchemaError("; ".join(problems))
