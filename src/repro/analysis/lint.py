"""Lint pass over the instrumentation action stream.

The graph driver's phase-1 analysis produces one :class:`OpContext` per
operator, each carrying the :class:`~repro.core.actions.Action` list the
active tools recorded for it.  The actions compose blindly — two tools can
each believe they own an operator — so this pass inspects the whole stream
and flags compositions that are legal individually but wrong together:

* ``replace-conflict`` — two different tools both replace the same operator;
  only the last replacement wins silently at realization time;
* ``insert-after-fetch`` — an ``insert_after_op`` on an operator whose output
  is a fetch target: the fetch is redirected to the wrapper's output, so the
  user observes the *instrumented* value instead of the model's;
* ``backward-no-ad`` — a backward-graph mutation recorded while the manager
  was not created with ``allow_instrumented_ad``;
* ``cache-unsafe-context`` — a tool stored per-run state in the context
  (``has_user_state``) while graph-level caching is enabled: analysis will
  not rerun for cached graphs, so that state silently goes stale;
* ``plan-unsafe-kwargs`` — an action's kwargs capture a mutable container
  (list/dict/set/bytearray) that is *aliased* elsewhere: stored as context
  user state, or shared by other actions.  Kwargs are frozen into the
  compiled execution plan's closure at cache-store time, so mutating such
  shared per-iteration state later changes replay behavior without
  invalidating the plan.  Private single-use snapshots (a dict built inside
  the analysis routine) and ndarrays are exempt — snapshotting into kwargs
  is the established cache-safe idiom (see ``cache-unsafe-context``).

Lints are warnings, not errors — :func:`lint_contexts` returns the issue list
and never raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.actions import ActionType
from ..core.context import OpContext

__all__ = ["LintIssue", "lint_contexts"]

_REPLACE_TYPES = (ActionType.REPLACE_OP, ActionType.REPLACE_BACKWARD_OP)


@dataclass(frozen=True)
class LintIssue:
    """One composition problem found in the action stream."""

    rule: str           # replace-conflict | insert-after-fetch | ...
    op_name: str
    op_type: str
    message: str
    tools: tuple[str, ...] = ()

    def __str__(self) -> str:
        tools = f" [tools: {', '.join(self.tools)}]" if self.tools else ""
        return f"[{self.rule}] {self.op_name} ({self.op_type}): " \
               f"{self.message}{tools}"


def _op_identity(context: OpContext) -> tuple[str, str]:
    op = context.get_op()
    name = getattr(op, "name", None) or str(context.get_op_id())
    op_type = context.get("_raw_type", context.get("type", "?"))
    return name, op_type


def _tool_name(action) -> str:
    return action.tool or "<anonymous tool>"


def lint_contexts(contexts: Iterable[OpContext],
                  fetch_names: Iterable[str] = (),
                  allow_instrumented_ad: bool = False,
                  cache_enabled: bool = True,
                  manager=None) -> list[LintIssue]:
    """Lint the recorded action stream of one instrumentation pass.

    ``contexts`` is the per-op context list the driver produced (e.g.
    ``GraphDriver.last_contexts``).  ``fetch_names`` are tensor or op names
    the user fetches (``"loss"`` and ``"loss:0"`` both work).  When
    ``manager`` is given, ``allow_instrumented_ad`` / ``cache_enabled`` are
    read from it instead.
    """
    if manager is not None:
        allow_instrumented_ad = getattr(manager, "instrumented_ad",
                                        allow_instrumented_ad)
        cache_enabled = getattr(manager, "cache_enabled", cache_enabled)
    fetch_ops = {name.partition(":")[0] for name in fetch_names}
    issues: list[LintIssue] = []
    contexts = list(contexts)

    # identity-count every mutable kwargs container across the whole stream:
    # a container referenced by more than one action is shared state whose
    # mutation would silently desynchronize the compiled plans replaying it
    kwarg_refs: dict[int, int] = {}
    for context in contexts:
        for action in context.actions:
            for value in action.kwargs.values():
                if isinstance(value, (list, dict, set, bytearray)):
                    kwarg_refs[id(value)] = kwarg_refs.get(id(value), 0) + 1

    for context in contexts:
        name, op_type = _op_identity(context)
        actions = list(context.actions)

        replacements: Mapping[ActionType, list] = {}
        for action in actions:
            if action.type in _REPLACE_TYPES:
                replacements.setdefault(action.type, []).append(action)
        for action_type, group in replacements.items():
            owners = [_tool_name(a) for a in group]
            if len(group) > 1:
                issues.append(LintIssue(
                    "replace-conflict", name, op_type,
                    f"{len(group)} {action_type.value} actions target this "
                    "operator; only the last replacement takes effect and "
                    "the others are silently discarded",
                    tuple(dict.fromkeys(owners))))

        if name in fetch_ops:
            wrappers = [a for a in actions
                        if a.type == ActionType.INSERT_AFTER_OP]
            for action in wrappers:
                issues.append(LintIssue(
                    "insert-after-fetch", name, op_type,
                    "insert_after_op on a fetch target: the session fetch "
                    "is redirected to the wrapper output, so the fetched "
                    "value is the instrumented one, not the model's",
                    (_tool_name(action),)))

        if not allow_instrumented_ad:
            for action in actions:
                if action.type == ActionType.REPLACE_BACKWARD_OP:
                    issues.append(LintIssue(
                        "backward-no-ad", name, op_type,
                        "backward-graph replacement recorded without "
                        "allow_instrumented_ad; gradients will silently "
                        "diverge from the autodiff of the forward graph",
                        (_tool_name(action),)))

        if cache_enabled:
            user_values = [context.get(key) for key in context.user_keys]
            for action in actions:
                mutable = sorted(
                    key for key, value in action.kwargs.items()
                    if isinstance(value, (list, dict, set, bytearray))
                    and (kwarg_refs.get(id(value), 0) > 1
                         or any(value is uv for uv in user_values)))
                if mutable:
                    issues.append(LintIssue(
                        "plan-unsafe-kwargs", name, op_type,
                        f"action kwargs {mutable} hold mutable containers "
                        "aliased outside this action; kwargs are frozen into "
                        "the compiled execution plan at cache-store time, so "
                        "mutating them later changes replay behavior without "
                        "invalidating the plan — snapshot into an ndarray or "
                        "pass immutable values",
                        (_tool_name(action),)))

        if cache_enabled and context.has_user_state and actions:
            # state baked into an action's kwargs is snapshotted at rewrite
            # time and therefore cache-safe (e.g. a static pruning mask);
            # state only reachable through the context is not — analysis
            # will not rerun for cached graphs to refresh it.
            baked = [value for action in actions
                     for value in action.kwargs.values()]
            stale_keys = sorted(
                key for key in context.user_keys
                if not any(context.get(key) is value for value in baked))
            if stale_keys:
                issues.append(LintIssue(
                    "cache-unsafe-context", name, op_type,
                    f"tool stored context state {stale_keys} that no "
                    "recorded action snapshots; with graph-level caching on, "
                    "analysis does not rerun for cached graphs, so that "
                    "state silently goes stale",
                    tuple(sorted({_tool_name(a) for a in actions}))))

    return issues
