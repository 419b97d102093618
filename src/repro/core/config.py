"""Runtime configuration knobs (``amanda.config``).

The knobs here tune *how* the framework executes without changing *what* it
computes.  Each knob reads its default from an ``AMANDA_*`` environment
variable at import time so deployments can flip behavior without touching
code, and exposes a scoped context manager for tests and per-run overrides.
One table (:data:`KNOBS`) declares every knob once — its ``Config`` field,
environment variable, default and parser — and the env parsing, ``repr``
and scoped overrides all loop over it.

Current knobs:

* ``plan_cache_size`` (env ``AMANDA_PLAN_CACHE_SIZE``, default 64) — LRU
  bound on the per-session compiled-plan cache.  Long-lived sessions that
  cycle through many distinct fetch sets evict the least recently used
  plan instead of accumulating entries without bound.
* ``memory_budget`` (env ``AMANDA_MEMORY_BUDGET``, default ``0`` = off) —
  activation-memory budget in bytes for the graph executor.  Accepts plain
  integers or ``K``/``M``/``G`` suffixes (``"512M"``).  With a budget set,
  plan compilation runs the static rematerialization pass
  (:mod:`repro.analysis.remat`): when the liveness bound exceeds the budget,
  intermediates whose schema says they are functions of their inputs are
  evicted at their scheduled last use and recomputed before later
  consumers, trading FLOPs for peak memory.  ``0`` disables budgeting (the
  executor still frees every intermediate at its last use).

The serving runtime's worker count, batch size and sampling rate are
arguments of :class:`repro.serve.ServeRuntime` and its ``register``, not
knobs.  Symbolic capture (:mod:`repro.capture`) has no switch: a call it
cannot trace or replay faithfully already runs on plain eager dispatch.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, NamedTuple

__all__ = ["Config", "config", "plan_cache_size", "memory_budget"]


def _parse_int(value: str | int | None, default: int, minimum: int) -> int:
    """Parse an integer clamped to ``minimum``; invalid or missing keeps the
    default."""
    if value is None:
        return default
    try:
        number = int(value)
    except (TypeError, ValueError):
        return default
    return max(minimum, number)


def _parse_bytes(value: str | int | None, default: int = 0) -> int:
    """Parse a byte count with optional K/M/G suffix; 0 (or junk) = off."""
    if value is None:
        return default
    if isinstance(value, str):
        text = value.strip().lower()
        if not text:
            return default
        scale = 1
        if text[-1] in "kmg":
            scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[text[-1]]
            text = text[:-1]
        try:
            return max(0, int(float(text) * scale))
        except (TypeError, ValueError, OverflowError):  # junk, nan, inf
            return default
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        return default


class Knob(NamedTuple):
    """One runtime knob: its ``Config`` field, env variable and parser."""

    field: str
    env: str
    default: Any
    #: ``parse(value, default)``: a missing or invalid value keeps the default
    parse: Callable[[Any, Any], Any]


#: every knob, declared once (the order of ``vars(config)``)
KNOBS = (
    Knob("plan_cache_size", "AMANDA_PLAN_CACHE_SIZE", 64,
         partial(_parse_int, minimum=1)),
    Knob("memory_budget", "AMANDA_MEMORY_BUDGET", 0, _parse_bytes),
)


class Config:
    """Process-global runtime knobs, env-seeded and scope-overridable."""

    # the fields' types, for static checkers: ``refresh_from_env`` sets them
    # from ``KNOBS`` by name
    plan_cache_size: int
    memory_budget: int

    def __init__(self) -> None:
        self.refresh_from_env()

    def refresh_from_env(self) -> None:
        """Re-read every knob from its environment variable."""
        for knob in KNOBS:
            setattr(self, knob.field,
                    knob.parse(os.environ.get(knob.env), knob.default))

    def __repr__(self) -> str:
        return "Config(" + ", ".join(
            f"{knob.field}={getattr(self, knob.field)}"
            for knob in KNOBS) + ")"


#: process-global configuration instance (``amanda.config``)
config = Config()


def _scoped(field: str, doc: str):
    """A context manager that overrides ``config.<field>`` for its scope.

    The new value goes through the knob's parser; one it cannot parse keeps
    the current value.
    """
    knob = next(knob for knob in KNOBS if knob.field == field)

    @contextmanager
    def override(value):
        previous = getattr(config, field)
        setattr(config, field, knob.parse(value, previous))
        try:
            yield config
        finally:
            setattr(config, field, previous)

    override.__doc__ = doc
    return override


plan_cache_size = _scoped(
    "plan_cache_size", "Scope-override the plan-cache LRU bound.")
memory_budget = _scoped(
    "memory_budget",
    "Scope-override the executor memory budget: bytes or a "
    "``K``/``M``/``G``-suffixed string; ``0`` disables budgeting.")
