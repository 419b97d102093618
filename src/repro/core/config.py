"""Runtime configuration knobs (``amanda.config``).

The knobs here tune *how* the framework executes without changing *what* it
computes.  Each knob reads its default from an ``AMANDA_*`` environment
variable at import time so deployments can flip behavior without touching
code, and exposes a scoped context manager for tests and per-run overrides.

Current knobs:

* ``plan_cache_size`` (env ``AMANDA_PLAN_CACHE_SIZE``, default 64) — LRU
  bound on the per-session compiled-plan cache.  Long-lived sessions that
  cycle through many distinct fetch sets evict the least recently used
  plan instead of accumulating entries without bound.
* ``capture`` (env ``AMANDA_CAPTURE``, default on) — kill switch for
  symbolic capture (:mod:`repro.capture`).  A module wrapped with
  ``capture()`` traces its eager ops into the graph IR and replays them
  through the compiled :class:`~repro.graph.session.Session`; with the
  knob off the wrapper becomes a transparent pass-through to plain eager
  dispatch (no tracing, no guards), which is the safe rollback if a
  captured workload misbehaves in production.
* ``serve_workers`` (env ``AMANDA_SERVE_WORKERS``, default ``2``) — worker
  threads of a :class:`repro.serve.ServeRuntime`.  Each free worker takes
  the oldest queued request (plus queued requests of the same tenant and
  lane) off the shared request queue and executes them on pooled sessions;
  ``"auto"`` resolves to the host CPU count.
* ``sample_rate`` (env ``AMANDA_SAMPLE_RATE``, default ``1``) — sampled
  instrumentation for the serving runtime: instrument 1-in-N requests per
  tenant and route the rest through the vanilla fast path (an
  instrumentation-exempt pooled session the graph driver never intercepts).
  ``1`` instruments every request; ``0`` disables instrumentation entirely.
* ``serve_batch`` (env ``AMANDA_SERVE_BATCH``, default ``8``) — the most
  requests a serving worker takes from the queue at once: the oldest queued
  request plus up to ``serve_batch - 1`` more already queued for the same
  tenant and lane.  A worker never waits for a batch to fill.
* ``memory_budget`` (env ``AMANDA_MEMORY_BUDGET``, default ``0`` = off) —
  activation-memory budget in bytes for the graph executor.  Accepts plain
  integers or ``K``/``M``/``G`` suffixes (``"512M"``).  With a budget set,
  plan compilation runs the static rematerialization pass
  (:mod:`repro.analysis.remat`): when the liveness bound exceeds the budget,
  effect-pure intermediates are evicted at their scheduled last use and
  recomputed before later consumers, trading FLOPs for peak memory.  ``0``
  disables budgeting (the executor still frees every intermediate at its
  last use).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["Config", "config", "plan_cache_size", "capture_enabled",
           "serve_workers", "sample_rate", "serve_batch", "memory_budget"]


def _parse_workers(value: str | int | None, default: int) -> int:
    """Parse a worker-count setting; invalid or missing keeps the default."""
    if value is None:
        return default
    if isinstance(value, str):
        value = value.strip().lower()
        if not value:
            return default
        if value == "auto":
            return max(1, os.cpu_count() or 1)
    try:
        workers = int(value)
    except (TypeError, ValueError):
        return default
    return max(1, workers)


def _parse_flag(value: str | bool | None, default: bool = True) -> bool:
    """Parse an on/off setting; unrecognized values keep the default."""
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    text = value.strip().lower()
    if text in ("1", "true", "on", "yes"):
        return True
    if text in ("0", "false", "off", "no"):
        return False
    return default


def _parse_bound(value: str | int | None, default: int) -> int:
    """Parse a positive cache bound; invalid or missing keeps the default."""
    if value is None:
        return default
    try:
        bound = int(value)
    except (TypeError, ValueError):
        return default
    return max(1, bound)


def _parse_rate(value: str | int | None, default: int) -> int:
    """Parse a non-negative 1-in-N sampling rate (0 = never sample)."""
    if value is None:
        return default
    try:
        rate = int(value)
    except (TypeError, ValueError):
        return default
    return max(0, rate)


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
        except (TypeError, ValueError):
            return default
    try:
        return max(0, int(value))
    except (TypeError, ValueError):
        return default


class Config:
    """Process-global runtime knobs, env-seeded and scope-overridable."""

    def __init__(self) -> None:
        self.refresh_from_env()

    def refresh_from_env(self) -> None:
        """Re-read every knob from its environment variable."""
        self.plan_cache_size = _parse_bound(
            os.environ.get("AMANDA_PLAN_CACHE_SIZE"), default=64)
        self.capture = _parse_flag(os.environ.get("AMANDA_CAPTURE"))
        self.serve_workers = _parse_workers(
            os.environ.get("AMANDA_SERVE_WORKERS"), default=2)
        self.sample_rate = _parse_rate(
            os.environ.get("AMANDA_SAMPLE_RATE"), default=1)
        self.serve_batch = _parse_bound(
            os.environ.get("AMANDA_SERVE_BATCH"), default=8)
        self.memory_budget = _parse_bytes(
            os.environ.get("AMANDA_MEMORY_BUDGET"), default=0)

    def __repr__(self) -> str:
        return (f"Config(plan_cache_size={self.plan_cache_size}, "
                f"capture={self.capture}, "
                f"serve_workers={self.serve_workers}, "
                f"sample_rate={self.sample_rate}, "
                f"serve_batch={self.serve_batch}, "
                f"memory_budget={self.memory_budget})")


#: process-global configuration instance (``amanda.config``)
config = Config()


@contextmanager
def plan_cache_size(bound: int):
    """Scope-override the plan-cache LRU bound."""
    previous = config.plan_cache_size
    config.plan_cache_size = _parse_bound(bound, default=previous)
    try:
        yield config
    finally:
        config.plan_cache_size = previous


@contextmanager
def capture_enabled(enabled: bool):
    """Scope-override the symbolic-capture knob (``amanda.capture_enabled``)."""
    previous = config.capture
    config.capture = _parse_flag(enabled)
    try:
        yield config
    finally:
        config.capture = previous


@contextmanager
def serve_workers(workers: int | str):
    """Scope-override the serving worker count (``amanda.serve_workers``)."""
    previous = config.serve_workers
    config.serve_workers = _parse_workers(workers, default=previous)
    try:
        yield config
    finally:
        config.serve_workers = previous


@contextmanager
def sample_rate(rate: int):
    """Scope-override the 1-in-N instrumentation sampling rate."""
    previous = config.sample_rate
    config.sample_rate = _parse_rate(rate, default=previous)
    try:
        yield config
    finally:
        config.sample_rate = previous


@contextmanager
def memory_budget(budget: int | str):
    """Scope-override the executor memory budget (``amanda.memory_budget``).

    Accepts bytes or a ``K``/``M``/``G``-suffixed string; ``0`` disables
    budgeting for the scope.
    """
    previous = config.memory_budget
    config.memory_budget = _parse_bytes(budget, default=previous)
    try:
        yield config
    finally:
        config.memory_budget = previous


@contextmanager
def serve_batch(size: int):
    """Scope-override how many same-key requests a worker takes at once."""
    previous = config.serve_batch
    config.serve_batch = _parse_bound(size, default=previous)
    try:
        yield config
    finally:
        config.serve_batch = previous
