"""The public Amanda API surface.

``from repro import amanda`` gives the interface the paper's listings use::

    import repro.amanda as amanda

    class PruningTool(amanda.Tool):
        ...

    with amanda.apply(PruningTool()):
        resnet50(model_input)

Importing this module registers the backend drivers for both execution
backends, so ``amanda.apply`` instruments whichever backend the enclosed code
runs on.
"""

import sys as _sys

from .. import backends as _backends  # noqa: F401  (registers both drivers)
from .. import tools

# make ``from repro.amanda.tools import ...`` resolve to repro.tools
_sys.modules[__name__ + ".tools"] = tools
from ..core.actions import Action, ActionType, IPoint
from ..core.config import Config, config, memory_budget, plan_cache_size
from ..core.context import OpContext
from ..core.faults import (ERROR_POLICIES, InstrumentationError, Provenance)
from ..core.ids import LinearCongruentialGenerator, OpIdAssigner
from ..core.interceptor import Interceptor
from ..core.manager import (InstrumentationManager, allow_instrumented_ad,
                           apply, cache_disabled, cache_enabled, disabled,
                           enabled, error_policy, manager, new_iteration)
from ..core.tool import Tool

__all__ = [
    "Tool", "OpContext", "Action", "ActionType", "IPoint",
    "apply", "disabled", "enabled", "cache_disabled", "cache_enabled",
    "allow_instrumented_ad", "new_iteration", "manager",
    "InstrumentationManager", "Interceptor", "LinearCongruentialGenerator",
    "OpIdAssigner", "tools", "error_policy", "InstrumentationError",
    "Provenance", "ERROR_POLICIES", "Config", "config", "plan_cache_size",
    "memory_budget",
]
