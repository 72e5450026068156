"""Cache-aware analysis engine.

Layers (see docs/PERFORMANCE.md):

* :mod:`repro.engine.cache` — content-addressed module result cache;
* :mod:`repro.engine.scheduler` — the :class:`AnalysisEngine` that probes
  the cache, analyses the misses, and merges deterministically;
* :mod:`repro.engine.worker` — the per-module unit of work.
"""

from repro.engine.cache import (
    ANALYSIS_VERSION,
    DEFAULT_CACHE,
    CacheStats,
    ResultCache,
    module_key,
)
from repro.engine.scheduler import AnalysisEngine, EngineRun, EngineStats
from repro.engine.worker import ModuleResult, analyze_lowered

__all__ = [
    "ANALYSIS_VERSION",
    "AnalysisEngine",
    "CacheStats",
    "DEFAULT_CACHE",
    "EngineRun",
    "EngineStats",
    "ModuleResult",
    "ResultCache",
    "analyze_lowered",
    "module_key",
]
