"""The shared allocation-experiment engine (request → summary).

The serve-many-compilations layer: experiment harnesses describe each
allocation as a content-hashed :class:`ExperimentRequest`, and the
:class:`ExperimentEngine` answers from an in-process memo, a persistent
on-disk cache (checksummed envelopes; corrupt entries quarantine as
misses), or a supervised worker pool with timeouts, bounded retries and
poison-request quarantine — see ``engine.py`` for the resolution order,
``request.py`` for the keying rules, ``supervisor.py`` for the failure
model, and ``faults.py`` for the deterministic chaos harness of the
workers, the supervisor and the cache.
"""

from .cache import (CacheStats, ResultCache, SHARD_WIDTH,
                    default_cache_dir, QUARANTINE_DIR)
from .engine import (BatchStats, EngineStats, ExperimentEngine,
                     RequestObservation, default_engine)
from .executor import execute_request
from .faults import (CORRUPTION_KINDS, FaultPlan, InjectedFault,
                     corrupt_cache_entry)
from .request import (AllocationSummary, CACHE_VERSION, ExperimentRequest,
                      TimingReport, TimingSample, request_key)
from .supervisor import (AttemptObservation, ExperimentError,
                         ExperimentFailure, PoolStats, SupervisedStats,
                         SupervisorConfig, WorkerPool, expect_summary,
                         run_supervised)

__all__ = [
    "AllocationSummary",
    "AttemptObservation",
    "BatchStats",
    "CACHE_VERSION",
    "CORRUPTION_KINDS",
    "CacheStats",
    "EngineStats",
    "ExperimentEngine",
    "ExperimentError",
    "ExperimentFailure",
    "ExperimentRequest",
    "FaultPlan",
    "InjectedFault",
    "PoolStats",
    "QUARANTINE_DIR",
    "RequestObservation",
    "ResultCache",
    "SHARD_WIDTH",
    "SupervisedStats",
    "SupervisorConfig",
    "WorkerPool",
    "TimingReport",
    "TimingSample",
    "corrupt_cache_entry",
    "default_cache_dir",
    "default_engine",
    "execute_request",
    "expect_summary",
    "request_key",
    "run_supervised",
]
