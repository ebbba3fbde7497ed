"""Deterministic workload replay.

:mod:`repro.perf.replay` re-executes the query log captured by the
observability layer (optionally gated to slow queries) through
:class:`~repro.engine.QueryEngine`, serial and concurrent, asserting
distance and survivor parity with the recorded run.

CLI surface: ``repro perf replay`` (see ``repro perf replay --help``).
"""

from .replay import (
    ReplayCheck,
    ReplayReport,
    WorkloadRecorder,
    load_workload,
    replay_workload,
)

__all__ = [
    "WorkloadRecorder",
    "load_workload",
    "replay_workload",
    "ReplayCheck",
    "ReplayReport",
]
