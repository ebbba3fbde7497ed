"""Batched query engine: vectorised lower-bound cascade + exact refine.

The production hot path of the library.  :class:`QueryEngine` runs a
whole corpus through a configurable cascade of vectorised DTW lower
bounds (corner cells, Keogh_PAA, New_PAA, two-sided full-dimension
LB_Keogh, Lemire's LB_Improved) and early-abandoning exact refinement, and
reports per-stage pruning/observability counters via
:class:`CascadeStats`.  See ``docs/ARCHITECTURE.md`` ("Engine & filter
cascade") for how it slots between the index and qbh layers.
"""

from .cascade import (
    DEFAULT_STAGES,
    STAGE_ORDER,
    CascadeStats,
    QueryEngine,
    StageStats,
)
from .errors import QueryAborted
from .stages import (
    batch_gap_distance,
    lb_envelope_batch,
    lb_first_last_batch,
    lb_keogh_two_sided,
    lb_lemire_batch,
)

__all__ = [
    "QueryEngine",
    "QueryAborted",
    "CascadeStats",
    "StageStats",
    "STAGE_ORDER",
    "DEFAULT_STAGES",
    "batch_gap_distance",
    "lb_envelope_batch",
    "lb_first_last_batch",
    "lb_keogh_two_sided",
    "lb_lemire_batch",
]
