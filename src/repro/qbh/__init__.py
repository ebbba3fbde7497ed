"""Query-by-humming system and retrieval evaluation."""

from .evaluation import RANK_BUCKETS, RankTable, bucket_label, format_rank_tables
from .quality import ScenarioCell, ScenarioMatrix, run_scenario_matrix
from .system import QueryByHummingSystem

__all__ = [
    "RANK_BUCKETS",
    "RankTable",
    "bucket_label",
    "format_rank_tables",
    "ScenarioCell",
    "ScenarioMatrix",
    "run_scenario_matrix",
    "QueryByHummingSystem",
]
