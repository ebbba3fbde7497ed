"""Query-by-humming system and retrieval evaluation."""

from .scoring import HummingReport, NoteAssessment, assess_humming
from .evaluation import RANK_BUCKETS, RankTable, bucket_label, format_rank_tables
from .quality import ScenarioCell, ScenarioMatrix, run_scenario_matrix
from .system import QueryByHummingSystem

__all__ = [
    "HummingReport",
    "NoteAssessment",
    "assess_humming",
    "RANK_BUCKETS",
    "RankTable",
    "bucket_label",
    "format_rank_tables",
    "ScenarioCell",
    "ScenarioMatrix",
    "run_scenario_matrix",
    "QueryByHummingSystem",
]
