"""Programmatic access to every experiment of the paper's evaluation.

Each ``run_*`` function regenerates one table or figure at a chosen
:class:`~repro.experiments.config.ExperimentScale`; the benchmark
suite (``benchmarks/``) is a thin timing-and-assertion wrapper around
these, so results are equally reproducible from a notebook or script::

    from repro.experiments import REDUCED, run_fig6
    rows = run_fig6(REDUCED)
"""

from .ablations import (
    NOISE_LEVELS,
    run_cascade_ablation,
    run_knn_ablation,
    run_noise_sweep,
    run_second_filter_ablation,
    run_signsplit_ablation,
    run_split_ablation,
)
from .config import PAPER, REDUCED, SMOKE, ExperimentScale, active_scale
from .quality import TABLE3_DELTAS, build_quality_corpus, run_table2, run_table3
from .report import EXPERIMENT_SECTIONS, generate_report
from .reporting import format_series
from .scalability import (
    INDEX_DIMS,
    INDEX_LENGTH,
    THRESHOLDS,
    build_music_database,
    run_fig8,
    run_fig9,
    run_fig10,
    run_size_scaling,
    sweep_filter_costs,
)
from .tightness import (
    FIG6_DIMS,
    FIG6_LENGTH,
    FIG7_WIDTHS,
    mean_pairwise_tightness,
    run_fig6,
    run_fig7,
)

__all__ = [
    "NOISE_LEVELS",
    "run_cascade_ablation",
    "run_knn_ablation",
    "run_noise_sweep",
    "run_second_filter_ablation",
    "run_signsplit_ablation",
    "run_split_ablation",
    "PAPER",
    "REDUCED",
    "SMOKE",
    "ExperimentScale",
    "active_scale",
    "TABLE3_DELTAS",
    "build_quality_corpus",
    "run_table2",
    "run_table3",
    "EXPERIMENT_SECTIONS",
    "generate_report",
    "format_series",
    "INDEX_DIMS",
    "INDEX_LENGTH",
    "THRESHOLDS",
    "build_music_database",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_size_scaling",
    "sweep_filter_costs",
    "FIG6_DIMS",
    "FIG6_LENGTH",
    "FIG7_WIDTHS",
    "mean_pairwise_tightness",
    "run_fig6",
    "run_fig7",
]
