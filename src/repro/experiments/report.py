"""One-call reproduction report: every experiment, one markdown file.

``generate_report(scale)`` runs the full evaluation — Tables 2-3,
Figures 6-10, the scalability curve, and the ablations — and renders a
single self-describing markdown document with the same rows the paper
reports.  This is the artifact a reviewer asks for: one command, one
file, every number regenerated on their machine.
"""

from __future__ import annotations

from .ablations import (
    run_cascade_ablation,
    run_knn_ablation,
    run_noise_sweep,
    run_second_filter_ablation,
    run_signsplit_ablation,
    run_split_ablation,
)
from .config import ExperimentScale
from .quality import run_table2, run_table3
from .reporting import format_series
from .scalability import run_fig8, run_fig9, run_fig10, run_size_scaling
from .tightness import run_fig6, run_fig7

__all__ = ["generate_report", "EXPERIMENT_SECTIONS"]


def _small_db(scale: ExperimentScale) -> int:
    return min(scale.fig10_db, 5000)


#: Every experiment in report order: section id -> (report title,
#: runner taking a scale).  A runner returns either a column dict
#: (rendered by :func:`format_series`) or a list of rank tables.
EXPERIMENT_SECTIONS = {
    "table2": ("Table 2 — time-series vs contour retrieval",
               lambda s: list(run_table2(s))),
    "table3": ("Table 3 — poor singers vs warping width", run_table3),
    "fig6": ("Figure 6 — lower-bound tightness across 24 datasets",
             run_fig6),
    "fig7": ("Figure 7 — tightness vs warping width (random walks)",
             run_fig7),
    "fig8": ("Figure 8 — candidates vs warping width (melody DB)",
             lambda s: run_fig8(s)[0]),
    "fig9": ("Figure 9 — large music database", lambda s: run_fig9(s)[0]),
    "fig10": ("Figure 10 — large random-walk database",
              lambda s: run_fig10(s)[0]),
    "scaling": ("Scalability — pages vs database size", run_size_scaling),
    "signsplit": ("Ablation — Lemma 3 sign split",
                  lambda s: run_signsplit_ablation(max(200, s.fig7_pairs))),
    "knn": ("Ablation — multi-step k-NN",
            lambda s: run_knn_ablation(_small_db(s), s.fig8_queries)),
    "secondfilter": ("Ablation — §5.2 second filter",
                     lambda s: run_second_filter_ablation(_small_db(s),
                                                          s.fig8_queries)),
    "cascade": ("Ablation — filter cascade stages",
                lambda s: run_cascade_ablation(_small_db(s), s.fig8_queries)),
    "splits": ("Ablation — R* vs Guttman splits",
               lambda s: run_split_ablation(min(s.fig10_db, 3000),
                                            s.fig8_queries)),
    "noise": ("Extension — retrieval vs singer error", run_noise_sweep),
}


def _rank_table_markdown(tables) -> str:
    from ..qbh.evaluation import RANK_BUCKETS

    header = "| Rank | " + " | ".join(t.name for t in tables) + " |"
    divider = "|" + "---|" * (len(tables) + 1)
    lines = [header, divider]
    for *_, label in RANK_BUCKETS:
        cells = " | ".join(str(t.counts[label]) for t in tables)
        lines.append(f"| {label} | {cells} |")
    mrr = " | ".join(f"{t.mean_reciprocal_rank():.3f}" for t in tables)
    lines.append(f"| MRR | {mrr} |")
    return "\n".join(lines)


def _block(rows: dict) -> str:
    return "```\n" + format_series("", rows).lstrip("\n") + "\n```"


def generate_report(
    scale: ExperimentScale, *, include: tuple[str, ...] | None = None
) -> str:
    """Run the evaluation suite and render a markdown report.

    Parameters
    ----------
    scale:
        Workload sizes (PAPER / REDUCED / SMOKE).
    include:
        Optional subset of :data:`EXPERIMENT_SECTIONS` to run.
    """
    selected = set(EXPERIMENT_SECTIONS if include is None else include)
    unknown = selected - set(EXPERIMENT_SECTIONS)
    if unknown:
        raise ValueError(f"unknown sections: {sorted(unknown)}")

    sections: list[str] = [
        "# Reproduction report",
        "",
        f"Workload scale: **{scale.name}** "
        f"(music DB {scale.fig9_db}, random-walk DB {scale.fig10_db}, "
        f"{scale.table_queries} hum queries per table).",
        "",
    ]
    for name, (title, runner) in EXPERIMENT_SECTIONS.items():
        if name not in selected:
            continue
        result = runner(scale)
        body = (_block(result) if isinstance(result, dict)
                else _rank_table_markdown(result))
        sections.extend([f"## {title}", "", body, ""])
    return "\n".join(sections)
