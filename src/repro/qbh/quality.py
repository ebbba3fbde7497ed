"""The scenario-matrix quality runner: degrade → query → record.

This is the workload half of the quality-observability axis.  For
every (scenario × severity) cell it renders clean hums of known
database melodies (:func:`repro.hum.singer.hum_melody` with the
perfect singer, so the *named degradation is the only error source*),
perturbs them with :func:`repro.hum.degrade.degrade`, times the
served top-k query, and resolves the ground truth's true competition
rank — falling back to the exact full scan when the target fell
outside the served top-k.  Each query is recorded through the
:class:`~repro.obs.Observability` facade
(``record_quality_query`` → ``quality.*`` metrics + ``quality:query``
instant spans), so the same run feeds the live scrape, the trace-file
matrix of ``repro obs report``, and the in-process
:class:`ScenarioMatrix` returned to the caller.

The contour-string baseline (the paper's comparison point) runs on
the *identical* degraded hums through its own fragile pipeline — note
segmentation then contour lookup — with a total transcription failure
scored as rank ``len(db)``, exactly as in
:mod:`repro.experiments.quality`.

Sits in ``qbh`` because it needs melodies, singers, contours, and the
index — everything the stdlib-only ``obs`` layer must not import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hum.degrade import DEFAULT_SEVERITIES, SCENARIOS, degrade
from ..hum.segmentation import segment_notes
from ..hum.singer import SingerProfile, hum_melody
from ..music.contour import ContourIndex, contour_string
from ..obs import OBS_DISABLED
from ..obs.clock import monotonic_s
from ..obs.quality import RECALL_KS, rank_of_target

__all__ = ["ScenarioCell", "ScenarioMatrix", "run_scenario_matrix"]


def _exact_percentile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    idx = min(len(sorted_values) - 1,
              int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


@dataclass
class ScenarioCell:
    """Raw per-query outcomes for one (scenario, severity) cell."""

    scenario: str
    severity: float
    ranks: list[int] = field(default_factory=list)
    contour_ranks: list[int] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.ranks)

    def recall(self, k: int) -> float:
        """Fraction of queries whose ground truth ranked within *k*."""
        if not self.ranks:
            return 0.0
        return sum(1 for r in self.ranks if r <= k) / len(self.ranks)

    def contour_recall(self, k: int) -> float | None:
        """The contour baseline's recall@k on the same degraded hums."""
        if not self.contour_ranks:
            return None
        return (sum(1 for r in self.contour_ranks if r <= k)
                / len(self.contour_ranks))

    @property
    def mrr(self) -> float:
        """Mean reciprocal rank of the ground-truth melody."""
        if not self.ranks:
            return 0.0
        return sum(1.0 / r for r in self.ranks) / len(self.ranks)

    def to_dict(self) -> dict:
        """One matrix row, same keys as the trace-side
        :meth:`repro.obs.analysis.QualityCell.to_dict`."""
        lat = sorted(self.latencies_s)
        p50 = _exact_percentile(lat, 0.50)
        p95 = _exact_percentile(lat, 0.95)
        return {
            "scenario": self.scenario,
            "severity": self.severity,
            "queries": self.queries,
            **{f"recall_at_{k}": self.recall(k) for k in RECALL_KS},
            "mrr": self.mrr,
            "contour_recall_at_10": self.contour_recall(10),
            "p50_ms": None if p50 is None else p50 * 1e3,
            "p95_ms": None if p95 is None else p95 * 1e3,
        }


@dataclass
class ScenarioMatrix:
    """The full scenario × severity sweep over one melody database."""

    db_size: int
    k: int
    cells: list[ScenarioCell] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return sum(cell.queries for cell in self.cells)

    def to_dict(self) -> dict:
        """JSON document for ``--json-out`` and the quality bench."""
        return {
            "db_size": self.db_size,
            "k": self.k,
            "queries": self.queries,
            "scenarios": [cell.to_dict() for cell in self.cells],
        }

    def format_table(self) -> str:
        """The recall@k × latency matrix as a fixed-width table."""
        scenarios = sorted({cell.scenario for cell in self.cells})
        severities = sorted({cell.severity for cell in self.cells})
        lines = [
            f"scenario matrix: {self.queries} queries over db of "
            f"{self.db_size} (top-{self.k} served), "
            f"{len(scenarios)} scenarios x {len(severities)} severities",
            f"{'scenario':<15}{'sev':>6}{'n':>5}{'r@1':>7}{'r@5':>7}"
            f"{'r@10':>7}{'mrr':>7}{'p50 ms':>9}{'p95 ms':>9}"
            f"{'contour r@10':>14}",
        ]
        for cell in sorted(self.cells,
                           key=lambda c: (c.scenario, c.severity)):
            d = cell.to_dict()
            p50 = f"{d['p50_ms']:>9.2f}" if d["p50_ms"] is not None \
                else f"{'-':>9}"
            p95 = f"{d['p95_ms']:>9.2f}" if d["p95_ms"] is not None \
                else f"{'-':>9}"
            contour = d["contour_recall_at_10"]
            contour_txt = (f"{contour:>14.2f}" if contour is not None
                           else f"{'-':>14}")
            lines.append(
                f"{cell.scenario:<15}{cell.severity:>6.2f}"
                f"{cell.queries:>5}"
                f"{d['recall_at_1']:>7.2f}{d['recall_at_5']:>7.2f}"
                f"{d['recall_at_10']:>7.2f}{d['mrr']:>7.2f}"
                f"{p50}{p95}{contour_txt}"
            )
        return "\n".join(lines)


def run_scenario_matrix(system, *, scenarios=None,
                        severities=DEFAULT_SEVERITIES,
                        queries_per_cell: int = 3, k: int = 10,
                        seed: int = 0, obs=OBS_DISABLED,
                        contour_levels: int = 3) -> ScenarioMatrix:
    """Sweep degradation scenarios × severities over *system*.

    *system* is a :class:`~repro.qbh.system.QueryByHummingSystem`.
    Every cell draws its own deterministic generator from
    ``(seed, scenario, severity)``, so cells reproduce independently
    and adding a scenario never reshuffles the others.  Each query is
    recorded through *obs* (``record_quality_query``); pass a facade
    wired with ``to_files`` to leave a trace/metrics artifact behind.
    """
    if scenarios is None:
        scenarios = tuple(SCENARIOS)
    unknown = [s for s in scenarios if s not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios: {unknown}")
    profile = SingerProfile.perfect()
    contour_index = ContourIndex(system.melodies, levels=contour_levels)
    matrix = ScenarioMatrix(db_size=len(system), k=k)
    for s_idx, scenario in enumerate(scenarios):
        for v_idx, severity in enumerate(severities):
            rng = np.random.default_rng([seed, s_idx, v_idx])
            cell = ScenarioCell(scenario=scenario,
                                severity=float(severity))
            targets = rng.integers(0, len(system),
                                   size=queries_per_cell)
            for target in (int(t) for t in targets):
                clean = hum_melody(system.melodies[target], profile, rng)
                query = degrade(clean, scenario, float(severity), rng=rng)
                t0 = monotonic_s()
                results, _ = system.query(query, k)
                elapsed_s = monotonic_s() - t0
                rank = rank_of_target(results, system.names[target])
                if rank is None:
                    # Outside the served top-k: resolve the true
                    # competition rank with the exact full scan
                    # (untimed — latency measures the served path).
                    rank = system.rank_of(query, target)
                try:
                    notes = segment_notes(query)
                    contour_rank = contour_index.rank_of(
                        contour_string(notes), target)
                except ValueError:
                    contour_rank = len(system)   # transcription failed
                cell.ranks.append(rank)
                cell.contour_ranks.append(contour_rank)
                cell.latencies_s.append(elapsed_s)
                obs.record_quality_query(
                    scenario, float(severity), rank, len(system),
                    duration_s=elapsed_s, contour_rank=contour_rank,
                )
            matrix.cells.append(cell)
    return matrix
