"""The batched query engine: a cascade of lower-bound filters.

GEMINI's filter-and-refine strategy, production-shaped: an entire
corpus is evaluated through a configurable sequence of increasingly
tight, increasingly expensive lower bounds — each stage vectorised
over a ``(num_candidates, n)`` matrix — and only the candidates no
bound could prune pay for an exact banded DTW, early-abandoned against
the best result found so far.

Stage names, in canonical cost order (:data:`STAGE_ORDER`):

========== ===================================================== ========
name       bound                                                 cost/row
========== ===================================================== ========
first_last corner cells of the banded DP (Kim-style)             O(1)
keogh_paa  Keogh_PAA feature envelope (prior art, §5.2)          O(N)
new_paa    New_PAA feature envelope (Theorem 1, the paper's)     O(N)
lb_keogh   full-dimension query envelope (Lemma 2)               O(n)
lemire     Lemire two-pass LB_Improved (2009 refinement)         O(n)
========== ===================================================== ========

Every stage bound is an individual lower bound on the exact distance,
so pruning against a query radius never loses a true answer; the
engine additionally carries the *running maximum* of all bounds seen
so far per candidate, which makes the effective bound monotonically
non-decreasing along the cascade by construction.  Within the envelope
family the raw bounds are themselves provably ordered::

    keogh_paa <= new_paa <= lb_keogh <= lemire <= exact LDTW

(`tests/properties/` asserts both chains on hundreds of generated
cases).  ``first_last`` is sound but outside that chain — it can beat
or lose to the envelope bounds depending on the data, which is exactly
why the running maximum is kept.

Per-query observability lives in :class:`CascadeStats`: candidates in,
pruned, bound statistics and wall time per stage, plus exact-phase
counters (computed / early-abandoned / skipped refinements).  The same
numbers also flow through the :mod:`repro.obs` layer when an
:class:`~repro.obs.Observability` facade is attached
(``QueryEngine(obs=...)``): every query emits a span tree
(``query → stage:<name> → refine → kernel``) whose attributes are set
from the exact ``CascadeStats``/``StageStats`` fields — so the
exported trace and the returned stats reconcile by construction (see
:meth:`CascadeStats.from_trace`) — and per-stage/per-kernel counters
land in the facade's sharded :class:`~repro.obs.MetricsRegistry`,
which aggregates exactly across threads that share one engine.  A
query is run one at a time by whoever holds the engine; concurrency
belongs to the caller (the serving layer's dispatcher threads, shard
processes).  All timing goes through :mod:`repro.obs.clock` — the
lint in ``tools/lint_timers.py`` keeps raw ``time.perf_counter()``
calls out of this package.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.envelope import Envelope, k_envelope, warping_width_to_k
from ..core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
)
from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance_batch
from ..dtw.kernels import DEFAULT_BACKEND, KernelStats, get_kernel
from ..index.stats import QueryStats
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from .errors import QueryAborted
from .stages import lb_envelope_batch, lb_first_last_batch, lb_lemire_batch

__all__ = ["QueryEngine", "CascadeStats", "StageStats", "STAGE_ORDER",
           "DEFAULT_STAGES", "QueryAborted"]

#: All known stage names, cheapest first.
STAGE_ORDER = ("first_last", "keogh_paa", "new_paa", "lb_keogh", "lemire")

#: The default cascade (Lemire's refinement is opt-in: it costs one
#: more O(n) pass per surviving candidate).
DEFAULT_STAGES = ("first_last", "keogh_paa", "new_paa", "lb_keogh")

#: Guard band against floating-point jitter at the pruning threshold:
#: a bound within this of the radius is never used to prune.
_PRUNE_ATOL = 1e-9

#: Survivors handed to the DTW kernel per call.  A batched call costs a
#: few NumPy dispatches per anti-diagonal (2-3 ms at n=128) whatever its
#: row count, so small slices pay that over and over, while huge ones
#: freeze the k-NN cutoff over too many rows.  Swept on bench_e2e's
#: ``knn_hard`` requests (10^4 rows, one thread; table in CHANGES.md,
#: PR 12): p50 240 ms at 32 rows, 42-60 ms on the 1024-2048 plateau,
#: 59 ms at 4096 where 46 % more rows are refined.  1024 rows of n=128
#: are a 1 MB float64 gather and, at that length, one abort poll every
#: ~8 ms; a slice's time grows with n x band, so the longest stretch
#: between polls measured ~40 ms at n=256 and 100-140 ms at n=512.
_REFINE_ROWS = 1024


@dataclass
class StageStats:
    """What one filter stage did to the candidate stream.

    ``wall_time_s`` is the stage's elapsed time for one query; when
    stats objects for several queries are merged with ``+`` it becomes
    the *sum* over those queries.
    """

    name: str
    candidates_in: int = 0
    pruned: int = 0
    wall_time_s: float = 0.0
    bound_min: float = 0.0
    bound_mean: float = 0.0
    bound_max: float = 0.0

    @property
    def survivors(self) -> int:
        """Candidates passed on to the next stage."""
        return self.candidates_in - self.pruned

    @property
    def prune_rate(self) -> float:
        """Fraction of incoming candidates this stage removed."""
        if self.candidates_in == 0:
            return 0.0
        return self.pruned / self.candidates_in

    def to_dict(self) -> dict:
        """The stage record as a JSON-ready dict (``--stats-json``)."""
        return {
            "name": self.name,
            "candidates_in": self.candidates_in,
            "pruned": self.pruned,
            "survivors": self.survivors,
            "prune_rate": self.prune_rate,
            "wall_time_s": self.wall_time_s,
            "bound_min": self.bound_min,
            "bound_mean": self.bound_mean,
            "bound_max": self.bound_max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StageStats":
        """Rebuild a stage record from its :meth:`to_dict` form.

        Derived fields (``survivors``, ``prune_rate``) are recomputed,
        so ``StageStats.from_dict(s.to_dict()) == s`` for the stored
        fields — the round trip the shard tier uses to re-merge
        worker-process stats.
        """
        return cls(
            name=payload["name"],
            candidates_in=payload["candidates_in"],
            pruned=payload["pruned"],
            wall_time_s=payload["wall_time_s"],
            bound_min=payload["bound_min"],
            bound_mean=payload["bound_mean"],
            bound_max=payload["bound_max"],
        )

    def __add__(self, other: "StageStats") -> "StageStats":
        if not isinstance(other, StageStats):
            return NotImplemented
        if other.name != self.name:
            raise ValueError(
                f"cannot merge stage {other.name!r} into {self.name!r}"
            )
        total_in = self.candidates_in + other.candidates_in
        if total_in:
            mean = (
                self.bound_mean * self.candidates_in
                + other.bound_mean * other.candidates_in
            ) / total_in
        else:
            mean = 0.0
        return StageStats(
            name=self.name,
            candidates_in=total_in,
            pruned=self.pruned + other.pruned,
            wall_time_s=self.wall_time_s + other.wall_time_s,
            bound_min=min(self.bound_min, other.bound_min),
            bound_mean=mean,
            bound_max=max(self.bound_max, other.bound_max),
        )


@dataclass
class CascadeStats:
    """Full observability record of one engine query (or a merged batch).

    Attributes
    ----------
    corpus_size:
        Candidates entering the first stage.
    stages:
        One :class:`StageStats` per configured filter stage, in order.
    dtw_computations:
        Exact DTW dynamic programs started during refinement.
    dtw_abandoned:
        How many of those were cut short by early abandoning.
    exact_skipped:
        Survivors never refined because their lower bound already
        exceeded the final answer radius (k-NN best-first stop).
    results:
        Size of the final exact answer.
    exact_time_s:
        Elapsed time of the refinement phase (summed when merged).
    total_time_s:
        **Wall-clock time** of the call that produced this object: a
        single query's elapsed time, summed when merged with ``+``
        (the wall clock of a serial loop).  The shard router
        overwrites it with the fan-out's elapsed time, during which
        the per-shard times overlap.
    cpu_time_s:
        **Summed per-query elapsed time** across everything merged
        into this object (equals ``total_time_s`` for a single
        query).  This is the value comparable with the summed
        per-stage ``wall_time_s`` / ``exact_time_s`` fields, and the
        right numerator for per-query cost accounting.
    """

    corpus_size: int = 0
    stages: list[StageStats] = field(default_factory=list)
    dtw_computations: int = 0
    dtw_abandoned: int = 0
    exact_skipped: int = 0
    results: int = 0
    exact_time_s: float = 0.0
    total_time_s: float = 0.0
    cpu_time_s: float = 0.0

    @property
    def exact_candidates(self) -> int:
        """Candidates that survived every filter stage."""
        if self.stages:
            return self.stages[-1].survivors
        return self.corpus_size

    @property
    def pruned_total(self) -> int:
        """Candidates removed by lower bounds alone."""
        return sum(stage.pruned for stage in self.stages)

    def as_query_stats(self) -> QueryStats:
        """Project onto the paper's :class:`~repro.index.stats.QueryStats`."""
        stats = QueryStats(
            candidates=self.exact_candidates,
            dtw_computations=self.dtw_computations,
            results=self.results,
        )
        stats.extra["pruned_by_cascade"] = self.pruned_total
        stats.extra["dtw_abandoned"] = self.dtw_abandoned
        return stats

    def to_dict(self) -> dict:
        """The full record as a JSON-ready dict (``--stats-json``)."""
        return {
            "corpus_size": self.corpus_size,
            "stages": [stage.to_dict() for stage in self.stages],
            "exact_candidates": self.exact_candidates,
            "pruned_total": self.pruned_total,
            "dtw_computations": self.dtw_computations,
            "dtw_abandoned": self.dtw_abandoned,
            "exact_skipped": self.exact_skipped,
            "results": self.results,
            "exact_time_s": self.exact_time_s,
            "total_time_s": self.total_time_s,
            "cpu_time_s": self.cpu_time_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CascadeStats":
        """Rebuild a stats record from its :meth:`to_dict` form.

        Lossless for every stored field (the derived
        ``exact_candidates`` / ``pruned_total`` keys are recomputed
        from the stages), so dicts shipped across a process boundary
        re-merge with ``+`` exactly as live objects would — how the
        shard router keeps ``--stats`` faithful.
        """
        return cls(
            corpus_size=payload["corpus_size"],
            stages=[StageStats.from_dict(s) for s in payload["stages"]],
            dtw_computations=payload["dtw_computations"],
            dtw_abandoned=payload["dtw_abandoned"],
            exact_skipped=payload["exact_skipped"],
            results=payload["results"],
            exact_time_s=payload["exact_time_s"],
            total_time_s=payload["total_time_s"],
            cpu_time_s=payload["cpu_time_s"],
        )

    @classmethod
    def from_trace(cls, spans) -> "CascadeStats":
        """Rebuild a stats record from one query's exported span tree.

        The engine sets every span attribute from the exact
        ``CascadeStats`` / ``StageStats`` fields, so this projection is
        lossless for the counters: ``CascadeStats.from_trace(spans)``
        equals the stats object the query returned (bound statistics
        and timings included).  *spans* may be
        :class:`~repro.obs.Span` objects or their ``to_dict()`` /
        JSONL dicts — one trace, i.e. exactly one root ``query`` span.
        """
        root_attrs = None
        stage_spans = []
        for item in spans:
            if isinstance(item, dict):
                name = item["name"]
                parent = item.get("parent_id")
                start = item.get("start_s", 0.0)
                attrs = item.get("attrs", {})
            else:
                name = item.name
                parent = item.parent_id
                start = item.start_s
                attrs = item.attrs
            if name == "query" and parent is None:
                if root_attrs is not None:
                    raise ValueError("spans contain more than one trace")
                root_attrs = attrs
            elif name.startswith("stage:"):
                stage_spans.append((start, attrs))
        if root_attrs is None:
            raise ValueError("no root 'query' span among the given spans")
        stage_spans.sort(key=lambda pair: pair[0])
        stages = [
            StageStats(
                name=attrs["name"],
                candidates_in=attrs["candidates_in"],
                pruned=attrs["pruned"],
                wall_time_s=attrs["wall_time_s"],
                bound_min=attrs["bound_min"],
                bound_mean=attrs["bound_mean"],
                bound_max=attrs["bound_max"],
            )
            for _, attrs in stage_spans
        ]
        return cls(
            corpus_size=root_attrs["corpus_size"],
            stages=stages,
            dtw_computations=root_attrs["dtw_computations"],
            dtw_abandoned=root_attrs["dtw_abandoned"],
            exact_skipped=root_attrs["exact_skipped"],
            results=root_attrs["results"],
            exact_time_s=root_attrs["exact_time_s"],
            total_time_s=root_attrs["total_time_s"],
            cpu_time_s=root_attrs["cpu_time_s"],
        )

    def __add__(self, other: "CascadeStats") -> "CascadeStats":
        if not isinstance(other, CascadeStats):
            return NotImplemented
        if [s.name for s in self.stages] != [s.name for s in other.stages]:
            raise ValueError("cannot merge stats of different cascades")
        return CascadeStats(
            corpus_size=self.corpus_size + other.corpus_size,
            stages=[a + b for a, b in zip(self.stages, other.stages)],
            dtw_computations=self.dtw_computations + other.dtw_computations,
            dtw_abandoned=self.dtw_abandoned + other.dtw_abandoned,
            exact_skipped=self.exact_skipped + other.exact_skipped,
            results=self.results + other.results,
            exact_time_s=self.exact_time_s + other.exact_time_s,
            total_time_s=self.total_time_s + other.total_time_s,
            cpu_time_s=self.cpu_time_s + other.cpu_time_s,
        )

    def summary(self) -> str:
        """A fixed-width per-stage table for terminals and logs."""
        lines = [
            f"{'stage':<12}{'in':>8}{'pruned':>8}{'left':>8}"
            f"{'rate':>7}{'ms':>9}",
        ]
        for stage in self.stages:
            lines.append(
                f"{stage.name:<12}{stage.candidates_in:>8}{stage.pruned:>8}"
                f"{stage.survivors:>8}{stage.prune_rate:>7.1%}"
                f"{stage.wall_time_s * 1e3:>9.2f}"
            )
        lines.append(
            f"{'exact dtw':<12}{self.exact_candidates:>8}"
            f"{self.exact_skipped:>8}{self.dtw_computations:>8}"
            f"{'':>7}{self.exact_time_s * 1e3:>9.2f}"
        )
        lines.append(
            f"refined {self.dtw_computations} "
            f"(early-abandoned {self.dtw_abandoned}), "
            f"{self.results} results, "
            f"{self.total_time_s * 1e3:.2f} ms total"
        )
        return "\n".join(lines)


def _query_id(q: np.ndarray, kind: str, param, band: int) -> str:
    """Stable 16-hex id of one (query, kind, parameter, band) request.

    A content digest, not a sequence number: replaying the same query
    with the same parameters yields the same id, which is what lets
    ``repro perf replay`` line a workload record up with the trace
    spans of both the recorded and the replayed run.  The DTW backend
    is deliberately excluded — backends must agree on the answer, so
    they share the id.
    """
    digest = hashlib.sha1(q.tobytes())
    digest.update(f"|{kind}|{param!r}|{band}".encode())
    return digest.hexdigest()[:16]


def _query_span_attrs(stats: CascadeStats) -> dict:
    """Root-span attributes, taken verbatim from the finished stats.

    Together with the per-stage span attributes this makes the trace a
    lossless projection of the stats — see
    :meth:`CascadeStats.from_trace`.
    """
    return {
        "corpus_size": stats.corpus_size,
        "dtw_computations": stats.dtw_computations,
        "dtw_abandoned": stats.dtw_abandoned,
        "exact_skipped": stats.exact_skipped,
        "results": stats.results,
        "exact_time_s": stats.exact_time_s,
        "total_time_s": stats.total_time_s,
        "cpu_time_s": stats.cpu_time_s,
    }


def _maybe_abort(should_abort, phase: str) -> None:
    """Cooperative-cancellation checkpoint: poll the callback, if any.

    Raises :class:`~repro.engine.errors.QueryAborted` tagged with
    *phase* the moment the callback returns true.  Checkpoints sit
    before every cascade stage and before every refine slice, so an abort
    (e.g. a missed serving deadline) cuts work short without ever
    producing a partial — and therefore possibly wrong — answer.
    """
    if should_abort is not None and should_abort():
        raise QueryAborted(phase=phase)


def _kernel_snapshot(ks: KernelStats | None):
    """Counter snapshot for span attribution (``None`` when untracked)."""
    if ks is None:
        return None
    return (ks.calls, ks.rows, ks.cells, ks.compacted_columns)


def _set_kernel_span(span, ks: KernelStats | None, before) -> None:
    """Attribute the kernel work done since *before* to *span*."""
    if before is None:
        return
    span.set(
        calls=ks.calls - before[0],
        rows=ks.rows - before[1],
        cells=ks.cells - before[2],
        compacted_columns=ks.compacted_columns - before[3],
    )


class _QueryContext:
    """Per-query precomputations, built lazily stage by stage."""

    __slots__ = ("q", "band", "_q_env", "_reduced", "_engine",
                 "kernel_stats")

    def __init__(self, engine: "QueryEngine", q: np.ndarray) -> None:
        self._engine = engine
        self.q = q
        self.band = engine.band
        self._q_env: Envelope | None = None
        self._reduced: dict[str, Envelope] = {}
        # Kernel work counters are collected only when observability is
        # on: the kernels' per-row/per-diagonal accounting is cheap but
        # not free, and nothing reads it otherwise.
        self.kernel_stats = KernelStats() if engine.obs.enabled else None

    @property
    def q_envelope(self) -> Envelope:
        if self._q_env is None:
            self._q_env = k_envelope(self.q, self.band)
        return self._q_env

    def reduced(self, name: str) -> Envelope:
        if name not in self._reduced:
            transform = self._engine._env_transforms[name]
            self._reduced[name] = transform.reduce(self.q_envelope)
        return self._reduced[name]


class QueryEngine:
    """Batched filter-cascade search over a fixed-length series corpus.

    Both query kinds end in the same refine step: the survivors of the
    last stage, in ascending lower-bound order, go through the batched
    DTW kernel :data:`_REFINE_ROWS` at a time (:meth:`_refine`), early
    abandoned against epsilon or the current k-th distance.

    Parameters
    ----------
    corpus:
        Sequence of series.  With a *normal_form* they may have any
        lengths (each is normalised); without one they must already
        share a common length and be comparable as-is.
    delta / band:
        The DTW constraint, as a warping width ``(2k+1)/n`` or
        directly as the band half-width ``k`` (give exactly one).
    stages:
        Filter stages to run, in order; see :data:`STAGE_ORDER`.  An
        empty tuple degenerates to an exact scan (the ablation
        baseline).
    n_features:
        Dimensionality of the PAA feature stages.
    normal_form:
        Optional normalisation applied to the corpus and every query.
    ids:
        Optional identifiers, default ``range(len(corpus))``.
    metric:
        ``"euclidean"`` (default) or ``"manhattan"``.
    dtw_backend:
        DTW kernel backend for exact refinement (see
        :mod:`repro.dtw.kernels`): ``"vectorized"`` (default) or
        ``"scalar"``; both return identical results.
    obs:
        An :class:`~repro.obs.Observability` facade.  When given,
        every query emits a span tree
        (``query → stage:<name> → refine → kernel``), folds its
        :class:`CascadeStats` and kernel work counters into the
        facade's metrics registry, and participates in its slow-query
        log.  Default ``None`` uses the shared disabled facade
        (:data:`repro.obs.OBS_DISABLED`) whose hooks return
        immediately.
    """

    def __init__(
        self,
        corpus: Sequence,
        *,
        delta: float | None = None,
        band: int | None = None,
        stages: Sequence[str] = DEFAULT_STAGES,
        n_features: int = 8,
        normal_form: NormalForm | None = None,
        ids: Sequence | None = None,
        metric: str = "euclidean",
        dtw_backend: str | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.obs = OBS_DISABLED if obs is None else obs
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(
                f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
            )
        if not len(corpus):
            raise ValueError("corpus must not be empty")
        stages = tuple(stages)
        unknown = [s for s in stages if s not in STAGE_ORDER]
        if unknown:
            raise ValueError(
                f"unknown stages {unknown}; choose from {STAGE_ORDER}"
            )
        if len(set(stages)) != len(stages):
            raise ValueError(f"duplicate stages in {stages}")
        self.normal_form = normal_form
        if normal_form is not None:
            data = np.vstack([normal_form.apply(s) for s in corpus])
        else:
            # A float32 corpus (the columnar store's memory-mapped
            # columns) is kept as-is: every stage mixes it with float64
            # query arrays, and float32 → float64 promotion is exact,
            # so bounds and refinement are bitwise identical to an
            # upcast copy at half the resident memory.
            data = np.asarray(corpus)
            if data.dtype != np.float32:
                data = np.asarray(corpus, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError(
                    "corpus series must share one length "
                    "(or pass a fixed-length normal_form)"
                )
        self._data = data
        m, n = data.shape
        if (band is None) == (delta is None):
            raise ValueError("give exactly one of band= or delta=")
        if band is None:
            band = warping_width_to_k(delta, n)
        if band < 0:
            raise ValueError(f"band half-width must be >= 0, got {band}")
        self.band = int(band)
        self.metric = metric
        self.stages = stages
        backend = DEFAULT_BACKEND if dtw_backend is None else dtw_backend
        get_kernel(backend)  # validate the name now, not at query time
        self.dtw_backend = backend
        if ids is None:
            ids = list(range(m))
        else:
            ids = list(ids)
            if len(ids) != m:
                raise ValueError(f"{m} series but {len(ids)} ids")
        self.ids = ids
        n_features = min(n_features, n)
        self._env_transforms = {
            "keogh_paa": KeoghPAAEnvelopeTransform(n, n_features, metric=metric),
            "new_paa": NewPAAEnvelopeTransform(n, n_features, metric=metric),
        }
        # Both feature stages share the PAA series transform, so one
        # feature matrix serves both reduced envelopes.
        self._features = (
            self._env_transforms["new_paa"].transform.transform_batch(data)
        )

    def __len__(self) -> int:
        return self._data.shape[0]

    @property
    def series_length(self) -> int:
        return self._data.shape[1]

    def _normalise_query(self, query) -> np.ndarray:
        if self.normal_form is not None:
            return self.normal_form.apply(query)
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.series_length,):
            raise ValueError(
                f"query must have length {self.series_length} "
                "(engine built without a normal form)"
            )
        return q

    def _workload(self, qid, query, params: dict, results) -> dict | None:
        """Replayable capture of one served query, or ``None``.

        Built only when the facade has a workload sink attached
        (:attr:`Observability.wants_workload`).  The *raw* query is
        recorded — pre-normalisation — so ``repro perf replay`` walks
        the identical public entry path, normal form included.
        """
        if not self.obs.wants_workload:
            return None
        return {
            "query_id": qid,
            "params": params,
            "backend": self.dtw_backend,
            "band": self.band,
            "query": np.asarray(query, dtype=np.float64).ravel(),
            "results": results,
        }

    def _stage_bounds(
        self, name: str, ctx: _QueryContext, rows: np.ndarray
    ) -> np.ndarray:
        if name == "first_last":
            return lb_first_last_batch(
                ctx.q, self._data[rows], metric=self.metric
            )
        if name in ("keogh_paa", "new_paa"):
            return lb_envelope_batch(
                self._features[rows], ctx.reduced(name), metric=self.metric
            )
        if name == "lb_keogh":
            return lb_envelope_batch(
                self._data[rows], ctx.q_envelope, metric=self.metric
            )
        if name == "lemire":
            return lb_lemire_batch(
                ctx.q,
                self._data[rows],
                self.band,
                q_envelope=ctx.q_envelope,
                metric=self.metric,
            )
        raise ValueError(f"unknown stage {name!r}")  # pragma: no cover

    def _run_stage(
        self,
        name: str,
        ctx: _QueryContext,
        alive: np.ndarray,
        bounds: np.ndarray,
        radius: float,
    ):
        """Evaluate one stage on the live set and prune against *radius*.

        Returns ``(alive, stage, span)``; the span is already closed,
        but its attributes stay writable until the trace is delivered,
        which lets :meth:`knn` fold its seed-radius re-prune into the
        first stage's record *and* span consistently.
        """
        with self.obs.span("stage:" + name) as span:
            started = monotonic_s()
            stage = StageStats(name=name, candidates_in=int(alive.size))
            if alive.size:
                raw = self._stage_bounds(name, ctx, alive)
                bounds[alive] = np.maximum(bounds[alive], raw)
                stage.bound_min = float(raw.min())
                stage.bound_mean = float(raw.mean())
                stage.bound_max = float(raw.max())
                if math.isfinite(radius):
                    keep = bounds[alive] <= radius + _PRUNE_ATOL
                    stage.pruned = int(alive.size - np.count_nonzero(keep))
                    alive = alive[keep]
            stage.wall_time_s = monotonic_s() - started
            span.set(**stage.to_dict())
        return alive, stage, span

    def _refine(
        self,
        ctx: _QueryContext,
        rows: np.ndarray,
        cutoff: float,
        stats: CascadeStats,
        should_abort,
    ) -> np.ndarray:
        """Exact banded DTW from the query to *rows*: the one refine step.

        One batched kernel call, with *cutoff* frozen for the whole
        call: a row whose distance provably exceeds it comes back
        ``inf`` and is counted as abandoned.  A stale (larger) cutoff
        only costs extra work, never a result: any candidate belonging
        in the final answer has a distance at most the final radius,
        which every earlier radius dominates, so it can never be
        abandoned.  Callers pass one slice — at most
        :data:`_REFINE_ROWS` rows, or k-NN's *k* seeds — so
        *should_abort* is polled once per slice.
        """
        _maybe_abort(should_abort, "refine")
        ks = ctx.kernel_stats
        with self.obs.span("refine", rows=int(rows.size)):
            started = monotonic_s()
            with self.obs.span("kernel", backend=self.dtw_backend) as kspan:
                before = _kernel_snapshot(ks)
                dists = ldtw_distance_batch(
                    ctx.q, self._data[rows], self.band, metric=self.metric,
                    upper_bound=None if math.isinf(cutoff) else cutoff,
                    backend=self.dtw_backend, kernel_stats=ks,
                )
                _set_kernel_span(kspan, ks, before)
            stats.dtw_computations += int(rows.size)
            stats.dtw_abandoned += int(np.count_nonzero(np.isinf(dists)))
            stats.exact_time_s += monotonic_s() - started
        return dists

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def range_search(
        self, query, epsilon: float, *, should_abort=None
    ) -> tuple[list[tuple[object, float]], CascadeStats]:
        """All series within DTW distance *epsilon*, with stage stats.

        Exact (no false negatives, no false positives): every filter
        stage is a lower bound, and survivors are refined with the
        exact banded DTW, :data:`_REFINE_ROWS` per batched kernel call.
        Results are ``(id, distance)`` pairs sorted by distance.

        *should_abort*, when given, is a zero-argument callable polled
        before every stage and before every refine slice; the query raises
        :class:`QueryAborted` as soon as it returns true (cooperative
        cancellation — the serving layer's deadline mechanism).
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        ctx = _QueryContext(self, self._normalise_query(query))
        m = len(self)
        qid = (_query_id(ctx.q, "range", float(epsilon), self.band)
               if self.obs.enabled else None)
        with self.obs.span(
            "query", kind="range", epsilon=float(epsilon),
            backend=self.dtw_backend, band=self.band, query_id=qid,
        ) as qspan:
            started = monotonic_s()
            stats = CascadeStats(corpus_size=m)
            alive = np.arange(m)
            bounds = np.zeros(m)
            for name in self.stages:
                _maybe_abort(should_abort, "stage:" + name)
                alive, stage, _ = self._run_stage(
                    name, ctx, alive, bounds, float(epsilon)
                )
                stats.stages.append(stage)

            # Best-first order: candidates most likely to be answers
            # first, so a consumer streaming the results sees hits early.
            alive = alive[np.argsort(bounds[alive], kind="stable")]
            results: list[tuple[object, float]] = []
            for start in range(0, alive.size, _REFINE_ROWS):
                rows = alive[start:start + _REFINE_ROWS]
                dists = self._refine(
                    ctx, rows, float(epsilon), stats, should_abort
                )
                hits = dists <= epsilon
                results.extend(
                    (self.ids[row], dist)
                    for row, dist in zip(rows[hits].tolist(),
                                         dists[hits].tolist())
                )
            results.sort(key=lambda pair: pair[1])
            stats.results = len(results)
            stats.total_time_s = monotonic_s() - started
            stats.cpu_time_s = stats.total_time_s
            qspan.set(**_query_span_attrs(stats))
        self.obs.record_cascade_query(
            "range", stats, ctx.kernel_stats,
            workload=self._workload(qid, query, {"epsilon": float(epsilon)},
                                    results),
        )
        return results, stats

    def knn(
        self, query, k: int, *, should_abort=None
    ) -> tuple[list[tuple[object, float]], CascadeStats]:
        """The *k* nearest series under the banded DTW, with stage stats.

        After the first (cheapest) stage the engine refines the *k*
        most promising candidates to seed a finite answer radius; every
        later stage prunes against the shrinking radius, and surviving
        candidates are refined best-first with early-abandoning DTW —
        first the *k* best by the final bound, to tighten the radius,
        then slices of at most :data:`_REFINE_ROWS` rows whose cutoff is
        the radius as of the slice's start — up to the optimal
        multi-step stop (no unexamined candidate's lower bound is below
        the final k-th distance).

        *should_abort* works as in :meth:`range_search`: polled before
        every stage and before every refine slice, raising
        :class:`QueryAborted` on the first true return.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        ctx = _QueryContext(self, self._normalise_query(query))
        m = len(self)
        qid = (_query_id(ctx.q, "knn", int(k), self.band)
               if self.obs.enabled else None)
        with self.obs.span(
            "query", kind="knn", k=int(k),
            backend=self.dtw_backend, band=self.band, query_id=qid,
        ) as qspan:
            started = monotonic_s()
            stats = CascadeStats(corpus_size=m)
            alive = np.arange(m)
            bounds = np.zeros(m)
            best: list[tuple[float, int, object]] = []  # max-heap, negated
            seeded = np.zeros(m, dtype=bool)

            def radius() -> float:
                return -best[0][0] if len(best) >= k else math.inf

            def refine_rows(rows: np.ndarray) -> None:
                """Refine *rows* against the current radius; keep the best."""
                dists = self._refine(ctx, rows, radius(), stats, should_abort)
                finite = np.isfinite(dists)
                for row, dist in zip(rows[finite].tolist(),
                                     dists[finite].tolist()):
                    entry = (-dist, row, self.ids[row])
                    if len(best) < k:
                        heapq.heappush(best, entry)
                    elif dist < -best[0][0]:
                        heapq.heapreplace(best, entry)

            for position, name in enumerate(self.stages):
                _maybe_abort(should_abort, "stage:" + name)
                alive, stage, sspan = self._run_stage(
                    name, ctx, alive, bounds, radius()
                )
                stats.stages.append(stage)
                if position == 0 and alive.size:
                    # Seed the answer radius from the k most promising
                    # candidates so later (pricier) stages can prune.
                    seeds = alive[np.argsort(bounds[alive], kind="stable")][:k]
                    seeded[seeds] = True
                    refine_rows(seeds)
                    if math.isfinite(radius()):
                        keep = bounds[alive] <= radius() + _PRUNE_ATOL
                        stage.pruned += int(
                            alive.size - np.count_nonzero(keep)
                        )
                        alive = alive[keep]
                        # Keep the closed stage span a faithful
                        # projection of the (just amended) stage stats.
                        sspan.set(
                            pruned=stage.pruned,
                            survivors=stage.survivors,
                            prune_rate=stage.prune_rate,
                        )

            order = alive[np.argsort(bounds[alive], kind="stable")]
            pending = order[~seeded[order]]
            position = 0
            # The stage-0 seeds were picked by the loosest bound, so the
            # radius they left is loose too.  Open the walk with the k
            # best rows by the final bound: one small call, after which
            # the first full slice is cut and abandoned against a radius
            # close to the final one.
            size = k
            while position < pending.size:
                rows = pending[position:position + size]
                size = _REFINE_ROWS
                if len(best) >= k:
                    # Bounds ascend along ``pending``: refine only the
                    # prefix that still beats the radius as of now; the
                    # rest is re-checked next round against the
                    # (possibly smaller) radius.
                    rows = rows[:np.searchsorted(
                        bounds[rows], radius() + _PRUNE_ATOL, side="left"
                    )]
                    if not rows.size:
                        stats.exact_skipped += int(pending.size - position)
                        break
                refine_rows(rows)
                position += rows.size
            results = sorted(
                ((item, -negd) for negd, _, item in best), key=lambda p: p[1]
            )
            stats.results = len(results)
            stats.total_time_s = monotonic_s() - started
            stats.cpu_time_s = stats.total_time_s
            qspan.set(**_query_span_attrs(stats))
        self.obs.record_cascade_query(
            "knn", stats, ctx.kernel_stats,
            workload=self._workload(qid, query, {"k": int(k)}, results),
        )
        return results, stats

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------

    def ground_truth_range(
        self, query, epsilon: float
    ) -> list[tuple[object, float]]:
        """Exact answer by an unfiltered vectorised scan (test oracle)."""
        q = self._normalise_query(query)
        dists = ldtw_distance_batch(
            q, self._data, self.band, metric=self.metric,
            backend=self.dtw_backend,
        )
        results = [
            (item_id, float(dist))
            for item_id, dist in zip(self.ids, dists)
            if dist <= epsilon
        ]
        results.sort(key=lambda pair: pair[1])
        return results

    def ground_truth_knn(self, query, k: int) -> list[tuple[object, float]]:
        """Exact k-NN by an unfiltered vectorised scan (test oracle)."""
        q = self._normalise_query(query)
        dists = ldtw_distance_batch(
            q, self._data, self.band, metric=self.metric,
            backend=self.dtw_backend,
        )
        order = np.argsort(dists, kind="stable")[:k]
        return [(self.ids[i], float(dists[i])) for i in order]
