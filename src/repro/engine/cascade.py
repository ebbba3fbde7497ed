"""The batched query engine: a cascade of lower-bound filters.

GEMINI's filter-and-refine strategy, production-shaped: the corpus is
evaluated through a configurable sequence of increasingly tight,
increasingly expensive lower bounds — each stage vectorised over a
``(num_candidates, n)`` matrix — and only the candidates no bound
could prune pay for an exact banded DTW, early-abandoned against the
best result found so far.

Stage names, in canonical cost order (:data:`STAGE_ORDER`):

========== ===================================================== ========
name       bound                                                 cost/row
========== ===================================================== ========
first_last corner cells of the banded DP (Kim-style)             O(1)
keogh_paa  Keogh_PAA feature envelope (prior art, §5.2)          O(N)
new_paa    New_PAA both ways (Theorem 1, the paper's): the query O(N)
           envelope's at N frames, max the row envelope's at
           min(2N, n) frames
lb_keogh   Lemma 2 both ways: max(EQ, EC), in the rows' dtype    O(n)
lemire     Lemire two-pass LB_Improved (2009 refinement)         O(n)
========== ===================================================== ========

The first four are served by the native library's stage bodies (one
call per stage over the rows asked for, the GIL released), or by NumPy
where it cannot be built; ``lemire`` is NumPy-only (see
:mod:`repro.engine.stages`).  EQ is each row against the query's
envelope, EC the query against the row's own envelope (the
``envelopes`` the engine is given or computes).  ``lb_keogh`` reads
both in one pass, in float32 for a float32 corpus (deflated by its
worst-case rounding error) and in float64 otherwise, and is given the
pruning radius: the native body stops at EC for a row whose EC already
exceeds it, and returns that partial bound (still sound, and pruned
all the same); see :func:`~repro.engine.stages.lb_keogh_two_sided`.
``new_paa`` is the same idea one level down.  Theorem 1 holds for any
container, so New_PAA of each row's envelope lower-bounds EC as New_PAA
of the query's envelope lower-bounds EQ.  The row side reads a float32
column of frame means, rounded outward (a store's ``env_paa``, or
computed by the engine with
:func:`~repro.core.envelope_transforms.envelope_paa`), and is deflated
like ``lb_keogh``; see :func:`~repro.engine.stages.lb_new_paa_two_sided`.

Every stage bound is an individual lower bound on the exact distance,
so pruning against a query radius never loses a true answer; the
engine additionally carries the *running maximum* of all bounds seen
so far per candidate, which makes the effective bound monotonically
non-decreasing along the cascade by construction.  Within the envelope
family the raw bounds on float64 rows are themselves provably
ordered::

    keogh_paa <= new_paa(EQ side) <= EQ <= lb_keogh <= exact LDTW
                 new_paa(EC side) <= EC <= lb_keogh
                           new_paa       <= lb_keogh
                                      EQ <= lemire   <= exact LDTW

(`tests/properties/` asserts these chains on hundreds of generated
cases).  ``lemire`` and ``lb_keogh`` are not ordered against each
other, and ``first_last`` is sound but outside the chain — either can
beat or lose to the other bounds depending on the data, which is
exactly why the running maximum is kept.

Two walks run a plan.  A range query's radius is fixed, so order buys
nothing: each stage bounds every row the previous ones kept, in turn.
A k-NN query's radius shrinks as it refines, so it walks best first:
``new_paa`` bounds the whole corpus and orders it, the other stages
bound it a block at a time (from :data:`_WALK_FIRST` times k rows,
doubling up to :data:`_WALK_BLOCK`) only while the block's
``new_paa`` is within the radius, and the refine takes the
pending rows whenever their best bound is at most the next unread
row's — Seidl-Kriegel's multi-step k-NN at each level of the cascade,
in Lemire's cheap-bounds-first order (arXiv 0807.1734).  It is exact
on every plan: DTW has no triangle inequality to shortcut with
(arXiv 2002.04187), only lower bounds.  See :meth:`QueryEngine._walk`.

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

import heapq
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.envelope import (
    Envelope,
    batch_envelope,
    k_envelope,
    warping_width_to_k,
)
from ..core.envelope_transforms import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    envelope_paa,
    frame_means,
    row_paa_frames,
)
from ..core.transforms import PAATransform
from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance_batch
from ..dtw.kernels import KernelStats
from ..index.stats import QueryStats
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from .errors import QueryAborted
from .stages import (
    lb_envelope_batch,
    lb_first_last_batch,
    lb_keogh_two_sided,
    lb_lemire_batch,
    lb_new_paa_two_sided,
    query_sides,
)

__all__ = ["QueryEngine", "CascadeStats", "StageStats", "STAGE_ORDER",
           "DEFAULT_STAGES", "QueryAborted", "check_search", "query_kind",
           "search_params"]

#: All known stage names, cheapest first.
STAGE_ORDER = ("first_last", "keogh_paa", "new_paa", "lb_keogh", "lemire")

#: The default cascade (Lemire's refinement is opt-in: it costs one
#: more O(n) pass per surviving candidate).
DEFAULT_STAGES = ("first_last", "keogh_paa", "new_paa", "lb_keogh")

#: Guard band against floating-point jitter at the pruning threshold:
#: a bound within this of the radius is never used to prune.
_PRUNE_ATOL = 1e-9

#: Most survivors handed to the DTW kernel per call.  The cap bounds the
#: float64 gather (1 MB at n=128) and the stretch between abort polls,
#: which the engine makes once per slice.  Measured on a 2-vCPU host,
#: 1024 unbounded rows take 3.1 / 13.6 / 71 ms with the native kernel
#: and 11 / 39 / 128 ms with the NumPy body at n = 128 / 256 / 512
#: (band 5 / 12 / 25).  A smaller cap would buy little: the native
#: body's fixed cost is ~0.03 ms a call, but the NumPy body still pays
#: 2-3 ms of dispatch per call whatever its row count.
_REFINE_ROWS = 1024

#: Growth factor of a k-NN walk's refine slices, from k up to
#: :data:`_REFINE_ROWS`: each slice is cut and abandoned against the
#: radius the previous ones shrank, so small early slices bring the
#: refined rows close to the floor.  Re-swept with the best-first walk
#: (2026-10, bench_e2e's ``knn_hard`` requests, 10^4 rows, k=10, one
#: thread, native kernel, 1024-row blocks): 272.2 / 275.8 / 279.3 /
#: 287.9 rows and 5.3 / 3.9 / 3.5 / 3.2 kernel calls per query for
#: x2 / x4 / x8 / x16, against a max(EQ, EC) floor of 271.0.  x2 keeps
#: the refine within 1 % of the floor.
_REFINE_GROWTH = 2

#: Most rows the k-NN walk reads at a time, in ascending ``new_paa``
#: order.  Each block costs a few stage calls, which release the GIL
#: but are made from Python.  Re-swept with the native stage bodies
#: (2026-10, bench_e2e's ``knn_hard`` requests, 10^4 rows, k=10, two
#: threads on one engine, 2-vCPU host, 6 alternated passes): blocks of
#: at most 256 / 512 / 1024 rows served 206-254 / 256-315 / 298-376
#: queries/s (medians 227 / 271 / 328) while ``lb_keogh`` bounded
#: 2 203 / 2 206 / 2 224 rows per query.
_WALK_BLOCK = 1024

#: The k-NN walk's first block, in multiples of k; each later block is
#: twice the one before, up to :data:`_WALK_BLOCK`, so a small store is
#: not bounded whole before any distance is known.  On ``knn_hard``
#: (same setting, one thread), first blocks of 4 / 8 / 16 / 32 / 64 k
#: refined 272.62 / 272.30 / 272.07 / 271.51 / 271.43 rows per query
#: and ``lb_keogh`` bounded 2 218 / 2 219 / 2 224 / 2 231 / 2 254, against
#: 272.18 and 2 318 with whole 1024-row blocks.  16 k is the smallest
#: first block that refines fewer rows than whole blocks on all 120
#: requests and on bench_e2e's traced 16 (203.25 against 204.31).
_WALK_FIRST = 16

#: Rows the walk's order sorts first (4 blocks); the rest is sorted
#: only if the walk reads that far.
_WALK_HEAD = 4 * _WALK_BLOCK


@dataclass
class StageStats:
    """What one filter stage did to the candidate stream.

    ``wall_time_s`` is the stage's elapsed time for one query; when
    stats objects for several queries are merged with ``+`` it becomes
    the *sum* over those queries.  ``bound_min`` / ``bound_mean`` /
    ``bound_max`` are over the raw bounds the stage returned, and a row
    the native ``lb_keogh`` abandoned at the radius returns a partial
    bound (its EC alone), so on that stage they may read below the
    full bounds' statistics.
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


def check_search(k, epsilon) -> tuple[int | None, float | None]:
    """Validate a query's *k* / *epsilon* for every route; return them
    as ``int`` / ``float``.  At least one is given, *k* is an integer
    >= 1 (not a ``bool``), *epsilon* a real >= 0 (``inf`` yes, NaN no).
    """
    if k is None and epsilon is None:
        raise ValueError("give k, epsilon or both")
    if k is not None and (isinstance(k, bool)
                          or not isinstance(k, numbers.Integral) or k < 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if epsilon is not None and not (isinstance(epsilon, numbers.Real)
                                    and epsilon >= 0):
        raise ValueError(f"epsilon must be a real >= 0, got {epsilon!r}")
    return (None if k is None else int(k),
            None if epsilon is None else float(epsilon))


def query_kind(k) -> str:
    """The telemetry ``kind`` label: ``"knn"`` when *k* is set."""
    return "range" if k is None else "knn"


def search_params(kind: str, param) -> dict:
    """The serving front door's ``(kind, param)`` request as
    :meth:`QueryEngine.search` keywords — the one place it crosses."""
    if kind not in ("range", "knn"):
        raise ValueError(f"kind must be 'range' or 'knn', got {kind!r}")
    return {"epsilon": param} if kind == "range" else {"k": param}


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
    before every cascade stage (in the k-NN walk, before each block's)
    and before every refine slice, so an abort
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
    """Per-query precomputations, built lazily stage by stage.  Local to
    one call: nothing here is ever kept on the shared engine."""

    __slots__ = ("q", "band", "_q_env", "_reduced", "_sides", "_paa_means",
                 "_engine", "kernel_stats")

    def __init__(self, engine: "QueryEngine", q: np.ndarray) -> None:
        self._engine = engine
        self.q = q
        self.band = engine.band
        self._q_env: Envelope | None = None
        self._reduced: dict[str, Envelope] = {}
        self._sides: tuple | None = None
        self._paa_means: np.ndarray | None = None
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

    @property
    def keogh_sides(self) -> tuple:
        """The ``lb_keogh`` stage's query arrays, cast once per query
        (the k-NN walk bounds a query's rows in several blocks)."""
        if self._sides is None:
            self._sides = query_sides(self.q, self.q_envelope,
                                      self._engine._data.dtype)
        return self._sides

    @property
    def paa_means(self) -> np.ndarray:
        """The query's frame means at the row-envelope PAA's frames."""
        if self._paa_means is None:
            self._paa_means = frame_means(self.q[None, :],
                                          self._engine._paa_frames)[0]
        return self._paa_means


class _Ascending:
    """The corpus rows in ascending *key*, sorted only as far as read.

    An ``argpartition`` picks the first *head* rows and sorts them; the
    rest is partitioned again, for a head four times larger, only once
    the walk has read the first.
    """

    __slots__ = ("_key", "_rows", "_pos", "_rest", "_head")

    def __init__(self, key: np.ndarray, head: int) -> None:
        self._key = key
        self._rows = np.empty(0, dtype=np.intp)
        self._pos = 0
        self._rest: np.ndarray | None = None  # unsorted rows; None: all
        self._head = head

    def _sort_next(self) -> None:
        rest = self._rest
        sub = self._key if rest is None else self._key[rest]
        if sub.size > self._head:
            part = np.argpartition(sub, self._head - 1)
            first, later = part[:self._head], part[self._head:]
            first = first[np.argsort(sub[first], kind="stable")]
        else:
            first = np.argsort(sub, kind="stable")
            later = np.empty(0, dtype=np.intp)
        if rest is not None:
            first, later = rest[first], rest[later]
        self._rows, self._pos, self._rest = first, 0, later
        self._head *= 4

    def next_key(self) -> float | None:
        """The key of the next unread row; ``None`` once all are read."""
        if self._pos == self._rows.size:
            if self._rest is not None and not self._rest.size:
                return None
            self._sort_next()
        return float(self._key[self._rows[self._pos]])

    def take(self, count: int) -> np.ndarray:
        """Up to *count* next rows (after :meth:`next_key`)."""
        rows = self._rows[self._pos:self._pos + count]
        self._pos += rows.size
        return rows


def _tally(stage: StageStats, raw: np.ndarray) -> None:
    """Fold one evaluation of *stage* over ``raw.size`` rows into its
    record: rows bounded, and the min / mean / max of the raw bound."""
    if not raw.size:
        return
    seen = stage.candidates_in
    low, high, total = float(raw.min()), float(raw.max()), float(raw.sum())
    if seen:
        stage.bound_min = min(stage.bound_min, low)
        stage.bound_max = max(stage.bound_max, high)
        stage.bound_mean = ((stage.bound_mean * seen + total)
                            / (seen + raw.size))
    else:
        stage.bound_min, stage.bound_max = low, high
        stage.bound_mean = total / raw.size
    stage.candidates_in = seen + int(raw.size)


class _Answer:
    """The *k* best hits so far, or every hit when *k* is ``None``.

    A heap of ``(-distance, -row)``: its top is the worst hit in answer
    order, the one a better hit evicts once *k* are held.
    """

    __slots__ = ("k", "cap", "_heap")

    def __init__(self, k: int | None, cap: float) -> None:
        self.k = k
        self.cap = cap
        self._heap: list[tuple[float, int]] = []

    def radius(self) -> float:
        """``min(epsilon, k-th distance so far)``, unset as ``inf``."""
        if self.k is not None and len(self._heap) >= self.k:
            return -self._heap[0][0]
        return self.cap

    def add(self, rows: np.ndarray, dists: np.ndarray,
            cutoff: float) -> None:
        """Keep the rows refined against *cutoff* that it did not cut."""
        heap, k = self._heap, self.k
        hits = dists <= cutoff
        for row, dist in zip(rows[hits].tolist(), dists[hits].tolist()):
            entry = (-dist, -row)
            if k is None or len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

    def results(self, ids) -> list[tuple[object, float]]:
        """``(id, distance)`` pairs in (distance, corpus row) order."""
        return [(ids[-negrow], -negd)
                for negd, negrow in sorted(self._heap, reverse=True)]


class QueryEngine:
    """Batched filter-cascade search over a fixed-length series corpus.

    One method runs a query: :meth:`search`, the *k* best within
    *epsilon*, with :meth:`range_search` (*epsilon* alone) and
    :meth:`knn` (*k* alone) as its two spellings.  Every stage prunes
    against the radius ``min(epsilon, k-th distance so far)``, eagerly
    for a range query (:meth:`_eager`) and best first for a k-NN one
    (:meth:`_walk`); survivors go through the batched DTW kernel in
    slices of at most :data:`_REFINE_ROWS` (:meth:`_refine`), early
    abandoned against that radius.  Answers are ordered by (distance,
    corpus row).

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
    envelopes:
        Optional ``(lower, upper)`` or ``(lower, upper, paa)``: every
        row's ``k``-envelope, two arrays of the corpus's shape and
        dtype (a store's ``env_lower`` / ``env_upper`` columns), and
        their New_PAA column (a store's ``env_paa``).  Data, like
        *ids*: when absent the engine computes the same arrays with
        :func:`~repro.core.envelope.batch_envelope` and
        :func:`~repro.core.envelope_transforms.envelope_paa`, so the
        argument changes no result.  The ``lb_keogh`` stage reads the
        envelopes, ``new_paa`` the column.
    metric:
        ``"euclidean"`` (default) or ``"manhattan"``.
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
        envelopes: tuple | None = None,
        metric: str = "euclidean",
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
            # columns) is kept as-is, at half the resident memory of
            # an upcast copy: refinement promotes it exactly to
            # float64, so answers are bitwise identical to the copy's,
            # and ``lb_keogh`` bounds it in float32, deflated to stay
            # sound (see ``stages.lb_keogh_two_sided``).
            data = np.asarray(corpus)
            if data.dtype != np.float32:
                data = np.asarray(corpus, dtype=np.float64)
            if data.ndim != 2:
                raise ValueError(
                    "corpus series must share one length "
                    "(or pass a fixed-length normal_form)"
                )
        # The stage bodies read rows in place, so every corpus-sized array
        # is C-contiguous from here on (a store's columns already are,
        # and stay mapped).
        self._data = data = np.ascontiguousarray(data)
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
        if ids is None:
            ids = list(range(m))
        else:
            ids = list(ids)
            if len(ids) != m:
                raise ValueError(f"{m} series but {len(ids)} ids")
        self.ids = ids
        n_features = min(n_features, n)
        frames = row_paa_frames(n_features, n)
        env_paa = None
        if envelopes is not None:
            lower, upper, *rest = (np.asarray(side) for side in envelopes)
            if (len(rest) > 1 or lower.shape != data.shape
                    or upper.shape != data.shape
                    or lower.dtype != data.dtype
                    or upper.dtype != data.dtype):
                raise ValueError(
                    f"envelopes must be two {data.dtype} arrays of shape "
                    f"{data.shape}, and optionally their New_PAA column"
                )
            envelopes = (lower, upper)
            if rest:
                env_paa = rest[0]
                if (env_paa.shape != (m, 2 * frames)
                        or env_paa.dtype != np.float32):
                    raise ValueError(
                        f"the envelopes' New_PAA column must be float32 "
                        f"of shape {(m, 2 * frames)}, got {env_paa.dtype} "
                        f"{env_paa.shape}"
                    )
        elif "lb_keogh" in stages or "new_paa" in stages:
            envelopes = batch_envelope(data, self.band)
        if "new_paa" in stages and env_paa is None:
            env_paa = envelope_paa(*envelopes, frames)
        self._envelopes = (tuple(np.ascontiguousarray(side)
                                 for side in envelopes)
                           if "lb_keogh" in stages else None)
        # The row side of ``new_paa``: each row's envelope reduced by
        # New_PAA at ``frames`` frames, a store's ``env_paa`` column.
        self._env_paa = (None if env_paa is None
                         else np.ascontiguousarray(env_paa))
        self._paa_frames = frames
        self._paa_widths = np.diff(
            PAATransform(n, frames).frame_bounds).astype(np.float64)
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

    def _stage_bounds(self, name: str, ctx: _QueryContext, rows,
                      limit: float) -> np.ndarray:
        """Stage *name*'s raw bound for the rows *rows* selects (an
        index array, or ``slice(None)`` for the whole corpus).

        *limit* is the pruning radius: ``lb_keogh`` stops bounding a
        row once it exceeds it, and returns that partial bound."""
        if name == "first_last":
            return lb_first_last_batch(
                ctx.q, self._data, rows, metric=self.metric
            )
        if name == "keogh_paa":
            return lb_envelope_batch(
                self._features, ctx.reduced(name), rows, metric=self.metric
            )
        if name == "new_paa":
            return lb_new_paa_two_sided(
                self._features, ctx.reduced(name), ctx.paa_means,
                self._env_paa, self._paa_widths, rows, metric=self.metric,
            )
        if name == "lb_keogh":
            return lb_keogh_two_sided(
                ctx.keogh_sides, self._data, *self._envelopes, rows,
                metric=self.metric, radius=limit,
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
        :data:`_REFINE_ROWS` rows, unless *k* seeds are more — so
        *should_abort* is polled once per slice.
        """
        _maybe_abort(should_abort, "refine")
        ks = ctx.kernel_stats
        with self.obs.span("refine", rows=int(rows.size)):
            started = monotonic_s()
            with self.obs.span("kernel") as kspan:
                before = _kernel_snapshot(ks)
                dists = ldtw_distance_batch(
                    ctx.q, self._data[rows], self.band, metric=self.metric,
                    upper_bound=None if math.isinf(cutoff) else cutoff,
                    kernel_stats=ks,
                )
                _set_kernel_span(kspan, ks, before)
            stats.dtw_computations += int(rows.size)
            stats.dtw_abandoned += int(np.count_nonzero(np.isinf(dists)))
            stats.exact_time_s += monotonic_s() - started
        return dists

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search(
        self, query, *, k: int | None = None, epsilon: float | None = None,
        should_abort=None,
    ) -> tuple[list[tuple[object, float]], CascadeStats]:
        """The *k* nearest series within DTW distance *epsilon*, exactly.

        The radius is ``min(epsilon, k-th distance so far)`` (unset
        counts as infinite).  Without *k* it is *epsilon*, fixed, and
        every stage prunes the whole corpus against it in turn
        (:meth:`_eager`).  With *k* the engine walks the rows best
        first (:meth:`_walk`), bounding and refining only the rows the
        shrinking radius still admits.  Both refine in slices through
        the batched DTW kernel, early abandoned against the radius.
        Results are ``(id, distance)`` pairs ordered by (distance,
        corpus row).

        *should_abort*, when given, is a zero-argument callable polled
        before every stage (in the walk, every block's stages) and
        before every refine slice; the query raises
        :class:`QueryAborted` as soon as it returns true, never a
        partial answer (cooperative cancellation — the serving layer's
        deadline mechanism).
        """
        k, epsilon = check_search(k, epsilon)
        kind = query_kind(k)
        params = {key: value for key, value in
                  (("k", k), ("epsilon", epsilon)) if value is not None}
        answer = _Answer(k, math.inf if epsilon is None else epsilon)
        ctx = _QueryContext(self, self._normalise_query(query))
        with self.obs.span(
            "query", kind=kind, **params, band=self.band,
        ) as qspan:
            started = monotonic_s()
            stats = CascadeStats(corpus_size=len(self))
            if k is None:
                self._eager(ctx, answer, stats, should_abort)
            else:
                self._walk(ctx, answer, stats, should_abort, started)
            results = answer.results(self.ids)
            stats.results = len(results)
            stats.total_time_s = monotonic_s() - started
            stats.cpu_time_s = stats.total_time_s
            qspan.set(**_query_span_attrs(stats))
        self.obs.record_cascade_query(kind, stats, ctx.kernel_stats)
        return results, stats

    def _eager(self, ctx: _QueryContext, answer: _Answer,
               stats: CascadeStats, should_abort) -> None:
        """A range query: each stage bounds every row the previous ones
        kept and prunes against the fixed radius; the survivors are
        refined in slices of :data:`_REFINE_ROWS`, in corpus order."""
        radius = answer.radius()
        alive = np.arange(len(self))
        bounds = np.zeros(len(self))
        for name in self.stages:
            _maybe_abort(should_abort, "stage:" + name)
            with self.obs.span("stage:" + name) as span:
                started = monotonic_s()
                stage = StageStats(name=name)
                if alive.size:
                    raw = self._stage_bounds(name, ctx, alive,
                                             radius + _PRUNE_ATOL)
                    _tally(stage, raw)
                    bounds[alive] = np.maximum(bounds[alive], raw)
                    if math.isfinite(radius):
                        keep = bounds[alive] <= radius + _PRUNE_ATOL
                        stage.pruned = int(alive.size
                                           - np.count_nonzero(keep))
                        alive = alive[keep]
                stage.wall_time_s = monotonic_s() - started
                span.set(**stage.to_dict())
            stats.stages.append(stage)
        for start in range(0, alive.size, _REFINE_ROWS):
            rows = alive[start:start + _REFINE_ROWS]
            answer.add(rows, self._refine(ctx, rows, radius, stats,
                                          should_abort), radius)

    def _walk(self, ctx: _QueryContext, answer: _Answer,
              stats: CascadeStats, should_abort, started: float) -> None:
        """A k-NN query, best first, every bound computed only where the
        walk needs it (Seidl-Kriegel's multi-step k-NN at each level of
        the cascade, after Lemire's cheap-bounds-first order).

        ``new_paa``, when planned, bounds the whole corpus and orders
        it (:class:`_Ascending`; its time includes the ordering);
        without it every row's order key is 0.  The walk then repeats
        the first of two steps that applies, until neither does:

        * **refine** while the best pending bound is at most both the
          radius and the next unread key: the pending rows up to both,
          at most k, then :data:`_REFINE_GROWTH` times more each slice,
          up to :data:`_REFINE_ROWS`, abandoned at the radius;
        * **read** the next block while its key is at most the radius
          (:data:`_WALK_FIRST` times k rows, then twice the last, up to
          :data:`_WALK_BLOCK`): the plan's other stages bound it in
          plan order, each pruning against the radius, and the
          survivors join the pending set in ascending bound order.

        Pending rows still above the radius at the end are
        ``exact_skipped``; unread rows are counted as pruned by
        ``new_paa``.  Stage records sum over the blocks (rows bounded,
        pruned, time — refine time excluded), one ``stage:<name>`` span
        each, laid out from the query's start (durations faithful, not
        offsets), so ``CascadeStats.from_trace`` still rebuilds them.
        """
        m = len(self)
        records = {name: StageStats(name=name) for name in self.stages}
        passes = [name for name in self.stages if name != "new_paa"]
        order_stage = records.get("new_paa")
        if order_stage is not None:
            _maybe_abort(should_abort, "stage:new_paa")
            begun = monotonic_s()
            key = self._stage_bounds("new_paa", ctx, slice(None), math.inf)
            _tally(order_stage, key)
            order = _Ascending(key, _WALK_HEAD)
            order.next_key()
            order_stage.wall_time_s = monotonic_s() - begun
        else:
            key = np.zeros(m)
            order = _Ascending(key, m)
        pending = np.empty(0, dtype=np.intp)
        pending_bounds = np.empty(0)
        read = 0
        size = answer.k
        block = min(_WALK_FIRST * answer.k, _WALK_BLOCK)
        while True:
            limit = answer.radius() + _PRUNE_ATOL
            next_key = order.next_key()
            unread = math.inf if next_key is None else next_key
            if pending.size and pending_bounds[0] <= min(unread, limit):
                take = min(size, int(np.searchsorted(
                    pending_bounds, min(unread, limit), side="right")))
                rows, pending = pending[:take], pending[take:]
                pending_bounds = pending_bounds[take:]
                size = min(size * _REFINE_GROWTH, _REFINE_ROWS)
                cutoff = answer.radius()
                answer.add(rows, self._refine(ctx, rows, cutoff, stats,
                                              should_abort), cutoff)
                continue
            if next_key is None or next_key > limit:
                break
            rows = order.take(block)
            block = min(2 * block, _WALK_BLOCK)
            bounds = key[rows]
            # Keys ascend along the order: the rows above the radius,
            # and every row after them, are never read.
            kept = int(np.searchsorted(bounds, limit, side="right"))
            rows, bounds = rows[:kept], bounds[:kept]
            read += kept
            for name in passes:
                if not rows.size:
                    break
                _maybe_abort(should_abort, "stage:" + name)
                begun = monotonic_s()
                stage = records[name]
                raw = self._stage_bounds(name, ctx, rows, limit)
                _tally(stage, raw)
                np.maximum(bounds, raw, out=bounds)
                keep = bounds <= limit
                stage.pruned += int(rows.size - np.count_nonzero(keep))
                rows, bounds = rows[keep], bounds[keep]
                stage.wall_time_s += monotonic_s() - begun
            pending = np.concatenate((pending, rows))
            pending_bounds = np.concatenate((pending_bounds, bounds))
            merged = np.argsort(pending_bounds, kind="stable")
            pending, pending_bounds = pending[merged], pending_bounds[merged]
        if order_stage is not None:
            order_stage.pruned = m - read
        stats.exact_skipped = int(pending.size)
        cursor = started
        for name in self.stages:
            stage = records[name]
            with self.obs.span("stage:" + name) as span:
                span.set(**stage.to_dict())
            if self.obs.tracer.enabled:
                span.start_s, span.end_s = cursor, cursor + stage.wall_time_s
            cursor += stage.wall_time_s
            stats.stages.append(stage)

    def range_search(self, query, epsilon: float, *, should_abort=None):
        """All series within DTW distance *epsilon*: :meth:`search`."""
        return self.search(query, epsilon=epsilon, should_abort=should_abort)

    def knn(self, query, k: int, *, should_abort=None):
        """The *k* nearest series under the banded DTW: :meth:`search`."""
        return self.search(query, k=k, should_abort=should_abort)

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------

    def ground_truth(
        self, query, *, k: int | None = None, epsilon: float | None = None
    ) -> list[tuple[object, float]]:
        """Exact :meth:`search` answer by an unfiltered vectorised scan
        (test oracle), in the same (distance, corpus row) order."""
        k, epsilon = check_search(k, epsilon)
        dists = ldtw_distance_batch(
            self._normalise_query(query), self._data, self.band,
            metric=self.metric,
        )
        order = np.argsort(dists, kind="stable")
        if epsilon is not None:
            order = order[dists[order] <= epsilon]
        return [(self.ids[i], float(dists[i])) for i in order[:k]]

    def ground_truth_range(self, query, epsilon: float):
        """Exact range answer: :meth:`ground_truth`."""
        return self.ground_truth(query, epsilon=epsilon)

    def ground_truth_knn(self, query, k: int):
        """Exact k-NN: :meth:`ground_truth`."""
        return self.ground_truth(query, k=k)
