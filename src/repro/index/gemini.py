"""The GEMINI warping index (Section 4.3 of the paper).

:class:`WarpingIndex` realises the five-step strategy verbatim:

1. every database series is brought to its normal form and reduced to a
   feature vector ``X = T(x)``;
2. the feature vectors are stored in a multidimensional index (an
   R*-tree, bulk-loaded by the first tree query);
3. a query is brought to its normal form, its ``k``-envelope is
   computed, and the envelope is reduced with a **container-invariant**
   envelope transform to a feature-space rectangle ``[E^L, E^U]``;
4. an ε-range query around that rectangle returns a candidate set that
   is guaranteed to contain every true answer (Theorem 1);
5. candidates are refined with the exact constrained-DTW distance.

Because the envelope lives on the *query* side, an existing Euclidean
feature index gains DTW support without being rebuilt — one of the
paper's selling points.

The tree route (:meth:`WarpingIndex.filter_query`, :meth:`range_query`,
:meth:`knn_query`) is the paper's page-access instrument.  Served
queries take the cascade route (:meth:`WarpingIndex.cascade_knn_query`,
:meth:`cascade_range_query`), which returns the same answer.
"""

from __future__ import annotations

import heapq
import math
import threading
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from ..core.envelope import Envelope, envelope_distance, k_envelope, warping_width_to_k
from ..core.envelope_transforms import EnvelopeTransform, NewPAAEnvelopeTransform
from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance, ldtw_distance_batch, ldtw_refiner
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from .rstartree import RStarTree
from .stats import QueryStats

__all__ = ["WarpingIndex"]


class _Snapshot(NamedTuple):
    """One generation's corpus state, taken under one acquisition of the
    lock :meth:`WarpingIndex.swap_generation` rebinds it under, so a
    reader that holds it never mixes two generations."""

    tree: RStarTree | None  # None until a tree route builds it
    id_to_row: dict
    data: np.ndarray
    features: np.ndarray
    ids: list
    envelopes: tuple | None
    lb_slack: float


class WarpingIndex:
    """An index for ε-range and k-NN queries under constrained DTW.

    Parameters
    ----------
    database:
        Sequence of time series (any lengths; each is normalised).
    delta:
        Warping width ``(2k+1)/n`` of the supported DTW distance.
    env_transform:
        Container-invariant envelope transform; default
        ``NewPAAEnvelopeTransform`` with *n_features* frames.
    n_features:
        Feature dimensionality when *env_transform* is defaulted.
    normal_form:
        Normalisation applied to database and query series.  Its
        ``length`` fixes the UTW normal-form length ``n``.
    capacity:
        Page capacity of the R*-tree.
    ids:
        Optional identifiers for the database series.
    metric:
        Ground metric of the DTW distance: ``"euclidean"`` (the
        paper's, default) or ``"manhattan"``.  The envelope transform
        must be sound under the chosen metric (the default New_PAA is
        built accordingly).
    obs:
        An :class:`~repro.obs.Observability` facade.  Attaches to the
        R*-tree query paths (``index.*`` metrics, ``query`` spans)
        and propagates to every cached cascade engine (see
        :meth:`set_observability`).  Default ``None`` = disabled.
    """

    def __init__(
        self,
        database: Sequence,
        *,
        delta: float,
        env_transform: EnvelopeTransform | None = None,
        n_features: int = 8,
        normal_form: NormalForm | None = None,
        capacity: int = 50,
        ids: Sequence | None = None,
        metric: str = "euclidean",
        obs: Observability | None = None,
    ) -> None:
        self.obs = OBS_DISABLED if obs is None else obs
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(
                f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
            )
        if not len(database):
            raise ValueError("database must not be empty")
        #: Swaps since the index was opened: 0 at construction, bumped
        #: exactly once by every :meth:`swap_generation`.  The serving
        #: layer's result cache keys entries by this version, so a swap
        #: invalidates stale answers without the cache having to
        #: subscribe to anything.  (The store's own number is
        #: ``store.generation``.)
        self.generation = 0
        self._store = None
        #: Row envelopes of ``_data`` and their New_PAA column when it
        #: is a store's rows (that store's columns); ``None`` lets the
        #: engine compute its own.
        self._envelopes = None
        self._lb_slack = 0.0
        self.normal_form = normal_form or NormalForm()
        if self.normal_form.length is None:
            raise ValueError("WarpingIndex requires a fixed normal-form length")
        self.normal_length = self.normal_form.length
        self.delta = delta
        self.metric = metric
        self.band = warping_width_to_k(delta, self.normal_length)
        self.env_transform = env_transform or NewPAAEnvelopeTransform(
            self.normal_length, n_features, metric=metric
        )
        if self.env_transform.input_length != self.normal_length:
            raise ValueError(
                f"envelope transform expects length "
                f"{self.env_transform.input_length}, but the normal form "
                f"produces {self.normal_length}"
            )
        if metric not in getattr(self.env_transform, "metrics", ("euclidean",)):
            raise ValueError(
                f"envelope transform {self.env_transform.name!r} does not "
                f"lower-bound the {metric!r} metric"
            )

        if ids is None:
            ids = list(range(len(database)))
        else:
            ids = list(ids)
            if len(ids) != len(database):
                raise ValueError(
                    f"{len(database)} series but {len(ids)} ids"
                )
        self.ids = ids
        self._id_to_row = {item_id: row for row, item_id in enumerate(ids)}
        if len(self._id_to_row) != len(ids):
            raise ValueError("ids must be unique")

        self._engines: dict = {}
        self._swap_lock = threading.Lock()
        self._data = np.vstack(
            [self.normal_form.apply(series) for series in database]
        )
        self._features = self.env_transform.transform.transform_batch(
            self._data)
        self._index = None
        self._capacity = capacity

    @classmethod
    def from_store(cls, store, *,
                   obs: Observability | None = None) -> "WarpingIndex":
        """Open a columnar-store generation as a live index.

        The corpus stays in the store's memory-mapped float32 columns
        (no float64 copy).  The feature index is an R*-tree with the
        manifest's page capacity, STR-bulk-loaded from the stored
        feature column by the first query that reads it.  Because
        stored features are float32 quantizations of the exact float64
        features, index-level range searches are inflated by a slack
        derived from the manifest's ``feature_margin`` — results stay
        exact (zero false negatives) with respect to the stored corpus.
        Refinement always runs in float64 (the DTW kernels upcast).
        """
        from ..ingest.builder import transform_from_config

        manifest = store.manifest
        self = cls.__new__(cls)
        self.obs = OBS_DISABLED if obs is None else obs
        self.generation = 0
        cfg = manifest.config
        nf = cfg.get("normal_form", {})
        self.normal_form = NormalForm(
            length=nf.get("length", manifest.normal_length),
            shift=nf.get("shift", True),
            scale=nf.get("scale", False),
        )
        self.normal_length = manifest.normal_length
        self.delta = float(cfg.get("delta", 0.1))
        self.metric = manifest.metric
        self.band = warping_width_to_k(self.delta, self.normal_length)
        spec = cfg.get("env_transform")
        self.env_transform = (
            transform_from_config(spec, metric=self.metric) if spec
            else NewPAAEnvelopeTransform(self.normal_length,
                                         manifest.n_features,
                                         metric=self.metric)
        )
        if self.env_transform.input_length != self.normal_length:
            raise ValueError(
                "store's envelope transform does not match its normal form"
            )
        self._capacity = int(cfg.get("capacity", 50))
        self._swap_lock = threading.Lock()
        for name, value in self._store_state(store).items():
            setattr(self, name, value)
        return self

    @property
    def store(self):
        """The backing :class:`~repro.store.CorpusStore` (or ``None``)."""
        return self._store

    @staticmethod
    def _slack_for(margin: float, dim: int, metric: str) -> float:
        """Range-search inflation covering float32 feature storage.

        Each stored feature coordinate is within *margin* of the exact
        float64 feature, so a rectangle distance computed from stored
        features can exceed the true one by at most ``margin * sqrt(d)``
        (Euclidean) / ``margin * d`` (Manhattan).
        """
        if margin <= 0.0:
            return 0.0
        return margin * (dim if metric == "manhattan" else math.sqrt(dim))

    def _snapshot(self, *, tree: bool) -> _Snapshot:
        """This generation's corpus state, read under one acquisition of
        the lock :meth:`swap_generation` rebinds it under.

        With *tree*, the R*-tree is built first if this
        generation has none yet.  Only the tree routes (``filter_query``,
        ``range_query``, ``knn_query``) ask for it, so the cascade route
        never pays for it.
        """
        with self._swap_lock:
            if tree and self._index is None:
                self._index = RStarTree.bulk_load(
                    self._features, self.ids, capacity=self._capacity)
            return _Snapshot(self._index, self._id_to_row, self._data,
                             self._features, self.ids, self._envelopes,
                             self._lb_slack)

    def _store_state(self, store) -> dict:
        """Every corpus-dependent object for a generation.

        Pure construction — nothing on ``self`` is touched, so
        :meth:`swap_generation` can assemble the new generation's state
        while queries keep running against the old one.
        """
        manifest = store.manifest
        if (manifest.normal_length != self.normal_length
                or manifest.n_features != self.env_transform.output_dim
                or manifest.metric != self.metric):
            raise ValueError(
                f"generation {store.generation} is schema-incompatible "
                f"with this index (n={manifest.normal_length}, "
                f"d={manifest.n_features}, metric={manifest.metric!r})"
            )
        ids = store.ids
        id_to_row = {item_id: row for row, item_id in enumerate(ids)}
        if len(id_to_row) != len(ids):
            raise ValueError("store ids must be unique")
        return {
            "ids": ids,
            "_id_to_row": id_to_row,
            "_data": store.normalized,
            "_features": store.features,
            "_index": None,
            "_store": store,
            # Mapped (or joined across segments) here, off the query
            # path, rather than by the first engine() after a swap.
            "_envelopes": (store.env_lower, store.env_upper,
                           store.env_paa),
            "_engines": {},
            "_lb_slack": self._slack_for(store.feature_margin,
                                         self.env_transform.output_dim,
                                         self.metric),
        }

    def swap_generation(self, store) -> None:
        """Atomically swap in a new store generation (zero downtime).

        Everything corpus-dependent — arrays, id maps — is gathered
        *first* from the new generation while queries keep reading the
        old references; then the references are rebound (the feature
        index and the engines are dropped, for the next query to
        rebuild), all under the lock every reader takes its
        generation snapshot under, and ``generation`` is bumped
        **exactly once, last**, so versioned result caches and the
        sharded tier's ``(generation, epoch)`` key invalidate exactly
        once per swap, and a reader that sees the new number also sees
        the new rows.  In-flight queries that took the old snapshot
        finish correctly against the old generation.
        """
        if self._store is None:
            raise ValueError(
                "swap_generation requires a store-backed index "
                "(build it with WarpingIndex.from_store)"
            )
        state = self._store_state(store)
        with self._swap_lock:
            for name, value in state.items():
                setattr(self, name, value)
            self.generation += 1

    def __len__(self) -> int:
        return self._data.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.env_transform.output_dim

    def normalized(self, item_id) -> np.ndarray:
        """The stored normal form of a database series (float64 view)."""
        snap = self._snapshot(tree=False)
        return np.asarray(snap.data[snap.id_to_row[item_id]],
                          dtype=np.float64)

    def _query_rectangle(
        self, query
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Envelope]:
        q = self.normal_form.apply(query)
        envelope = k_envelope(q, self.band)
        feature_env = self.env_transform.reduce(envelope)
        return q, feature_env.lower, feature_env.upper, envelope

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def filter_query(self, query, epsilon: float) -> tuple[list, QueryStats]:
        """The filter step alone: candidate ids and their index cost.

        This is what Figures 8-10 of the paper measure — the number of
        candidates the index retrieves and the pages it touches —
        without the exact-DTW refinement.  The candidate set is a
        superset of the true ε-range answer (Theorem 1).
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        _, rect_lower, rect_upper, _ = self._query_rectangle(query)
        view = self._snapshot(tree=True)
        view.tree.reset_stats()
        candidates = view.tree.range_search(
            rect_lower, rect_upper, epsilon + view.lb_slack,
            metric=self.metric
        )
        stats = QueryStats(
            candidates=len(candidates), page_accesses=view.tree.page_accesses
        )
        return candidates, stats

    def range_query(
        self, query, epsilon: float, *, second_filter: bool = True
    ) -> tuple[list[tuple[object, float]], QueryStats]:
        """All series with DTW distance at most *epsilon* from *query*.

        Returns ``(results, stats)`` where results are ``(id, distance)``
        pairs ordered by (distance, corpus row).  Theorem 1 guarantees
        the candidate set contains every true answer, so the result is
        exact.

        With *second_filter* (default, as in the paper's Section 5.2),
        candidates are first screened with the full-dimension envelope
        bound LB_Keogh — an O(n) check that is still sound (Lemma 2) —
        and only survivors pay the O(kn) exact DTW; the stats record
        the pruned count under ``extra["second_filter_pruned"]``.
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        started = monotonic_s()
        q, rect_lower, rect_upper, q_envelope = self._query_rectangle(query)
        view = self._snapshot(tree=True)
        view.tree.reset_stats()
        candidates = view.tree.range_search(
            rect_lower, rect_upper, epsilon + view.lb_slack,
            metric=self.metric
        )
        stats = QueryStats(
            candidates=len(candidates), page_accesses=view.tree.page_accesses
        )
        results = []
        if candidates:
            rows = [view.id_to_row[item_id] for item_id in candidates]
            if second_filter:
                # Second filter (paper §5.2): the unreduced envelope
                # bound, vectorised over the candidate matrix.
                data = view.data[rows]
                above = np.maximum(data - q_envelope.upper, 0.0)
                below = np.maximum(q_envelope.lower - data, 0.0)
                if self.metric == "manhattan":
                    lb = np.sum(above + below, axis=1)
                else:
                    lb = np.sqrt(np.sum(above * above + below * below, axis=1))
                keep = lb <= epsilon
                stats.extra["second_filter_pruned"] = int(np.sum(~keep))
                rows = [r for r, flag in zip(rows, keep) if flag]
            if rows:
                dists = ldtw_distance_batch(q, view.data[rows], self.band,
                                            metric=self.metric,
                                            upper_bound=epsilon)
                stats.dtw_computations = len(rows)
                hits = sorted(
                    (float(dist), row)
                    for row, dist in zip(rows, dists) if dist <= epsilon
                )
                results = [(view.ids[row], dist) for dist, row in hits]
        stats.results = len(results)
        self.obs.record_index_query("range", stats, monotonic_s() - started)
        return results, stats

    def knn_query(
        self, query, k: int
    ) -> tuple[list[tuple[object, float]], QueryStats]:
        """The *k* nearest series under the constrained DTW distance.

        Optimal multi-step k-NN (Seidl & Kriegel 1998): candidates are
        ranked by their feature-space lower bound and refined until the
        next lower bound exceeds the current k-th exact distance — at
        which point no unexamined series can enter the answer.  Results
        are ordered by (distance, corpus row), as on the cascade route.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = monotonic_s()
        q, rect_lower, rect_upper, q_envelope = self._query_rectangle(query)
        view = self._snapshot(tree=True)
        view.tree.reset_stats()
        stats = QueryStats()
        # The answer so far, a heap of (-distance, -row): its top is the
        # worst hit in answer order, the one a better hit evicts.
        best: list[tuple[float, int]] = []
        refine = ldtw_refiner(q, self.band, metric=self.metric)

        for lower_bound, item_id in view.tree.nearest(
            rect_lower, rect_upper, metric=self.metric
        ):
            # lb_slack deflates bounds computed from float32-stored
            # features so the Seidl-Kriegel cutoff stays sound.
            if len(best) == k and lower_bound - view.lb_slack > -best[0][0]:
                break
            stats.candidates += 1
            row = view.id_to_row[item_id]
            cutoff = -best[0][0] if len(best) == k else None
            if cutoff is not None:
                # Second filter (paper §5.2): O(n) full-dimension
                # envelope bound before the O(kn) exact DTW.
                lb_full = envelope_distance(view.data[row], q_envelope,
                                            metric=self.metric)
                if lb_full > cutoff:
                    stats.extra["second_filter_pruned"] = (
                        stats.extra.get("second_filter_pruned", 0) + 1
                    )
                    continue
            dist = refine(view.data[row], cutoff)
            stats.dtw_computations += 1
            if not math.isfinite(dist):
                continue
            if len(best) < k:
                heapq.heappush(best, (-dist, -row))
            elif (dist, row) < (-best[0][0], -best[0][1]):
                heapq.heapreplace(best, (-dist, -row))
        stats.page_accesses = view.tree.page_accesses
        results = [(view.ids[-negrow], -negd)
                   for negd, negrow in sorted(best, reverse=True)]
        stats.results = len(results)
        self.obs.record_index_query("knn", stats, monotonic_s() - started)
        return results, stats

    def set_observability(self, obs: Observability | None) -> None:
        """Attach (or detach, with ``None``) an observability facade.

        Takes effect immediately for the index query paths *and* every
        already-cached cascade engine, so a facade can be attached to a
        long-lived index without rebuilding anything.
        """
        self.obs = OBS_DISABLED if obs is None else obs
        with self._swap_lock:
            engines = list(self._engines.values())
        for engine in engines:
            engine.obs = self.obs

    def engine(self, *, stages=None):
        """The batched filter-cascade engine over this index's corpus.

        Built once per stage configuration and generation, from the
        stored normal forms — and, for a store's rows, the store's
        memory-mapped envelope columns.  The build runs under the lock
        :meth:`swap_generation` rebinds the corpus under, as the
        feature index's does, so concurrent first callers (the serving
        layer's dispatchers) share one engine instead of each building
        their own.  The engine is the vectorised hot path: it
        evaluates the whole corpus through cheap-to-tight lower-bound
        stages before any exact DTW, and reports per-stage pruning
        counters.
        """
        from ..engine import DEFAULT_STAGES, QueryEngine

        key = DEFAULT_STAGES if stages is None else tuple(stages)
        with self._swap_lock:
            engine = self._engines.get(key)
            if engine is None:
                engine = self._engines[key] = QueryEngine(
                    self._data,
                    band=self.band,
                    stages=key,
                    n_features=self.feature_dim,
                    ids=self.ids,
                    envelopes=self._envelopes,
                    metric=self.metric,
                    obs=self.obs,
                )
        return engine

    def cascade_range_query(self, query, epsilon: float, *, stages=None):
        """Exact ε-range query through the filter cascade.

        Same answer as :meth:`range_query` (both are exact), but
        evaluated with the vectorised engine; returns ``(results,
        CascadeStats)`` with per-stage pruning counters instead of the
        flat :class:`~repro.index.stats.QueryStats`.
        """
        return self.engine(stages=stages).range_search(
            self.normal_form.apply(query), epsilon
        )

    def cascade_knn_query(self, query, k: int, *, stages=None):
        """Exact k-NN query through the filter cascade.

        Same answer as :meth:`knn_query`, evaluated with the
        vectorised engine (best-first refinement with early-abandoning
        DTW); returns ``(results, CascadeStats)``.
        """
        return self.engine(stages=stages).knn(
            self.normal_form.apply(query), k
        )

    def explain(self, query, item_id) -> dict:
        """The full bound cascade for one query/candidate pair.

        Returns a dict with every quantity the filter pipeline would
        compute — useful to see *why* a candidate was pruned or kept:

        ``feature_lb``   distance in reduced feature space (Theorem 1)
        ``envelope_lb``  full-dimension envelope bound (Lemma 2)
        ``exact_dtw``    the true constrained DTW distance
        ``band`` / ``delta`` / ``metric``  the query configuration

        The cascade property ``feature_lb <= envelope_lb <= exact_dtw``
        always holds.
        """
        snap = self._snapshot(tree=False)
        if item_id not in snap.id_to_row:
            raise KeyError(f"id {item_id!r} not in the index")
        q, rect_lower, rect_upper, q_envelope = self._query_rectangle(query)
        row = snap.id_to_row[item_id]
        feats = snap.features[row]
        gap = np.maximum(rect_lower - feats, 0.0) + np.maximum(
            feats - rect_upper, 0.0
        )
        if self.metric == "manhattan":
            feature_lb = float(np.sum(gap))
        else:
            feature_lb = float(np.sqrt(np.dot(gap, gap)))
        envelope_lb = envelope_distance(snap.data[row], q_envelope,
                                        metric=self.metric)
        exact = ldtw_distance(q, snap.data[row], self.band,
                              metric=self.metric)
        return {
            "item_id": item_id,
            "feature_lb": feature_lb,
            "envelope_lb": envelope_lb,
            "exact_dtw": exact,
            "band": self.band,
            "delta": self.delta,
            "metric": self.metric,
        }

    def ground_truth_range(self, query, epsilon: float) -> list[tuple[object, float]]:
        """Exact answer by scanning every series (test oracle)."""
        snap = self._snapshot(tree=False)
        q = self.normal_form.apply(query)
        dists = ldtw_distance_batch(q, snap.data, self.band,
                                    metric=self.metric)
        results = [
            (item_id, float(dist))
            for item_id, dist in zip(snap.ids, dists)
            if dist <= epsilon
        ]
        results.sort(key=lambda pair: pair[1])
        return results

    def ground_truth_knn(self, query, k: int) -> list[tuple[object, float]]:
        """Exact k-NN by scanning every series (test oracle)."""
        snap = self._snapshot(tree=False)
        q = self.normal_form.apply(query)
        dists = ldtw_distance_batch(q, snap.data, self.band,
                                    metric=self.metric)
        ranked = sorted(zip(snap.ids, map(float, dists)), key=lambda p: p[1])
        return ranked[:k]
