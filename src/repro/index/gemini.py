"""The GEMINI warping index (Section 4.3 of the paper).

:class:`WarpingIndex` realises the five-step strategy verbatim:

1. every database series is brought to its normal form and reduced to a
   feature vector ``X = T(x)``;
2. the feature vectors are stored in a multidimensional index
   (R*-tree, grid file, or a linear-scan baseline);
3. a query is brought to its normal form, its ``k``-envelope is
   computed, and the envelope is reduced with a **container-invariant**
   envelope transform to a feature-space rectangle ``[E^L, E^U]``;
4. an ε-range query around that rectangle returns a candidate set that
   is guaranteed to contain every true answer (Theorem 1);
5. candidates are refined with the exact constrained-DTW distance.

Because the envelope lives on the *query* side, an existing Euclidean
feature index gains DTW support without being rebuilt — one of the
paper's selling points.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..core.envelope import Envelope, envelope_distance, k_envelope, warping_width_to_k
from ..core.envelope_transforms import EnvelopeTransform, NewPAAEnvelopeTransform
from ..core.normal_form import NormalForm
from ..dtw.distance import ldtw_distance, ldtw_distance_batch, ldtw_refiner
from ..dtw.kernels import DEFAULT_BACKEND, get_kernel
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from .cluster import ClusterIndex
from .gridfile import GridFile
from .linear_scan import LinearScan
from .rstartree import RStarTree
from .stats import QueryStats

__all__ = ["WarpingIndex"]

_INDEX_KINDS = ("rstar", "grid", "linear", "cluster")


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
    index_kind:
        ``"rstar"`` (default), ``"grid"``, or ``"linear"``.
    capacity:
        Page capacity of the underlying index.
    ids:
        Optional identifiers for the database series.
    metric:
        Ground metric of the DTW distance: ``"euclidean"`` (the
        paper's, default) or ``"manhattan"``.  The envelope transform
        must be sound under the chosen metric (the default New_PAA is
        built accordingly).
    dtw_backend:
        DTW kernel backend used for exact refinement (see
        :mod:`repro.dtw.kernels`): ``"vectorized"`` (default) or
        ``"scalar"``.  A pure serving knob — results are identical —
        and reassignable after construction (``index.dtw_backend =
        "scalar"``).
    shards:
        Default worker-**process** count for the sharded serving tier:
        :meth:`repro.serve.QBHService.from_index` reads it when its own
        ``shards=`` is not given, partitioning the corpus across that
        many processes (:class:`~repro.shard.ShardRouter`).  ``None``
        or ``1`` serves in-process.  A pure serving knob — answers are
        byte-identical either way — and round-tripped by
        :mod:`repro.persistence`, so a saved sharded deployment comes
        back sharded.
    obs:
        An :class:`~repro.obs.Observability` facade.  Attaches to the
        R*-tree/grid query paths (``index.*`` metrics, ``query`` spans)
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
        index_kind: str = "rstar",
        capacity: int = 50,
        ids: Sequence | None = None,
        metric: str = "euclidean",
        dtw_backend: str | None = None,
        shards: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.obs = OBS_DISABLED if obs is None else obs
        if index_kind not in _INDEX_KINDS:
            raise ValueError(
                f"index_kind must be one of {_INDEX_KINDS}, got {index_kind!r}"
            )
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(
                f"metric must be 'euclidean' or 'manhattan', got {metric!r}"
            )
        if not len(database):
            raise ValueError("database must not be empty")
        backend = DEFAULT_BACKEND if dtw_backend is None else dtw_backend
        get_kernel(backend)  # validate the name now, not at query time
        self.dtw_backend = backend
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        #: Monotonic mutation counter: bumped exactly once by every
        #: public mutator (``insert`` / ``remove`` /
        #: ``swap_generation``).  The serving layer's result cache keys
        #: entries by this version, so any index mutation invalidates
        #: stale answers without the cache having to subscribe to
        #: anything.
        self.mutations = 0
        #: Store-generation counter (0 for in-memory indexes; tracks
        #: :attr:`store`'s generation for store-backed ones).
        self.generation = 0
        self._store = None
        self._feature_margin = 0.0
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
        self._data = np.vstack(
            [self.normal_form.apply(series) for series in database]
        )
        features = self.env_transform.transform.transform_batch(self._data)
        self._features = features
        if index_kind == "rstar":
            self._index = RStarTree.bulk_load(features, ids, capacity=capacity)
        elif index_kind == "grid":
            self._index = GridFile(features, ids)
        elif index_kind == "cluster":
            self._index = ClusterIndex(features, ids)
        else:
            self._index = LinearScan(features, ids, capacity=capacity)
        self.index_kind = index_kind
        self._capacity = capacity

    @classmethod
    def from_store(cls, store, *, index_kind: str = "rstar",
                   capacity: int | None = None,
                   dtw_backend: str | None = None,
                   shards: int | None = None,
                   obs: Observability | None = None) -> "WarpingIndex":
        """Open a columnar-store generation as a live index.

        The corpus stays in the store's memory-mapped float32 columns
        (no float64 copy); the feature index is STR-bulk-loaded from
        the stored feature column.  Because stored features are float32
        quantizations of the exact float64 features, index-level range
        searches are inflated by a slack derived from the manifest's
        ``feature_margin`` — results stay exact (zero false negatives)
        with respect to the stored corpus.  Refinement always runs in
        float64 (the DTW kernels upcast).
        """
        from ..ingest.builder import transform_from_config

        manifest = store.manifest
        if manifest.kind != "melody":
            raise ValueError(
                f"store kind {manifest.kind!r} is not a melody store "
                f"(use SubsequenceIndex.from_store)"
            )
        self = cls.__new__(cls)
        self.obs = OBS_DISABLED if obs is None else obs
        if index_kind not in _INDEX_KINDS:
            raise ValueError(
                f"index_kind must be one of {_INDEX_KINDS}, got {index_kind!r}"
            )
        backend = DEFAULT_BACKEND if dtw_backend is None else dtw_backend
        get_kernel(backend)
        self.dtw_backend = backend
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.mutations = 0
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
        self.index_kind = index_kind
        self._capacity = (int(cfg.get("capacity", 50)) if capacity is None
                          else capacity)
        self._engines = {}
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

    def _store_state(self, store) -> dict:
        """Build every corpus-dependent object for a generation.

        Pure construction — nothing on ``self`` is touched, so
        :meth:`swap_generation` can assemble the new generation's state
        while queries keep running against the old one.
        """
        manifest = store.manifest
        if (manifest.kind != "melody"
                or manifest.normal_length != self.normal_length
                or manifest.n_features != self.env_transform.output_dim
                or manifest.metric != self.metric):
            raise ValueError(
                f"generation {store.generation} is schema-incompatible "
                f"with this index (kind={manifest.kind!r}, "
                f"n={manifest.normal_length}, d={manifest.n_features}, "
                f"metric={manifest.metric!r})"
            )
        ids = store.ids
        id_to_row = {item_id: row for row, item_id in enumerate(ids)}
        if len(id_to_row) != len(ids):
            raise ValueError("store ids must be unique")
        data = store.normalized
        features = store.features
        if self.index_kind == "rstar":
            index = RStarTree.bulk_load(features, ids,
                                        capacity=self._capacity)
        elif self.index_kind == "grid":
            index = GridFile(features, ids)
        elif self.index_kind == "cluster":
            index = ClusterIndex(features, ids)
        else:
            index = LinearScan(features, ids, capacity=self._capacity)
        margin = store.feature_margin
        return {
            "ids": ids,
            "_id_to_row": id_to_row,
            "_data": data,
            "_features": features,
            "_index": index,
            "_store": store,
            "generation": store.generation,
            "_feature_margin": margin,
            "_lb_slack": self._slack_for(margin,
                                         self.env_transform.output_dim,
                                         self.metric),
        }

    def swap_generation(self, store) -> None:
        """Atomically swap in a new store generation (zero downtime).

        Everything corpus-dependent — arrays, id maps, the bulk-loaded
        feature index — is built *first* from the new generation while
        queries keep reading the old references; then the references
        are rebound (plain attribute stores, atomic under the GIL) and
        ``mutations`` is bumped **exactly once, last**, so versioned
        result caches and the sharded tier's ``(mutations, epoch)``
        key invalidate exactly once per swap.  In-flight queries that
        captured the old arrays finish correctly against the old
        generation.
        """
        if self._store is None:
            raise ValueError(
                "swap_generation requires a store-backed index "
                "(build it with WarpingIndex.from_store)"
            )
        state = self._store_state(store)
        state["_engines"] = {}
        for name, value in state.items():
            setattr(self, name, value)
        self.mutations += 1

    def __len__(self) -> int:
        return self._data.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.env_transform.output_dim

    def normalized(self, item_id) -> np.ndarray:
        """The stored normal form of a database series (float64 view)."""
        return np.asarray(self._data[self._id_to_row[item_id]],
                          dtype=np.float64)

    def insert(self, series, item_id) -> None:
        """Add one series to the index (dynamic maintenance).

        The R*-tree backend uses the R* insertion algorithm (forced
        reinsertion and all); grid file and linear scan append.
        """
        if item_id in self._id_to_row:
            raise ValueError(f"id {item_id!r} already present")
        normal = self.normal_form.apply(series)
        if self._data.dtype == np.float32:
            # Store-backed corpus: quantize first, then feature-extract
            # from the quantized row (same pipeline as the streaming
            # builder) so the stored margin keeps covering every row.
            normal = normal.astype(np.float32)
            exact = self.env_transform.transform.transform(
                np.asarray(normal, dtype=np.float64)
            )
            features = exact.astype(np.float32)
            self._feature_margin = max(
                self._feature_margin,
                float(np.abs(exact - features).max()),
            )
            self._lb_slack = self._slack_for(
                self._feature_margin, self.feature_dim, self.metric
            )
        else:
            features = self.env_transform.transform.transform(normal)
        self._index.insert(features, item_id)
        self._id_to_row[item_id] = self._data.shape[0]
        self._data = np.vstack([self._data, normal])
        self._features = np.vstack([self._features, features])
        self.ids.append(item_id)
        self._engines.clear()
        self.mutations += 1

    def remove(self, item_id) -> None:
        """Remove one series from the index.

        Raises ``KeyError`` for unknown ids.
        """
        if item_id not in self._id_to_row:
            raise KeyError(f"id {item_id!r} not in the index")
        row = self._id_to_row[item_id]
        removed = self._index.delete(self._features[row], item_id)
        if not removed:  # pragma: no cover - indexes stay in sync
            raise RuntimeError(f"index backend lost id {item_id!r}")
        self._data = np.delete(self._data, row, axis=0)
        self._features = np.delete(self._features, row, axis=0)
        self.ids.pop(row)
        self._id_to_row = {iid: r for r, iid in enumerate(self.ids)}
        self._engines.clear()
        self.mutations += 1

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
        self._index.reset_stats()
        candidates = self._index.range_search(
            rect_lower, rect_upper, epsilon + self._lb_slack,
            metric=self.metric
        )
        stats = QueryStats(
            candidates=len(candidates), page_accesses=self._index.page_accesses
        )
        return candidates, stats

    def range_query(
        self, query, epsilon: float, *, second_filter: bool = True
    ) -> tuple[list[tuple[object, float]], QueryStats]:
        """All series with DTW distance at most *epsilon* from *query*.

        Returns ``(results, stats)`` where results are ``(id, distance)``
        pairs sorted by distance.  Theorem 1 guarantees the candidate
        set contains every true answer, so the result is exact.

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
        self._index.reset_stats()
        candidates = self._index.range_search(
            rect_lower, rect_upper, epsilon + self._lb_slack,
            metric=self.metric
        )
        stats = QueryStats(
            candidates=len(candidates), page_accesses=self._index.page_accesses
        )
        results = []
        if candidates:
            rows = [self._id_to_row[item_id] for item_id in candidates]
            survivors = candidates
            if second_filter:
                # Second filter (paper §5.2): the unreduced envelope
                # bound, vectorised over the candidate matrix.
                data = self._data[rows]
                above = np.maximum(data - q_envelope.upper, 0.0)
                below = np.maximum(q_envelope.lower - data, 0.0)
                if self.metric == "manhattan":
                    lb = np.sum(above + below, axis=1)
                else:
                    lb = np.sqrt(np.sum(above * above + below * below, axis=1))
                keep = lb <= epsilon
                stats.extra["second_filter_pruned"] = int(np.sum(~keep))
                survivors = [c for c, flag in zip(candidates, keep) if flag]
                rows = [r for r, flag in zip(rows, keep) if flag]
            if survivors:
                dists = ldtw_distance_batch(q, self._data[rows], self.band,
                                            metric=self.metric,
                                            upper_bound=epsilon,
                                            backend=self.dtw_backend)
                stats.dtw_computations = len(survivors)
                results = [
                    (item_id, float(dist))
                    for item_id, dist in zip(survivors, dists)
                    if dist <= epsilon
                ]
        results.sort(key=lambda pair: pair[1])
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
        which point no unexamined series can enter the answer.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        started = monotonic_s()
        q, rect_lower, rect_upper, q_envelope = self._query_rectangle(query)
        self._index.reset_stats()
        stats = QueryStats()
        best: list[tuple[float, object]] = []  # max-heap via negated dist
        refine = ldtw_refiner(q, self.band, metric=self.metric,
                              backend=self.dtw_backend)
        import heapq

        for lower_bound, item_id in self._index.nearest(
            rect_lower, rect_upper, metric=self.metric
        ):
            # _lb_slack deflates bounds computed from float32-stored
            # features so the Seidl-Kriegel cutoff stays sound.
            if len(best) == k and lower_bound - self._lb_slack > -best[0][0]:
                break
            stats.candidates += 1
            row = self._id_to_row[item_id]
            cutoff = -best[0][0] if len(best) == k else None
            if cutoff is not None:
                # Second filter (paper §5.2): O(n) full-dimension
                # envelope bound before the O(kn) exact DTW.
                lb_full = envelope_distance(self._data[row], q_envelope,
                                            metric=self.metric)
                if lb_full > cutoff:
                    stats.extra["second_filter_pruned"] = (
                        stats.extra.get("second_filter_pruned", 0) + 1
                    )
                    continue
            dist = refine(self._data[row], cutoff)
            stats.dtw_computations += 1
            if not math.isfinite(dist):
                continue
            if len(best) < k:
                heapq.heappush(best, (-dist, item_id))
            elif dist < -best[0][0]:
                heapq.heapreplace(best, (-dist, item_id))
        stats.page_accesses = self._index.page_accesses
        results = sorted(((item, -negd) for negd, item in best), key=lambda p: p[1])
        stats.results = len(results)
        self.obs.record_index_query("knn", stats, monotonic_s() - started)
        return [(item, dist) for item, dist in results], stats

    def set_observability(self, obs: Observability | None) -> None:
        """Attach (or detach, with ``None``) an observability facade.

        Takes effect immediately for the index query paths *and* every
        already-cached cascade engine, so a facade can be attached to a
        long-lived index without rebuilding anything.
        """
        self.obs = OBS_DISABLED if obs is None else obs
        for engine in self._engines.values():
            engine.obs = self.obs

    def engine(self, *, stages=None, dtw_backend=None):
        """The batched filter-cascade engine over this index's corpus.

        Lazily built (and cached per stage configuration and DTW
        backend) from the stored normal forms; ``insert``/``remove``
        invalidate the cache.  The engine is the vectorised hot path:
        it evaluates the whole corpus through cheap-to-tight
        lower-bound stages before any exact DTW, and reports per-stage
        pruning counters.
        """
        from ..engine import DEFAULT_STAGES, QueryEngine

        backend = self.dtw_backend if dtw_backend is None else dtw_backend
        key = (DEFAULT_STAGES if stages is None else tuple(stages), backend)
        if key not in self._engines:
            self._engines[key] = QueryEngine(
                self._data,
                band=self.band,
                stages=key[0],
                n_features=self.feature_dim,
                ids=list(self.ids),
                metric=self.metric,
                dtw_backend=backend,
                obs=self.obs,
            )
        return self._engines[key]

    def cascade_range_query(self, query, epsilon: float, *, stages=None,
                            dtw_backend=None):
        """Exact ε-range query through the filter cascade.

        Same answer as :meth:`range_query` (both are exact), but
        evaluated with the vectorised engine; returns ``(results,
        CascadeStats)`` with per-stage pruning counters instead of the
        flat :class:`~repro.index.stats.QueryStats`.
        """
        return self.engine(stages=stages, dtw_backend=dtw_backend).range_search(
            self.normal_form.apply(query), epsilon
        )

    def cascade_knn_query(self, query, k: int, *, stages=None,
                          dtw_backend=None):
        """Exact k-NN query through the filter cascade.

        Same answer as :meth:`knn_query`, evaluated with the
        vectorised engine (best-first refinement with early-abandoning
        DTW); returns ``(results, CascadeStats)``.
        """
        return self.engine(stages=stages, dtw_backend=dtw_backend).knn(
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
        if item_id not in self._id_to_row:
            raise KeyError(f"id {item_id!r} not in the index")
        q, rect_lower, rect_upper, q_envelope = self._query_rectangle(query)
        row = self._id_to_row[item_id]
        feats = self._features[row]
        gap = np.maximum(rect_lower - feats, 0.0) + np.maximum(
            feats - rect_upper, 0.0
        )
        if self.metric == "manhattan":
            feature_lb = float(np.sum(gap))
        else:
            feature_lb = float(np.sqrt(np.dot(gap, gap)))
        envelope_lb = envelope_distance(self._data[row], q_envelope,
                                        metric=self.metric)
        exact = ldtw_distance(q, self._data[row], self.band,
                              metric=self.metric, backend=self.dtw_backend)
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
        q = self.normal_form.apply(query)
        dists = ldtw_distance_batch(q, self._data, self.band,
                                    metric=self.metric,
                                    backend=self.dtw_backend)
        results = [
            (item_id, float(dist))
            for item_id, dist in zip(self.ids, dists)
            if dist <= epsilon
        ]
        results.sort(key=lambda pair: pair[1])
        return results

    def ground_truth_knn(self, query, k: int) -> list[tuple[object, float]]:
        """Exact k-NN by scanning every series (test oracle)."""
        q = self.normal_form.apply(query)
        dists = ldtw_distance_batch(q, self._data, self.band,
                                    metric=self.metric,
                                    backend=self.dtw_backend)
        ranked = sorted(zip(self.ids, map(float, dists)), key=lambda p: p[1])
        return ranked[:k]
