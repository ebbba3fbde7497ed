"""Picklable engine-construction specs (the factory-args pattern).

A worker process cannot receive a live
:class:`~repro.engine.QueryEngine` — the object graph (corpus matrix,
precomputed PAA features, an observability facade
holding locks) is neither cheap nor safe to pickle, and under the
``spawn`` start method *everything* crossing the process boundary must
pickle.  :class:`EngineSpec` is the construction recipe instead: plain
strings, ints, and id tuples that describe how to *rebuild* one
shard's engine, with the corpus block arriving via a read-only
:func:`numpy.memmap` over a file the router wrote once at startup —
the features are shipped exactly once, never per query, and the OS
page cache shares the physical pages between every worker on the
host regardless of start method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.cascade import DEFAULT_STAGES, QueryEngine

__all__ = ["EngineSpec"]


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to build its shard's query engine.

    The spec is deliberately *data only* so it pickles under any
    ``multiprocessing`` start method (the spawn-context regression
    test in ``tests/shard/`` holds this to account).  ``build()`` maps
    ``[row_start, row_stop)`` of the corpus file and constructs a
    :class:`~repro.engine.QueryEngine` over that block — without a
    normal form, because the router normalises queries exactly once
    before fanning them out (mirroring
    :meth:`repro.index.gemini.WarpingIndex.engine`).
    """

    data_path: str
    dtype: str
    rows: int
    cols: int
    row_start: int
    row_stop: int
    shard: int
    band: int
    stages: tuple = DEFAULT_STAGES
    n_features: int = 8
    ids: tuple = ()
    metric: str = "euclidean"
    dtw_backend: str | None = None

    def build(self) -> QueryEngine:
        """Construct this shard's engine over the mapped corpus block."""
        data = np.memmap(
            self.data_path, dtype=self.dtype, mode="r",
            shape=(self.rows, self.cols),
        )[self.row_start:self.row_stop]
        return QueryEngine(
            data,
            band=self.band,
            stages=self.stages,
            n_features=self.n_features,
            ids=list(self.ids),
            metric=self.metric,
            dtw_backend=self.dtw_backend,
        )
