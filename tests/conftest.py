"""Shared fixtures for the test suite."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dtw.distance import ldtw_distance
from repro.music import generate_corpus, segment_corpus

#: The two DTW kernels, by the name their test cases carry: the
#: single-pair row loop (the reference) and the batch the engine runs.
KERNEL_NAMES = ("vectorized", "scalar")


def run_concurrently(fn, items, threads=8):
    """``[fn(item) for item in items]``, computed by *threads* threads.

    The threads start together behind a barrier and then pull items as
    fast as they finish them, so calls into whatever *fn* shares really
    do overlap.  Results come back in item order; an exception in any
    call propagates.
    """
    items = list(items)
    threads = max(1, min(threads, len(items)))
    barrier = threading.Barrier(threads, timeout=30.0)
    with ThreadPoolExecutor(max_workers=threads,
                            initializer=barrier.wait) as pool:
        return list(pool.map(fn, items))


def exact_answer(engine, query, kernel, *, k=None, epsilon=None):
    """The exact answer to ``engine.search(query, k=k, epsilon=epsilon)``.

    ``"vectorized"`` is ``engine.ground_truth``: one batch-kernel call
    over the whole corpus.  ``"scalar"`` scans the corpus pair by pair
    with the single-pair row loop instead, and orders and cuts the
    answer the same way: by (distance, corpus row), at most *k* rows,
    none farther than *epsilon*.
    """
    if kernel == "vectorized":
        return engine.ground_truth(query, k=k, epsilon=epsilon)
    assert kernel == "scalar", kernel
    q = engine._normalise_query(query)
    dists = np.array([ldtw_distance(q, row, engine.band, metric=engine.metric)
                      for row in engine._data])
    order = np.argsort(dists, kind="stable")
    if epsilon is not None:
        order = order[dists[order] <= epsilon]
    return [(engine.ids[i], float(dists[i])) for i in order[:k]]


@pytest.fixture
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def random_walk_pair(rng):
    """Two zero-mean random walks of length 64."""
    x = np.cumsum(rng.normal(size=64))
    y = np.cumsum(rng.normal(size=64))
    return x - x.mean(), y - y.mean()


@pytest.fixture
def bulk_loads(monkeypatch):
    """Count the R*-tree builds (``RStarTree.bulk_load`` calls)."""
    from repro.index.rstartree import RStarTree

    loads = []
    bulk_load = RStarTree.bulk_load.__func__

    def counted(cls, *args, **kwargs):
        loads.append(1)
        return bulk_load(cls, *args, **kwargs)

    monkeypatch.setattr(RStarTree, "bulk_load", classmethod(counted))
    return loads


@pytest.fixture(scope="session")
def generation_pool(tmp_path_factory):
    """Three schema-compatible store generations, each in its own root.

    Every one is generation 0 of its store.  The first two hold the
    same ids ``m0`` .. ``m23`` over different rows; the third holds
    ``m0`` .. ``m31``, so its ids overlap the others' and its rows
    outnumber theirs.  Swapping a store-backed index among them changes
    its answers without the store numbers telling the generations
    apart.
    """
    from repro.core.normal_form import NormalForm
    from repro.ingest import StreamingIndexBuilder

    pool = []
    for seed, rows in ((1, 24), (2, 24), (3, 32)):
        rng = np.random.default_rng(seed)
        walks = np.cumsum(rng.normal(size=(rows, 80)), axis=1)
        builder = StreamingIndexBuilder(
            str(tmp_path_factory.mktemp(f"pool{seed}")),
            normal_form=NormalForm(length=64))
        store, _ = builder.build(list(walks), [f"m{i}" for i in range(rows)])
        pool.append(store)
    return pool


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic corpus of 10 songs, ~200 melodies."""
    songs = generate_corpus(10, seed=202)
    return segment_corpus(songs, per_song=20, seed=202)
