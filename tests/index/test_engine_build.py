"""Building a store-backed index's cascade engine: once, and small.

The serving layer runs one dispatcher per CPU, and each may be the
first to ask a fresh generation for its engine; the build must happen
once, not once per racing caller.  And the build over a float32 store
must not make a corpus-sized float64 copy of the rows, which would
stay resident in the allocator arena of whichever thread built it.
"""

import sys
import threading
import time
import tracemalloc

import pytest

import repro.engine
from repro.core.normal_form import NormalForm
from repro.datasets.generators import random_walks
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder

from tests.conftest import run_concurrently

ROWS, LENGTH = 10_000, 128


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A float32 store of 10^4 rows of length 128."""
    root = str(tmp_path_factory.mktemp("engine_build") / "store")
    walks = random_walks(ROWS, LENGTH, seed=3)
    built, _ = StreamingIndexBuilder(
        root, normal_form=NormalForm(length=LENGTH),
    ).build(list(walks), [f"m{i}" for i in range(ROWS)])
    return built


def test_racing_first_callers_build_one_engine(store, monkeypatch):
    builds = []

    class CountedEngine(repro.engine.QueryEngine):
        def __init__(self, *args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.02)  # widen the window a racing caller needs
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(repro.engine, "QueryEngine", CountedEngine)
    index = WarpingIndex.from_store(store)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        engines = run_concurrently(lambda _: index.engine(), range(8),
                                   threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert all(engine is engines[0] for engine in engines)


def test_engine_build_makes_no_corpus_sized_copy(store):
    """A float64 copy of the 10^4 x 128 rows alone is 10.2 MB."""
    index = WarpingIndex.from_store(store)
    tracemalloc.start()
    try:
        index.engine()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
