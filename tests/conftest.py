"""Shared fixtures for the test suite."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.music import generate_corpus, segment_corpus


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


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic corpus of 10 songs, ~200 melodies."""
    songs = generate_corpus(10, seed=202)
    return segment_corpus(songs, per_song=20, seed=202)
