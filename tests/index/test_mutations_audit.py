"""A WarpingIndex changes only by ``swap_generation``, which bumps
``generation`` exactly once.

The serve layer's versioned result cache and the sharded tier's
``(generation, epoch)`` respawn key both trust this counter: a swap
that forgets to bump it leaves stale cached answers live, and one that
bumps twice respawns shard fleets twice per swap.  This audit pins the
contract — along with the engine-cache invalidation that must ride on
the same bump — and that no other method rebinds corpus state.
"""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder


def _walks(count, length=100, seed=3):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=length)) for _ in range(count)]


def test_swap_generation_bumps_exactly_once_and_drops_engine_cache(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build(_walks(8), [f"m{i}" for i in range(8)])
    index = WarpingIndex.from_store(store)
    engine = index.engine()
    before = index.generation
    next_store, _ = StreamingIndexBuilder.for_store(store).build(
        _walks(2, seed=60), ["x0", "x1"], base=store
    )
    index.swap_generation(next_store)
    assert index.generation == before + 1
    assert index.engine() is not engine
    # The count is of swaps, not the store's number: a freshly opened
    # index starts at 0 on any store generation.
    assert next_store.generation == 1
    assert WarpingIndex.from_store(next_store).generation == 0


def test_failed_mutations_leave_the_counter_alone(generation_pool, tmp_path):
    in_memory = WarpingIndex(_walks(8), delta=0.1,
                             normal_form=NormalForm(length=64))
    with pytest.raises(ValueError):
        in_memory.swap_generation(generation_pool[0])  # no store
    assert in_memory.generation == 0
    index = WarpingIndex.from_store(generation_pool[0])
    engine = index.engine()
    other, _ = StreamingIndexBuilder(
        str(tmp_path / "other"), normal_form=NormalForm(length=32)
    ).build(_walks(4), [f"m{i}" for i in range(4)])
    with pytest.raises(ValueError, match="schema-incompatible"):
        index.swap_generation(other)
    assert index.generation == 0
    assert index.store is generation_pool[0]
    assert index.engine() is engine


def test_no_mutator_escapes_the_audit():
    """Fail loudly if a public method other than ``swap_generation``
    rebinds corpus state — the cache contract must be extended with
    it."""
    audited = {"swap_generation"}
    corpus_state = {"_data", "_features", "_index", "ids", "_id_to_row",
                    "_engines", "generation"}
    import inspect

    suspects = set()
    for name, member in vars(WarpingIndex).items():
        if name.startswith("__") or not inspect.isfunction(member):
            continue
        source = inspect.getsource(member)
        writes = any(f"self.{attr} =" in source
                     or f"self.{attr} +=" in source
                     or f"self.{attr}.append" in source
                     or f"self.{attr}.pop" in source
                     for attr in corpus_state)
        if writes or "setattr" in source:
            suspects.add(name)
    # from_store opens an index (generation 0); _store_state is a pure
    # constructor and mutates nothing; _snapshot fills the generation's
    # feature index on first use from that generation's features, so
    # no answer changes.
    helpers = {"from_store", "_store_state", "_snapshot"}
    unaudited = suspects - audited - helpers
    assert not unaudited, (
        f"methods {sorted(unaudited)} rebind corpus state but are not "
        "covered by the generation audit"
    )
