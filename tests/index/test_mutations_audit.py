"""Every WarpingIndex mutator bumps ``mutations`` exactly once.

The serve layer's versioned result cache and the sharded tier's
``(mutations, epoch)`` respawn key both trust this counter: a mutator
that forgets to bump it leaves stale cached answers live, and one that
bumps twice respawns shard fleets twice per swap.  This audit pins the
contract for all three mutators — ``insert``, ``remove`` and
``swap_generation`` — along with the engine-cache invalidation that
must ride on the same bump.
"""

import numpy as np
import pytest

from repro.core.normal_form import NormalForm
from repro.index.gemini import WarpingIndex
from repro.ingest import StreamingIndexBuilder


def _walks(count, length=100, seed=3):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=length)) for _ in range(count)]


@pytest.fixture
def index():
    return WarpingIndex(_walks(8), delta=0.1,
                        ids=[f"m{i}" for i in range(8)],
                        normal_form=NormalForm(length=64))


def test_insert_bumps_exactly_once_and_drops_engine_cache(index):
    engine = index.engine()
    before = index.mutations
    index.insert(_walks(1, seed=50)[0], "new")
    assert index.mutations == before + 1
    assert index.engine() is not engine


def test_remove_bumps_exactly_once_and_drops_engine_cache(index):
    engine = index.engine()
    before = index.mutations
    index.remove("m3")
    assert index.mutations == before + 1
    assert index.engine() is not engine


def test_swap_generation_bumps_exactly_once_and_drops_engine_cache(tmp_path):
    root = str(tmp_path / "store")
    builder = StreamingIndexBuilder(root, normal_form=NormalForm(length=64))
    store, _ = builder.build(_walks(8), [f"m{i}" for i in range(8)])
    index = WarpingIndex.from_store(store)
    engine = index.engine()
    before = index.mutations
    next_store, _ = StreamingIndexBuilder.for_store(store).build(
        _walks(2, seed=60), ["x0", "x1"], base=store
    )
    index.swap_generation(next_store)
    assert index.mutations == before + 1
    assert index.engine() is not engine


def test_failed_mutations_leave_the_counter_alone(index):
    before = index.mutations
    with pytest.raises(ValueError):
        index.insert(_walks(1)[0], "m0")  # duplicate id
    with pytest.raises(KeyError):
        index.remove("absent")
    with pytest.raises(ValueError):
        index.swap_generation(None)  # in-memory index has no store
    assert index.mutations == before


def test_no_mutator_escapes_the_audit():
    """Fail loudly if a new public method rebinds corpus state without
    featuring in this audit — the cache contract must be extended with
    it."""
    audited = {"insert", "remove", "swap_generation"}
    corpus_state = {"_data", "_features", "_index", "ids", "_id_to_row"}
    import inspect

    suspects = set()
    for name, member in vars(WarpingIndex).items():
        if name.startswith("__") or not inspect.isfunction(member):
            continue
        source = inspect.getsource(member)
        writes = any(f"self.{attr} =" in source
                     or f"self.{attr}.append" in source
                     or f"self.{attr}.pop" in source
                     for attr in corpus_state)
        if writes and "setattr" not in source:
            suspects.add(name)
    # _store_state is a pure constructor and mutates nothing;
    # _feature_index fills the generation's feature index on first use
    # from that generation's features, so no answer changes.
    helpers = {"_store_state", "_feature_index"}
    unaudited = suspects - audited - helpers
    assert not unaudited, (
        f"methods {sorted(unaudited)} rebind corpus state but are not "
        "covered by the mutations audit"
    )
