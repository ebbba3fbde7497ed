"""EngineSpec: the picklable factory-args pattern.

A live engine cannot cross a process boundary; the spec is the
construction recipe that can.  These tests pin the two halves of that
contract: the spec pickles under any start method (the ``spawn``
regression test lives here, in a real module file — ``spawn``
re-imports ``__main__``, so it cannot run from a REPL or heredoc), and
``build()`` reconstructs an engine whose answers are byte-identical to
one built directly over the same rows.
"""

import pickle

import numpy as np
import pytest

from repro.datasets.generators import random_walks
from repro.engine import QueryEngine
from repro.serve.loadgen import result_digest
from repro.shard import EngineSpec, ShardRouter
from repro.shard.spec import DEFAULT_STAGES


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    data = np.ascontiguousarray(random_walks(30, 48, seed=71))
    path = tmp_path_factory.mktemp("spec") / "corpus.f64"
    data.tofile(path)
    return str(path), data


def _spec(path, data, **overrides):
    fields = dict(
        data_path=path, dtype="float64",
        rows=data.shape[0], cols=data.shape[1],
        row_start=5, row_stop=20, shard=0, band=4,
        ids=tuple(range(5, 20)),
    )
    fields.update(overrides)
    return EngineSpec(**fields)


class TestPickling:
    def test_round_trips_through_pickle(self, corpus_file):
        path, data = corpus_file
        spec = _spec(path, data, metric="manhattan")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_holds_only_plain_data(self, corpus_file):
        """Every field is data, never a live object — the property that
        makes the spec safe under ``spawn``."""
        path, data = corpus_file
        spec = _spec(path, data)
        for name, value in vars(spec).items():
            if name == "stages":
                continue  # stage tuple: picklable callables, checked below
            assert isinstance(value, (str, int, tuple, type(None))), (
                f"field {name} holds non-plain value {value!r}"
            )
        pickle.dumps(spec.stages)

    def test_defaults_match_engine_defaults(self, corpus_file):
        path, data = corpus_file
        spec = _spec(path, data)
        assert spec.stages == DEFAULT_STAGES


class TestBuild:
    def test_build_is_byte_identical_to_direct_engine(self, corpus_file):
        path, data = corpus_file
        spec = _spec(path, data)
        built = spec.build()
        direct = QueryEngine(data[5:20], band=4, ids=list(range(5, 20)))
        query = data[7] + 0.05
        for kind, param in (("knn", 4), ("range", 6.0)):
            got, _ = getattr(built, kind if kind == "knn" else
                             "range_search")(query, param)
            want, _ = getattr(direct, kind if kind == "knn" else
                              "range_search")(query, param)
            assert result_digest(got) == result_digest(want)

    def test_build_maps_read_only(self, corpus_file):
        path, data = corpus_file
        engine = _spec(path, data).build()
        with pytest.raises((ValueError, RuntimeError)):
            engine._data[0, 0] = 99.0


class TestSpawnContext:
    """The spawn-context regression: everything shipped to a worker
    must pickle, and a spawn-started fleet must answer correctly."""

    def test_router_serves_under_spawn(self):
        data = random_walks(24, 40, seed=72)
        reference = QueryEngine(list(data), delta=0.1)
        query = data[3] + 0.1
        with ShardRouter.from_engine(reference, shards=2,
                                     mp_context="spawn") as router:
            got, stats = router.knn(query, 3)
        want, _ = reference.knn(query, 3)
        assert result_digest(got) == result_digest(want)
        assert stats.corpus_size == len(data)
