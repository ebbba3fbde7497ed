"""Columnar store: writer/reader round trips, generations, integrity."""

import json
import os
import re

import numpy as np
import pytest

from repro.core.envelope_transforms import frame_means
from repro.core.transforms import PAATransform
from repro.dtw import kernels
from repro.store import (
    FORMAT_VERSION,
    CorpusStore,
    GenerationWriter,
    StoreError,
    activate_generation,
    current_generation,
    file_sha256,
    generation_dirname,
    list_generations,
    prune_generations,
)
from tests.conftest import bodies, body


def _chunk(rows, n=16, d=4, seed=0):
    rng = np.random.default_rng(seed)
    normalized = rng.normal(size=(rows, n)).astype(np.float32)
    features = rng.normal(size=(rows, d)).astype(np.float32)
    env_lower = normalized - 1.0
    env_upper = normalized + 1.0
    return normalized, features, env_lower, env_upper


def _write_generation(root, generation=0, rows=10, seed=0, *,
                      inherit_from=None, ids=None, activate=True):
    writer = GenerationWriter(
        root, generation, normal_length=16, n_features=4,
        metric="euclidean", inherit_from=inherit_from,
    )
    chunk = _chunk(rows, seed=seed)
    base = len(writer._ids)
    writer.append(*chunk, ids=ids if ids is not None
                  else [f"g{generation}-{base + i}" for i in range(rows)])
    store = writer.seal(feature_margin=1e-7)
    if activate:
        activate_generation(root, generation)
    return store, chunk


def test_round_trip_and_verify(tmp_path):
    root = str(tmp_path)
    store, chunk = _write_generation(root, rows=12)
    assert store.rows == 12
    np.testing.assert_array_equal(np.asarray(store.normalized), chunk[0])
    np.testing.assert_array_equal(np.asarray(store.features), chunk[1])
    assert store.feature_margin == pytest.approx(1e-7)
    store.verify()
    # reopened via CURRENT
    again = CorpusStore.open(root)
    assert again.generation == 0
    assert list(again.ids) == list(store.ids)


def test_checksum_corruption_detected(tmp_path):
    root = str(tmp_path)
    store, _ = _write_generation(root, rows=6)
    target = os.path.join(store.directory, store.manifest.segments[0]
                          .files["features"]["file"])
    with open(target, "r+b") as handle:
        handle.seek(0)
        handle.write(b"\xff\xff\xff\xff")
    with pytest.raises(StoreError, match="checksum"):
        CorpusStore.open(root).verify()


def test_generation_lifecycle_and_prune(tmp_path):
    root = str(tmp_path)
    base, _ = _write_generation(root, 0, rows=5)
    for generation in (1, 2, 3):
        base, _ = _write_generation(root, generation, rows=3,
                                    seed=generation, inherit_from=base)
    assert list_generations(root) == [0, 1, 2, 3]
    assert current_generation(root) == 3
    removed = prune_generations(root, keep=2)
    assert removed == [0, 1]
    assert list_generations(root) == [2, 3]
    # CURRENT is never pruned, even with keep=1 pointing elsewhere
    activate_generation(root, 2)
    removed = prune_generations(root, keep=1)
    assert 2 not in removed
    assert current_generation(root) == 2


def test_inheritance_hard_links_and_rows(tmp_path):
    root = str(tmp_path)
    base, _ = _write_generation(root, 0, rows=8)
    child, _ = _write_generation(root, 1, rows=4, seed=1,
                                 inherit_from=base)
    assert child.rows == 12
    assert len(child.ids) == 12
    # inherited segment files share inodes (O(new rows) bytes written)
    name = base.manifest.segments[0].files["normalized"]["file"]
    src = os.stat(os.path.join(base.directory, name))
    dst = os.stat(os.path.join(child.directory, name))
    assert src.st_ino == dst.st_ino
    child.verify()
    # first 8 rows are byte-identical to the base generation
    np.testing.assert_array_equal(
        np.asarray(child.normalized)[:8], np.asarray(base.normalized)
    )


def test_duplicate_ids_rejected_across_generations(tmp_path):
    root = str(tmp_path)
    base, _ = _write_generation(root, 0, rows=4)
    writer = GenerationWriter(
        root, 1, normal_length=16, n_features=4, metric="euclidean",
        inherit_from=base,
    )
    with pytest.raises(StoreError, match="duplicate id"):
        writer.add_ids([base.ids[0]])


def test_schema_mismatch_refuses_inherit(tmp_path):
    root = str(tmp_path)
    base, _ = _write_generation(root, 0, rows=4)
    with pytest.raises(StoreError, match="schema mismatch"):
        GenerationWriter(root, 1, normal_length=32, n_features=4,
                         metric="euclidean", inherit_from=base)


def test_unsealed_leftovers_reclaimed_sealed_collision_raises(tmp_path):
    root = str(tmp_path)
    _write_generation(root, 0, rows=4)
    # a writer that dies before seal leaves a manifest-less directory
    GenerationWriter(root, 1, normal_length=16, n_features=4,
                     metric="euclidean")
    assert os.path.isdir(os.path.join(root, generation_dirname(1)))
    assert list_generations(root) == [0]  # not listed: no manifest
    # a fresh writer reclaims the garbage and can seal normally
    store, _ = _write_generation(root, 1, rows=3, seed=7)
    store.verify()
    # but a *sealed* generation is immutable — colliding is an error
    with pytest.raises(StoreError, match="already exists"):
        GenerationWriter(root, 1, normal_length=16, n_features=4,
                         metric="euclidean")


def test_activation_is_atomic_pointer_swap(tmp_path):
    root = str(tmp_path)
    _write_generation(root, 0, rows=4)
    _write_generation(root, 1, rows=4, seed=1, activate=False)
    assert current_generation(root) == 0
    activate_generation(root, 1)
    assert current_generation(root) == 1
    with pytest.raises(StoreError):
        activate_generation(root, 9)  # no such sealed generation


def test_manifest_config_round_trip(tmp_path):
    root = str(tmp_path)
    writer = GenerationWriter(
        root, 0, normal_length=16, n_features=4, metric="euclidean",
        config={"delta": 0.25, "custom": [1, 2]},
    )
    writer.append(*_chunk(3), ids=["a", "b", "c"])
    store = writer.seal(feature_margin=0.0, extra_config={"extra": True})
    cfg = CorpusStore.open(root, generation=0).manifest.config
    assert cfg["delta"] == 0.25
    assert cfg["custom"] == [1, 2]
    assert cfg["extra"] is True


def test_verify_catches_envelope_violation(tmp_path):
    root = str(tmp_path)
    writer = GenerationWriter(
        root, 0, normal_length=16, n_features=4, metric="euclidean",
    )
    normalized, features, env_lower, env_upper = _chunk(3)
    env_lower = normalized + 0.5  # lower bound above the data: invalid
    writer.append(normalized, features, env_lower, env_upper,
                  ids=["a", "b", "c"])
    writer.seal()
    with pytest.raises(StoreError, match="envelope"):
        CorpusStore.open(root, generation=0).verify()


def test_env_paa_column_brackets_the_envelope_frame_means(tmp_path):
    """The writer derives ``env_paa`` from the envelope columns: per row
    the frame means of the lower side rounded down, then of the upper
    side rounded up, at min(2 n_features, normal_length) frames."""
    store, chunk = _write_generation(str(tmp_path), rows=5)
    _, _, env_lower, env_upper = chunk
    paa = np.asarray(store.env_paa)
    assert paa.dtype == np.float32 and paa.shape == (5, 16)
    lower_means = env_lower.astype(np.float64).reshape(5, 8, 2).mean(axis=2)
    upper_means = env_upper.astype(np.float64).reshape(5, 8, 2).mean(axis=2)
    assert np.all(paa[:, :8] <= lower_means)
    assert np.all(upper_means <= paa[:, 8:])
    np.testing.assert_allclose(paa[:, :8], lower_means, rtol=1e-6)
    np.testing.assert_allclose(paa[:, 8:], upper_means, rtol=1e-6)


def test_verify_catches_env_paa_that_does_not_bracket(tmp_path):
    """A column whose lower half exceeds a frame mean fails verify, even
    with its checksum rewritten to match, on the native frame means and
    on NumPy's; the column as written passes on both."""
    root = str(tmp_path)
    store, _ = _write_generation(root, rows=4)
    for name in bodies():
        with body(name):
            assert store.verify(raise_on_error=False) == []
    (segment,) = store.manifest.segments
    entry = segment.files["env_paa"]
    path = os.path.join(store.directory, entry["file"])
    paa = np.fromfile(path, dtype=np.float32).reshape(4, 16)
    paa[2, 3] = np.nextafter(paa[2, 3], np.float32(np.inf)) + 1e-3
    paa.tofile(path)
    manifest = os.path.join(store.directory, "manifest.json")
    with open(manifest) as handle:
        payload = json.load(handle)
    payload["segments"][0]["files"]["env_paa"]["sha256"] = file_sha256(path)
    with open(manifest, "w") as handle:
        json.dump(payload, handle)
    for name in bodies():
        with body(name):
            errors = CorpusStore.open(root).verify(raise_on_error=False)
            assert errors == ["env_paa column does not bracket the frame "
                              "means of the envelope columns"]


@pytest.mark.parametrize("n, frames", [(128, 16), (100, 16), (37, 5),
                                       (300, 16), (600, 2)])
def test_native_frame_means_are_numpys_bit_for_bit(n, frames):
    """The native frame means ``verify`` reads equal :func:`frame_means`
    over the float64 rows exactly — frames of fewer than 9, up to 129
    and over 129 values alike — so both find the same rows bracketed."""
    library = kernels.native_library()
    if library is None:
        pytest.skip("no native build on this host (no C compiler)")
    rng = np.random.default_rng(n)
    rows = (rng.normal(size=(50, n))
            * 10.0 ** rng.uniform(-8, 8, size=(50, n))).astype(np.float32)
    bounds = PAATransform(n, frames).frame_bounds.astype(np.int64)
    out = np.empty((50, frames))
    library.frame_means_f32(rows.ctypes.data, 50, n, bounds.ctypes.data,
                            frames, out.ctypes.data)
    assert np.array_equal(out, frame_means(rows, frames))


def test_malformed_current_pointer(tmp_path):
    root = str(tmp_path)
    _write_generation(root, 0, rows=2)
    with open(os.path.join(root, "CURRENT"), "w") as handle:
        handle.write("nonsense")
    with pytest.raises(StoreError, match="CURRENT"):
        current_generation(root)


def test_ids_file_written_and_loaded(tmp_path):
    root = str(tmp_path)
    store, _ = _write_generation(root, 0, rows=3,
                                 ids=["x", 7, ["compound", 1]])
    with open(os.path.join(store.directory, store.manifest.ids_file)) as fh:
        assert json.load(fh) == ["x", 7, ["compound", 1]]
    assert list(CorpusStore.open(root).ids) == ["x", 7, ["compound", 1]]


def _version1(payload):
    """The parent format: a ``kind`` field and a per-row ``meta`` column."""
    payload = dict(payload, format_version=1, kind="melody")
    payload["columns"] = dict(payload["columns"],
                              meta={"dtype": "int64", "cols": 3})
    return json.dumps(payload)


def _version2(payload):
    """The parent format: no ``env_paa`` column."""
    payload = dict(payload, format_version=2)
    payload["columns"] = {name: spec for name, spec
                          in payload["columns"].items() if name != "env_paa"}
    return json.dumps(payload)


@pytest.mark.parametrize("rewrite, message", [
    (lambda payload: json.dumps(dict(payload, format_version=0)),
     "rebuild the store with `repro ingest`"),
    (_version1, "rebuild the store with `repro ingest`"),
    (_version2, "rebuild the store with `repro ingest`"),
    (lambda payload: json.dumps(payload)[:40], "bad manifest"),
    (lambda payload: json.dumps({"format_version": FORMAT_VERSION}),
     "bad manifest: missing field 'generation'"),
    (lambda payload: json.dumps([payload]), "not a JSON object"),
], ids=["version-0", "version-1", "version-2", "truncated", "missing-keys",
        "not-object"])
def test_bad_manifest_is_a_store_error(tmp_path, rewrite, message):
    """A manifest the reader cannot use raises StoreError naming the
    generation directory, never a bare parse or lookup error."""
    root = str(tmp_path)
    store, _ = _write_generation(root, 0, rows=3)
    path = os.path.join(store.directory, "manifest.json")
    with open(path) as handle:
        payload = json.load(handle)
    with open(path, "w") as handle:
        handle.write(rewrite(payload))
    with pytest.raises(StoreError, match=re.escape(message)) as exc_info:
        CorpusStore.open(root)
    assert generation_dirname(0) in str(exc_info.value)


def test_seal_refuses_an_id_count_unlike_the_row_count(tmp_path):
    """One id per row is checked when a generation is sealed, so no
    index ever opens a generation that breaks it."""
    root = str(tmp_path)
    writer = GenerationWriter(root, 0, normal_length=16, n_features=4,
                              metric="euclidean")
    writer.append(*_chunk(3), ids=["a", "b"])
    with pytest.raises(StoreError, match="2 ids for 3 rows"):
        writer.seal()
    assert list_generations(root) == []  # no manifest was written


def test_unreadable_ids_file_is_a_store_error(tmp_path):
    root = str(tmp_path)
    store, _ = _write_generation(root, 0, rows=3)
    path = os.path.join(store.directory, store.manifest.ids_file)
    with open(path, "w") as handle:
        handle.write('["g0-0", "g')
    reopened = CorpusStore.open(root)
    with pytest.raises(StoreError, match="ids file unreadable"):
        reopened.ids
    assert any("ids file unreadable" in error
               for error in reopened.verify(raise_on_error=False))
