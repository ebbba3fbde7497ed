"""Persistence: save and load warping indexes and melody corpora.

A :class:`~repro.index.gemini.WarpingIndex` round-trips through a
single ``.npz`` file holding the normalised data matrix, the ids, and
a JSON configuration blob (the envelope-transform spec is serialised
by kind, with an explicit coefficient matrix for custom sign-split
transforms).  Melody corpora round-trip through a directory of
Standard MIDI Files plus a manifest — exercising the MIDI substrate
the way the paper's own database-building step did.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence

import numpy as np

from .core.envelope_transforms import (
    EnvelopeTransform,
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from .core.normal_form import NormalForm
from .core.transforms import LinearTransform
from .index.gemini import WarpingIndex
from .index.subsequence import SubsequenceIndex
from .music.melody import Melody
from .music.midi import MidiFile

__all__ = [
    "save_index",
    "load_index",
    "save_subsequence_index",
    "load_subsequence_index",
    "save_index_to_store",
    "load_index_from_store",
    "load_subsequence_index_from_store",
    "save_corpus",
    "load_corpus",
    "melodies_from_midi_directory",
]

_FORMAT_VERSION = 1


def _transform_spec(env_transform: EnvelopeTransform) -> tuple[dict, np.ndarray | None]:
    """Serialise an envelope transform to (json-able spec, matrix)."""
    n = env_transform.input_length
    if isinstance(env_transform, NewPAAEnvelopeTransform):
        return {"kind": "new_paa", "input_length": n,
                "n_frames": env_transform.output_dim}, None
    if isinstance(env_transform, KeoghPAAEnvelopeTransform):
        return {"kind": "keogh_paa", "input_length": n,
                "n_frames": env_transform.output_dim}, None
    if isinstance(env_transform, SignSplitEnvelopeTransform):
        return {"kind": "sign_split", "input_length": n,
                "name": env_transform.name}, env_transform.transform.matrix.copy()
    raise TypeError(
        f"cannot serialise envelope transform of type "
        f"{type(env_transform).__name__}"
    )


def _transform_from_spec(spec: dict, matrix) -> EnvelopeTransform:
    kind = spec["kind"]
    if kind == "new_paa":
        return NewPAAEnvelopeTransform(spec["input_length"], spec["n_frames"])
    if kind == "keogh_paa":
        return KeoghPAAEnvelopeTransform(spec["input_length"], spec["n_frames"])
    if kind == "sign_split":
        if matrix is None:
            raise ValueError("sign_split spec requires a stored matrix")
        return SignSplitEnvelopeTransform(
            LinearTransform(matrix, name=spec.get("name")), name=spec.get("name")
        )
    raise ValueError(f"unknown envelope transform kind {kind!r}")


def save_index(index: WarpingIndex, path: str | os.PathLike) -> None:
    """Write a warping index to ``path`` (``.npz``).

    The normalised series, ids, and full configuration are stored; the
    multidimensional index itself is rebuilt on load (bulk loading is
    fast and avoids serialising tree internals).
    """
    spec, matrix = _transform_spec(index.env_transform)
    config = {
        "version": _FORMAT_VERSION,
        "delta": index.delta,
        "normal_form": {
            "length": index.normal_form.length,
            "shift": index.normal_form.shift,
            "scale": index.normal_form.scale,
        },
        "index_kind": index.index_kind,
        "env_transform": spec,
        "ids": list(index.ids),
        # Serving knobs: pure performance configuration (results are
        # identical either way), but a restarted service must behave
        # identically to the one that saved the file.
        "dtw_backend": index.dtw_backend,
        "shards": index.shards,
    }
    arrays = {
        "data": index._data,
        "config": np.frombuffer(json.dumps(config).encode(), dtype=np.uint8),
    }
    if matrix is not None:
        arrays["transform_matrix"] = matrix
    np.savez_compressed(path, **arrays)


def load_index(path: str | os.PathLike) -> WarpingIndex:
    """Read a warping index written by :func:`save_index`."""
    with np.load(path) as stored:
        config = json.loads(bytes(stored["config"]).decode())
        if config.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index file version {config.get('version')!r}"
            )
        data = stored["data"]
        matrix = stored["transform_matrix"] if "transform_matrix" in stored else None
    nf_cfg = config["normal_form"]
    ids = config["ids"]
    return WarpingIndex(
        list(data),
        delta=config["delta"],
        env_transform=_transform_from_spec(config["env_transform"], matrix),
        normal_form=NormalForm(
            length=nf_cfg["length"], shift=nf_cfg["shift"], scale=nf_cfg["scale"]
        ),
        index_kind=config["index_kind"],
        ids=ids,
        # Older files (same format version) predate the serving knobs;
        # .get keeps them loadable with the constructor defaults.  Files
        # written by earlier releases may also carry a "workers" key;
        # it is ignored.
        dtw_backend=config.get("dtw_backend"),
        shards=config.get("shards"),
    )


def save_subsequence_index(
    index: SubsequenceIndex, path: str | os.PathLike
) -> None:
    """Write a subsequence index to ``path`` (``.npz``).

    The original sequences (ragged) are stored concatenated with their
    offsets; windows are re-extracted on load, so the file stays small
    and the window index is rebuilt with fast bulk loading.
    """
    spec, matrix = _transform_spec(index.env_transform)
    sequences = index._sequences
    if sequences is None:
        raise ValueError(
            "this index is store-backed (SubsequenceIndex.from_store) and "
            "does not retain raw sequences; its columnar store directory "
            "is already its persistent form"
        )
    flat = np.concatenate(sequences) if sequences else np.zeros(0)
    offsets = np.cumsum([0] + [seq.size for seq in sequences])
    window_lengths = sorted({length for *_, length in index._windows})
    strides = sorted(
        {
            b[1] - a[1]
            for a, b in zip(index._windows, index._windows[1:])
            if a[0] == b[0] and a[2] == b[2] and b[1] > a[1]
        }
    )
    stride = strides[0] if strides else 1
    config = {
        "version": _FORMAT_VERSION,
        "kind": "subsequence",
        "delta": index.delta,
        "normal_form": {
            "length": index.normal_form.length,
            "shift": index.normal_form.shift,
            "scale": index.normal_form.scale,
        },
        "window_lengths": [int(w) for w in window_lengths],
        "stride": int(stride),
        "env_transform": spec,
        "ids": list(index.ids),
    }
    arrays = {
        "flat": flat,
        "offsets": offsets,
        "config": np.frombuffer(json.dumps(config).encode(), dtype=np.uint8),
    }
    if matrix is not None:
        arrays["transform_matrix"] = matrix
    np.savez_compressed(path, **arrays)


def load_subsequence_index(path: str | os.PathLike) -> SubsequenceIndex:
    """Read a subsequence index written by :func:`save_subsequence_index`."""
    with np.load(path) as stored:
        config = json.loads(bytes(stored["config"]).decode())
        if config.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported index file version {config.get('version')!r}"
            )
        if config.get("kind") != "subsequence":
            raise ValueError("not a subsequence index file")
        flat = stored["flat"]
        offsets = stored["offsets"]
        matrix = stored["transform_matrix"] if "transform_matrix" in stored else None
    sequences = [
        flat[offsets[i] : offsets[i + 1]] for i in range(offsets.size - 1)
    ]
    nf_cfg = config["normal_form"]
    return SubsequenceIndex(
        sequences,
        window_lengths=tuple(config["window_lengths"]),
        stride=config["stride"],
        delta=config["delta"],
        env_transform=_transform_from_spec(config["env_transform"], matrix),
        normal_form=NormalForm(
            length=nf_cfg["length"], shift=nf_cfg["shift"], scale=nf_cfg["scale"]
        ),
        ids=config["ids"],
    )


def save_index_to_store(
    index: WarpingIndex,
    root: str | os.PathLike,
    *,
    generation: int | None = None,
    activate: bool = True,
):
    """Write a warping index's corpus as a columnar-store generation.

    Unlike :class:`~repro.ingest.StreamingIndexBuilder` this does *not*
    re-normalise anything: the index's already-normalised rows are
    quantised to float32 and written as-is, with GEMINI features
    recomputed in float64 *from the quantised rows* so the stored
    ``feature_margin`` covers every row (the same soundness contract the
    builder keeps).  The resulting generation round-trips through
    :func:`load_index_from_store` / ``WarpingIndex.from_store``.

    Returns the sealed :class:`~repro.store.CorpusStore`.
    """
    from .core.envelope import warping_width_to_k
    from .ingest.builder import batch_envelope, transform_config
    from .store import GenerationWriter, activate_generation, list_generations

    if generation is None:
        existing = list_generations(root)
        generation = (existing[-1] + 1) if existing else 0
    data32 = np.ascontiguousarray(index._data, dtype=np.float32)
    n = data32.shape[1]
    feats64 = index.env_transform.transform.transform_batch(
        data32.astype(np.float64)
    )
    feats32 = feats64.astype(np.float32)
    margin = float(np.abs(feats64 - feats32).max()) if data32.size else 0.0
    band = warping_width_to_k(index.delta, n)
    env_lower, env_upper = batch_envelope(data32, band)
    meta = np.empty((data32.shape[0], 3), dtype=np.int64)
    meta[:, 0] = np.arange(data32.shape[0])
    meta[:, 1] = 0
    meta[:, 2] = n
    config = {
        "delta": index.delta,
        "normal_form": {
            "length": index.normal_form.length,
            "shift": index.normal_form.shift,
            "scale": index.normal_form.scale,
        },
        "env_transform": transform_config(index.env_transform),
        "capacity": index._capacity,
    }
    writer = GenerationWriter(
        root, generation,
        normal_length=n,
        n_features=feats32.shape[1],
        metric=index.metric,
        kind="melody",
        config=config,
    )
    writer.add_ids(index.ids)
    writer.append(data32, feats32, env_lower, env_upper, meta)
    store = writer.seal(feature_margin=margin)
    if activate:
        activate_generation(root, generation)
    return store


def load_index_from_store(
    root: str | os.PathLike, *, generation: int | None = None, **kwargs
) -> WarpingIndex:
    """Open a store generation as a :class:`WarpingIndex`.

    ``generation=None`` follows the store's ``CURRENT`` pointer;
    keyword arguments pass through to ``WarpingIndex.from_store``
    (``index_kind``, ``dtw_backend``, ``shards``, …).
    """
    from .store import CorpusStore

    store = CorpusStore.open(root, generation=generation)
    return WarpingIndex.from_store(store, **kwargs)


def load_subsequence_index_from_store(
    root: str | os.PathLike, *, generation: int | None = None, **kwargs
) -> SubsequenceIndex:
    """Open a subsequence-kind store generation as a
    :class:`SubsequenceIndex` (kwargs pass through to ``from_store``)."""
    from .store import CorpusStore

    store = CorpusStore.open(root, generation=generation)
    return SubsequenceIndex.from_store(store, **kwargs)


def save_corpus(melodies: Sequence[Melody], directory: str | os.PathLike) -> None:
    """Write melodies as Standard MIDI Files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, melody in enumerate(melodies):
        filename = f"melody_{i:05d}.mid"
        with open(os.path.join(directory, filename), "wb") as handle:
            handle.write(MidiFile.from_melody(melody).to_bytes())
        manifest.append({"file": filename, "name": melody.name})
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump({"version": _FORMAT_VERSION, "melodies": manifest}, handle,
                  indent=2)


def melodies_from_midi_directory(
    directory: str | os.PathLike,
    *,
    on_error: str = "skip",
) -> list[Melody]:
    """Extract one melody per ``.mid``/``.midi`` file of a directory.

    This is the paper's database-building step ("we extracted notes
    from the melody channel of MIDI files we collected from the
    Internet"): files are scanned in sorted order, the busiest channel
    of each is flattened to a monophonic melody, and the file stem
    becomes the melody name.

    Parameters
    ----------
    directory:
        Directory containing MIDI files (non-MIDI files are ignored).
    on_error:
        ``"skip"`` (default) drops unparseable files — Internet MIDI
        is messy; ``"raise"`` propagates the first failure.

    Raises
    ------
    ValueError
        If no melody could be extracted at all, or *on_error* is
        ``"raise"`` and a file fails.
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', got {on_error!r}")
    melodies: list[Melody] = []
    for name in sorted(os.listdir(directory)):
        if not name.lower().endswith((".mid", ".midi")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as handle:
                midi = MidiFile.from_bytes(handle.read())
            melodies.append(midi.to_melody(name=os.path.splitext(name)[0]))
        except ValueError:
            if on_error == "raise":
                raise
    if not melodies:
        raise ValueError(f"no usable MIDI melodies found in {directory}")
    return melodies


def load_corpus(directory: str | os.PathLike) -> list[Melody]:
    """Read a corpus written by :func:`save_corpus`.

    Note: MIDI quantises pitches to integers, so fractional (hummed)
    pitches do not survive the round trip — corpora are score data.
    """
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported corpus version {manifest.get('version')!r}"
        )
    melodies = []
    for entry in manifest["melodies"]:
        with open(os.path.join(directory, entry["file"]), "rb") as handle:
            midi = MidiFile.from_bytes(handle.read())
        melodies.append(midi.to_melody(name=entry["name"]))
    return melodies
