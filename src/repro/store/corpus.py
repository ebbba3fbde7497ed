"""Generation-based columnar store: writers, readers, root helpers.

A store root looks like::

    store/
      CURRENT                 # text file naming the active generation
      gen-000000/
        manifest.json
        ids.json
        seg-000000.normalized.bin
        seg-000000.env_lower.bin
        ...
      gen-000001/             # next generation: links old segments,
        manifest.json         # appends one new segment
        ids.json
        seg-000000.normalized.bin   # hard link into gen-000000's file
        seg-000001.normalized.bin   # the newly ingested rows
        ...

Generations are immutable once their manifest is written.  A new
generation *inherits* the previous generation's segment files by hard
link (falling back to a copy on filesystems without link support), so
an incremental ingest writes O(new rows) bytes, not O(corpus).  The
``CURRENT`` pointer is swapped with ``os.replace`` so a crash mid-swap
leaves the old generation active.
"""

from __future__ import annotations

import json
import os
import shutil
from hashlib import sha256
from typing import Any, Sequence

import numpy as np

from ..core.envelope_transforms import (
    envelope_paa,
    frame_means,
    row_paa_frames,
)
from ..core.transforms import PAATransform
from ..dtw.kernels import native_library
from ..obs.clock import wall_s
from .manifest import (
    COLUMN_SPECS,
    Manifest,
    SegmentMeta,
    file_sha256,
    load_manifest,
    save_manifest,
)

__all__ = [
    "CorpusStore",
    "GenerationWriter",
    "StoreError",
    "activate_generation",
    "current_generation",
    "generation_dirname",
    "init_store",
    "list_generations",
    "prune_generations",
]

_CURRENT = "CURRENT"
#: Rows :meth:`CorpusStore.verify` recomputes frame means for at a time.
_VERIFY_ROWS = 4096
_GEN_PREFIX = "gen-"


class StoreError(RuntimeError):
    """Raised for malformed store roots, manifests, or checksums."""


def generation_dirname(generation: int) -> str:
    return f"{_GEN_PREFIX}{generation:06d}"


def init_store(root: str) -> str:
    """Create a store root directory (idempotent) and return it."""
    os.makedirs(root, exist_ok=True)
    return root


def current_generation(root: str) -> int | None:
    """Generation number named by ``CURRENT``, or ``None`` if unset."""
    path = os.path.join(root, _CURRENT)
    try:
        with open(path) as handle:
            name = handle.read().strip()
    except FileNotFoundError:
        return None
    if not name.startswith(_GEN_PREFIX):
        raise StoreError(f"{path}: malformed CURRENT pointer {name!r}")
    return int(name[len(_GEN_PREFIX):])


def list_generations(root: str) -> list[int]:
    """Sorted generation numbers with a readable manifest."""
    found = []
    try:
        entries = os.listdir(root)
    except FileNotFoundError:
        return []
    for entry in entries:
        if not entry.startswith(_GEN_PREFIX):
            continue
        if os.path.isfile(os.path.join(root, entry, "manifest.json")):
            try:
                found.append(int(entry[len(_GEN_PREFIX):]))
            except ValueError:
                continue
    return sorted(found)


def activate_generation(root: str, generation: int) -> None:
    """Atomically point ``CURRENT`` at *generation* (``os.replace``)."""
    directory = os.path.join(root, generation_dirname(generation))
    if not os.path.isfile(os.path.join(directory, "manifest.json")):
        raise StoreError(
            f"cannot activate generation {generation}: no manifest in "
            f"{directory}"
        )
    path = os.path.join(root, _CURRENT)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(generation_dirname(generation) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def prune_generations(root: str, *, keep: int = 2) -> list[int]:
    """Delete all but the newest *keep* generations (never CURRENT).

    Returns the generation numbers removed.  Hard-linked segment files
    shared with surviving generations keep their inodes alive, so
    pruning only reclaims bytes unique to the pruned generation.
    """
    generations = list_generations(root)
    active = current_generation(root)
    removable = [g for g in generations if g != active]
    keep_from_removable = max(0, keep - (1 if active is not None else 0))
    doomed = (removable[:-keep_from_removable] if keep_from_removable
              else removable)
    for generation in doomed:
        shutil.rmtree(os.path.join(root, generation_dirname(generation)),
                      ignore_errors=True)
    return doomed


def _link_or_copy(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


class GenerationWriter:
    """Streaming writer for one new generation.

    Appends go into exactly one new segment whose column files grow
    chunk by chunk (running SHA-256, no re-read at seal time).  Pass
    ``inherit_from`` to carry a previous generation's segments forward
    by hard link — the incremental-ingest path.

    Usage::

        writer = GenerationWriter(root, generation=1, normal_length=64,
                                  n_features=8, metric="euclidean",
                                  inherit_from=old_store)
        writer.append(normalized, features, env_lower, env_upper,
                      ids=["m-900"])
        store = writer.seal(feature_margin=2e-7)
        activate_generation(root, 1)
    """

    def __init__(self, root: str, generation: int, *,
                 normal_length: int, n_features: int, metric: str,
                 config: dict[str, Any] | None = None,
                 inherit_from: "CorpusStore | None" = None) -> None:
        self.root = init_store(root)
        self.generation = int(generation)
        self.directory = os.path.join(root, generation_dirname(generation))
        if os.path.exists(self.directory):
            if os.path.exists(os.path.join(self.directory, "manifest.json")):
                raise StoreError(
                    f"generation directory already exists: {self.directory}"
                )
            # No manifest: a writer died before sealing.  The
            # manifest-last commit protocol makes the leftovers garbage;
            # reclaim the directory.
            shutil.rmtree(self.directory)
        os.makedirs(self.directory)
        self._normal_length = int(normal_length)
        self._n_features = int(n_features)
        self._paa_frames = row_paa_frames(n_features, normal_length)
        self._metric = metric
        self._config = dict(config or {})
        self._segments: list[SegmentMeta] = []
        self._ids: list[Any] = []
        self._known_ids: set[str] = set()
        self._inherited_rows = 0
        self._inherited_margin = 0.0
        if inherit_from is not None:
            self._inherit(inherit_from)
        self._seg_name = f"seg-{len(self._segments):06d}"
        self._handles: dict[str, Any] = {}
        self._hashers: dict[str, Any] = {}
        self._new_rows = 0
        self._sealed = False

    # -- internals ---------------------------------------------------

    def _inherit(self, store: "CorpusStore") -> None:
        manifest = store.manifest
        if (manifest.normal_length != self._normal_length
                or manifest.n_features != self._n_features
                or manifest.metric != self._metric):
            raise StoreError(
                "cannot inherit: schema mismatch with previous generation "
                f"(normal_length {manifest.normal_length} vs "
                f"{self._normal_length}, n_features {manifest.n_features} "
                f"vs {self._n_features}, metric {manifest.metric!r} vs "
                f"{self._metric!r})"
            )
        for segment in manifest.segments:
            files: dict[str, dict[str, str]] = {}
            for column, entry in segment.files.items():
                src = os.path.join(store.directory, entry["file"])
                dst = os.path.join(self.directory, entry["file"])
                _link_or_copy(src, dst)
                files[column] = dict(entry)
            self._segments.append(SegmentMeta(
                name=segment.name, rows=segment.rows, files=files))
        self._ids = list(store.ids)
        self._known_ids = set(map(repr, self._ids))
        self._inherited_rows = manifest.rows
        self._inherited_margin = manifest.feature_margin

    def _column_path(self, column: str) -> str:
        return os.path.join(self.directory, f"{self._seg_name}.{column}.bin")

    def _write_column(self, column: str, chunk: np.ndarray) -> None:
        dtype, source = COLUMN_SPECS[column]
        width = {"n_features": self._n_features,
                 "env_paa": 2 * self._paa_frames}.get(source,
                                                      self._normal_length)
        data = np.ascontiguousarray(chunk, dtype=np.dtype(dtype))
        if data.ndim != 2 or data.shape[1] != width:
            raise StoreError(
                f"column {column!r} chunk has shape {data.shape}, "
                f"expected (rows, {width})"
            )
        if column not in self._handles:
            self._handles[column] = open(self._column_path(column), "ab")
            self._hashers[column] = sha256()
        raw = data.tobytes()
        self._handles[column].write(raw)
        self._hashers[column].update(raw)

    # -- public API --------------------------------------------------

    @property
    def rows(self) -> int:
        return self._inherited_rows + self._new_rows

    def append(self, normalized: np.ndarray, features: np.ndarray,
               env_lower: np.ndarray, env_upper: np.ndarray, *,
               ids: Sequence[Any] | None = None) -> None:
        """Append one row-aligned chunk to the new segment.

        The ``env_paa`` column is derived here from the chunk's
        envelope columns as stored (float32), so every writer of a
        generation produces it the same way.
        """
        if self._sealed:
            raise StoreError("writer already sealed")
        chunk_rows = int(np.asarray(normalized).shape[0])
        env_lower = np.asarray(env_lower, dtype=np.float32)
        env_upper = np.asarray(env_upper, dtype=np.float32)
        if env_lower.shape != env_upper.shape or env_lower.ndim != 2:
            raise StoreError(
                f"envelope chunks have shapes {env_lower.shape} and "
                f"{env_upper.shape}, expected two equal (rows, "
                f"{self._normal_length})"
            )
        env_paa = envelope_paa(env_lower, env_upper, self._paa_frames)
        for name, chunk in (("normalized", normalized),
                            ("features", features),
                            ("env_lower", env_lower),
                            ("env_upper", env_upper),
                            ("env_paa", env_paa)):
            if int(np.asarray(chunk).shape[0]) != chunk_rows:
                raise StoreError(
                    f"column {name!r} has {np.asarray(chunk).shape[0]} "
                    f"rows, expected {chunk_rows}"
                )
            self._write_column(name, np.asarray(chunk))
        if ids is not None:
            self.add_ids(ids)
        self._new_rows += chunk_rows

    def add_ids(self, ids: Sequence[Any]) -> None:
        """Register row ids (rejects duplicates across generations).

        Ids are row-aligned, one per melody, but may be added
        independently of row chunks; :meth:`seal` checks the counts
        agree.
        """
        if self._sealed:
            raise StoreError("writer already sealed")
        for item in ids:
            key = repr(item)
            if key in self._known_ids:
                raise StoreError(f"duplicate id {item!r} in ingest")
            self._known_ids.add(key)
            self._ids.append(item)

    def seal(self, *, feature_margin: float = 0.0,
             extra_config: dict[str, Any] | None = None) -> "CorpusStore":
        """Flush, checksum, and write the manifest.  Returns a reader.

        Raises :class:`StoreError`, and writes no manifest, when the
        id count differs from the row count.  The generation is *not*
        activated; call :func:`activate_generation` (or let the ingest
        worker do it) once the caller is ready to swap traffic over.
        """
        if self._sealed:
            raise StoreError("writer already sealed")
        self._sealed = True
        files: dict[str, dict[str, str]] = {}
        for column, handle in self._handles.items():
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
            files[column] = {
                "file": f"{self._seg_name}.{column}.bin",
                "sha256": self._hashers[column].hexdigest(),
            }
        if len(self._ids) != self.rows:
            # Unsealed: no manifest is written, so the next writer of
            # this generation reclaims the directory.
            raise StoreError(
                f"{self.directory}: {len(self._ids)} ids for "
                f"{self.rows} rows (one id per row)"
            )
        if self._new_rows:
            missing = set(COLUMN_SPECS) - set(files)
            if missing:
                raise StoreError(f"segment missing columns {sorted(missing)}")
            self._segments.append(SegmentMeta(
                name=self._seg_name, rows=self._new_rows, files=files))
        config = dict(self._config)
        if extra_config:
            config.update(extra_config)
        manifest = Manifest(
            generation=self.generation,
            rows=self.rows,
            normal_length=self._normal_length,
            n_features=self._n_features,
            metric=self._metric,
            feature_margin=max(float(feature_margin),
                               self._inherited_margin),
            created_s=wall_s(),
            segments=self._segments,
            config=config,
        )
        ids_path = os.path.join(self.directory, manifest.ids_file)
        with open(ids_path, "w") as handle:
            json.dump(self._ids, handle)
            handle.flush()
            os.fsync(handle.fileno())
        save_manifest(manifest, self.directory)
        return CorpusStore.open(self.root, generation=self.generation)


class CorpusStore:
    """Read-only view of one generation (memory-mapped columns).

    Single-segment columns are served straight off ``np.memmap``;
    multi-segment columns are concatenated into one contiguous array on
    first access (a one-time O(rows) copy — index builds need
    contiguous inputs anyway).  All column arrays are row-aligned.
    """

    def __init__(self, root: str, generation: int,
                 manifest: Manifest) -> None:
        self.root = root
        self.generation = generation
        self.directory = os.path.join(root, generation_dirname(generation))
        self.manifest = manifest
        self._columns: dict[str, np.ndarray] = {}
        self._ids: list[Any] | None = None

    @classmethod
    def open(cls, root: str, *, generation: int | None = None
             ) -> "CorpusStore":
        if generation is None:
            generation = current_generation(root)
            if generation is None:
                raise StoreError(
                    f"{root}: no CURRENT generation (empty store?)"
                )
        directory = os.path.join(root, generation_dirname(generation))
        try:
            manifest = load_manifest(directory)
        except FileNotFoundError as exc:
            raise StoreError(
                f"{directory}: missing or incomplete generation"
            ) from exc
        except KeyError as exc:
            raise StoreError(
                f"{directory}: bad manifest: missing field {exc}"
            ) from exc
        except (ValueError, TypeError) as exc:
            # ValueError covers JSONDecodeError (a truncated manifest)
            # and an unsupported format version.
            raise StoreError(f"{directory}: bad manifest: {exc}") from exc
        return cls(root, generation, manifest)

    # -- columns -----------------------------------------------------

    def _map_segment(self, segment: SegmentMeta, column: str) -> np.ndarray:
        entry = segment.files[column]
        dtype = np.dtype(COLUMN_SPECS[column][0])
        width = self.manifest.column_width(column)
        path = os.path.join(self.directory, entry["file"])
        expected = segment.rows * width * dtype.itemsize
        actual = os.path.getsize(path)
        if actual != expected:
            raise StoreError(
                f"{path}: size {actual} != expected {expected} "
                f"({segment.rows} rows x {width} x {dtype})"
            )
        if segment.rows == 0:
            return np.empty((0, width), dtype=dtype)
        return np.memmap(path, dtype=dtype, mode="r",
                         shape=(segment.rows, width))

    def column(self, name: str) -> np.ndarray:
        """Row-aligned column array (memmap or concatenated copy)."""
        if name not in COLUMN_SPECS:
            raise StoreError(f"unknown column {name!r}")
        if name not in self._columns:
            parts = [self._map_segment(segment, name)
                     for segment in self.manifest.segments]
            if not parts:
                width = self.manifest.column_width(name)
                dtype = np.dtype(COLUMN_SPECS[name][0])
                array = np.empty((0, width), dtype=dtype)
            elif len(parts) == 1:
                array = parts[0]
            else:
                array = np.concatenate(parts, axis=0)
            if array.shape[0] != self.manifest.rows:
                raise StoreError(
                    f"column {name!r} has {array.shape[0]} rows, "
                    f"manifest says {self.manifest.rows}"
                )
            self._columns[name] = array
        return self._columns[name]

    @property
    def rows(self) -> int:
        return self.manifest.rows

    @property
    def feature_margin(self) -> float:
        return self.manifest.feature_margin

    @property
    def normalized(self) -> np.ndarray:
        return self.column("normalized")

    @property
    def features(self) -> np.ndarray:
        return self.column("features")

    @property
    def env_lower(self) -> np.ndarray:
        return self.column("env_lower")

    @property
    def env_upper(self) -> np.ndarray:
        return self.column("env_upper")

    @property
    def env_paa(self) -> np.ndarray:
        return self.column("env_paa")

    @property
    def ids(self) -> list[Any]:
        if self._ids is None:
            path = os.path.join(self.directory, self.manifest.ids_file)
            try:
                with open(path) as handle:
                    self._ids = json.load(handle)
            except (OSError, ValueError) as exc:
                raise StoreError(f"{path}: ids file unreadable: {exc}"
                                 ) from exc
        return list(self._ids)

    # -- validation --------------------------------------------------

    def _paa_brackets_envelopes(self) -> bool:
        """Whether every ``env_paa`` row holds its envelope's frame
        means between its lower and upper halves (checked in blocks, so
        no corpus-sized float64 array is made)."""
        n = self.manifest.normal_length
        frames = row_paa_frames(self.manifest.n_features, n)
        paa = self.column("env_paa")
        lower, upper = self.env_lower, self.env_upper
        library = native_library()
        bounds = PAATransform(n, frames).frame_bounds.astype(np.int64)

        def means(rows: np.ndarray) -> np.ndarray:
            # The native body sums the float32 rows in float64 in
            # NumPy's order, so its means are frame_means' bit for bit,
            # without the float64 copy.
            if library is None or rows.dtype != np.float32:
                return frame_means(rows, frames)
            rows = np.ascontiguousarray(rows)
            out = np.empty((rows.shape[0], frames))
            library.frame_means_f32(rows.ctypes.data, rows.shape[0], n,
                                    bounds.ctypes.data, frames,
                                    out.ctypes.data)
            return out

        for start in range(0, self.rows, _VERIFY_ROWS):
            block = slice(start, start + _VERIFY_ROWS)
            if not (np.all(paa[block, :frames] <= means(lower[block]))
                    and np.all(means(upper[block]) <= paa[block, frames:])):
                return False
        return True

    def verify(self, *, raise_on_error: bool = True) -> list[str]:
        """Recompute checksums and cross-check shapes.

        Raises :class:`StoreError` listing every problem found (pass
        ``raise_on_error=False`` to get the list back instead — the
        report form the CLI uses).  An empty list means the generation
        is intact.
        """
        errors: list[str] = []
        total = 0
        for segment in self.manifest.segments:
            total += segment.rows
            missing = set(COLUMN_SPECS) - set(segment.files)
            if missing:
                errors.append(
                    f"{segment.name}: missing columns {sorted(missing)}"
                )
            for column, entry in segment.files.items():
                path = os.path.join(self.directory, entry["file"])
                if not os.path.isfile(path):
                    errors.append(f"{segment.name}.{column}: missing file "
                                  f"{entry['file']}")
                    continue
                digest = file_sha256(path)
                if digest != entry["sha256"]:
                    errors.append(
                        f"{segment.name}.{column}: checksum mismatch "
                        f"({digest[:12]}... != {entry['sha256'][:12]}...)"
                    )
        if total != self.manifest.rows:
            errors.append(
                f"segment rows sum to {total}, manifest says "
                f"{self.manifest.rows}"
            )
        try:
            ids = self.ids
        except StoreError as exc:
            errors.append(str(exc))
            ids = []
        if len(ids) != self.manifest.rows:
            errors.append(
                f"store has {len(ids)} ids for {self.manifest.rows} rows"
            )
        if not errors and self.manifest.rows:
            lower, upper = self.env_lower, self.env_upper
            data = self.normalized
            if not (np.all(lower <= data) and np.all(data <= upper)):
                errors.append("envelope columns do not bound the data")
            if not self._paa_brackets_envelopes():
                errors.append("env_paa column does not bracket the "
                              "frame means of the envelope columns")
        if errors and raise_on_error:
            raise StoreError(
                f"generation {self.generation} failed verification: "
                + "; ".join(errors)
            )
        return errors

