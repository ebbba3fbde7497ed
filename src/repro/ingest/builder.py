"""Streaming corpus builder: raw pitch series → columnar store generation.

One pass over the input melodies, chunked so staging buffers never
exceed a configurable memory budget.  Each melody is one row.  Per
chunk: melodies are brought to the normal form in float64, quantized
into a float32 staging buffer, k-envelopes are computed vectorized
over the whole chunk (exact for the stored float32 data — envelope
values are order statistics), GEMINI features are extracted batched in
float64 and quantized to float32 with the maximum absolute quantization
error tracked as the generation's ``feature_margin``, and the chunk is
appended to the generation's segment files (the writer derives the
``env_paa`` column from the envelopes).

Passing ``base=`` builds an *incremental* generation: the previous
generation's segments are inherited by hard link and only the new rows
are written — the path the background ingest worker uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..core.envelope_transforms import (
    EnvelopeTransform,
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
    row_paa_frames,
)
from ..core.envelope import batch_envelope, warping_width_to_k
from ..core.normal_form import NormalForm
from ..core.transforms import LinearTransform
from ..obs import OBS_DISABLED, Observability
from ..obs.clock import monotonic_s
from ..store import CorpusStore, GenerationWriter, activate_generation
from ..store.corpus import StoreError, list_generations

# ``batch_envelope`` lives in ``core.envelope``; ``repro.ingest`` re-exports
# it from here.
__all__ = ["BuildReport", "StreamingIndexBuilder", "batch_envelope",
           "transform_config", "transform_from_config"]


def transform_config(env_transform: EnvelopeTransform) -> dict[str, Any]:
    """JSON-able envelope-transform spec for the store manifest."""
    n = env_transform.input_length
    if isinstance(env_transform, NewPAAEnvelopeTransform):
        return {"kind": "new_paa", "input_length": n,
                "n_frames": env_transform.output_dim}
    if isinstance(env_transform, KeoghPAAEnvelopeTransform):
        return {"kind": "keogh_paa", "input_length": n,
                "n_frames": env_transform.output_dim}
    if isinstance(env_transform, SignSplitEnvelopeTransform):
        return {"kind": "sign_split", "input_length": n,
                "name": env_transform.name,
                "matrix": env_transform.transform.matrix.tolist()}
    raise TypeError(
        f"cannot serialise envelope transform of type "
        f"{type(env_transform).__name__}"
    )


def transform_from_config(spec: dict[str, Any], *,
                          metric: str = "euclidean") -> EnvelopeTransform:
    kind = spec["kind"]
    if kind == "new_paa":
        return NewPAAEnvelopeTransform(spec["input_length"],
                                       spec["n_frames"], metric=metric)
    if kind == "keogh_paa":
        return KeoghPAAEnvelopeTransform(spec["input_length"],
                                         spec["n_frames"], metric=metric)
    if kind == "sign_split":
        matrix = np.asarray(spec["matrix"], dtype=np.float64)
        return SignSplitEnvelopeTransform(
            LinearTransform(matrix, name=spec.get("name")),
            name=spec.get("name"),
        )
    raise ValueError(f"unknown envelope transform kind {kind!r}")


@dataclass
class BuildReport:
    """What one streaming build did (and what it cost)."""

    generation: int
    rows: int
    build_s: float
    rows_per_s: float
    flushes: int
    chunk_rows: int
    peak_buffer_bytes: int
    budget_bytes: int
    feature_margin: float
    activated: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "generation": self.generation,
            "rows": self.rows,
            "build_s": self.build_s,
            "rows_per_s": self.rows_per_s,
            "flushes": self.flushes,
            "chunk_rows": self.chunk_rows,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "budget_bytes": self.budget_bytes,
            "feature_margin": self.feature_margin,
            "activated": self.activated,
        }


@dataclass
class _Chunk:
    """Preallocated float32 staging buffer for one flush unit."""

    normalized: np.ndarray
    fill: int = 0
    peak_bytes: int = field(default=0)


class StreamingIndexBuilder:
    """Build columnar-store generations in one streaming pass.

    Parameters mirror :class:`~repro.index.WarpingIndex` so a store
    built here can be opened by ``WarpingIndex.from_store`` with
    identical query semantics.

    ``memory_budget_mb`` bounds the builder's own staging allocation:
    the chunk size is derived from a deterministic per-row byte account
    (float32 staging columns + the transient float64 arrays of the
    batched feature/normalisation pass), and the resulting
    ``peak_buffer_bytes`` is reported so benchmarks can gate on it.
    """

    def __init__(self, root: str, *, kind: str = "melody",
                 delta: float = 0.1,
                 normal_form: NormalForm | None = None,
                 env_transform: EnvelopeTransform | None = None,
                 n_features: int = 8,
                 metric: str = "euclidean",
                 capacity: int = 50,
                 memory_budget_mb: float = 64.0,
                 obs: Observability | None = None) -> None:
        # Every row is one whole melody; ``kind`` survives only so
        # callers that name it keep working.
        if kind != "melody":
            raise ValueError(f"unknown store kind {kind!r}")
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        if memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be > 0")
        self.root = root
        self.delta = float(delta)
        self.metric = metric
        self.obs = OBS_DISABLED if obs is None else obs
        self.normal_form = normal_form or NormalForm(length=64)
        if self.normal_form.length is None:
            raise ValueError(
                "streaming builds require a fixed normal-form length"
            )
        self.normal_length = self.normal_form.length
        self.env_transform = env_transform or NewPAAEnvelopeTransform(
            self.normal_length, n_features, metric=metric
        )
        if self.env_transform.input_length != self.normal_length:
            raise ValueError(
                "envelope transform length does not match the normal form"
            )
        self.n_features = self.env_transform.output_dim
        self.band = warping_width_to_k(self.delta, self.normal_length)
        self.capacity = int(capacity)
        self.budget_bytes = int(memory_budget_mb * (1 << 20))
        n, d = self.normal_length, self.n_features
        f = row_paa_frames(d, n)
        # Deterministic staging account per buffered row: the float32
        # normalized chunk held across the chunk, plus the transient
        # flush-time arrays (float64 feature matmul input and output,
        # float32 features, the two envelope outputs and the writer's
        # ``env_paa`` column, whose float64 means go 1 024 rows a time).
        self.row_bytes = (
            n * 4                     # normalized f32
            + n * 8 + d * 8 + d * 4   # f64 upcast, f64 feats, f32 feats
            + 2 * n * 4               # envelope outputs
            + 2 * f * 4               # env_paa f32
        )
        self.chunk_rows = max(1, self.budget_bytes // self.row_bytes)

    # -- config round-trip -------------------------------------------

    def store_config(self) -> dict[str, Any]:
        return {
            "delta": self.delta,
            "normal_form": {
                "length": self.normal_form.length,
                "shift": self.normal_form.shift,
                "scale": self.normal_form.scale,
            },
            "env_transform": transform_config(self.env_transform),
            "capacity": self.capacity,
        }

    @classmethod
    def for_store(cls, store: CorpusStore, *,
                  memory_budget_mb: float = 64.0,
                  obs: Observability | None = None
                  ) -> "StreamingIndexBuilder":
        """Builder matching an existing generation's schema."""
        manifest = store.manifest
        cfg = manifest.config
        nf = cfg.get("normal_form", {})
        normal_form = NormalForm(
            length=nf.get("length", manifest.normal_length),
            shift=nf.get("shift", True),
            scale=nf.get("scale", False),
        )
        env_spec = cfg.get("env_transform")
        env_transform = (
            transform_from_config(env_spec, metric=manifest.metric)
            if env_spec else None
        )
        return cls(
            store.root,
            delta=float(cfg.get("delta", 0.1)),
            normal_form=normal_form,
            env_transform=env_transform,
            n_features=manifest.n_features,
            metric=manifest.metric,
            capacity=int(cfg.get("capacity", 50)),
            memory_budget_mb=memory_budget_mb,
            obs=obs,
        )

    # -- the streaming pass ------------------------------------------

    def _flush(self, writer: GenerationWriter, chunk: _Chunk) -> float:
        """Feature-extract and append one staged chunk; returns margin."""
        rows = chunk.fill
        if not rows:
            return 0.0
        data = chunk.normalized[:rows]
        feats64 = self.env_transform.transform.transform_batch(data)
        feats32 = feats64.astype(np.float32)
        margin = float(np.abs(feats64 - feats32).max()) if rows else 0.0
        env_lower, env_upper = batch_envelope(data, self.band)
        writer.append(data, feats32, env_lower, env_upper)
        chunk.fill = 0
        return margin

    def build(self, sequences: Iterable, ids: Iterable | None = None, *,
              base: CorpusStore | None = None,
              generation: int | None = None,
              activate: bool = True) -> tuple[CorpusStore, BuildReport]:
        """Stream *sequences* into a new (optionally incremental) generation.

        *sequences* may be any iterable of 1-D pitch series — it is
        consumed once and never materialised.  *ids* is a parallel
        iterable of ids, one per sequence (defaults to positions offset
        by the base generation's row count).  With *base*, the previous
        generation's segments are inherited and only new rows are
        written.  The sealed generation is activated (``CURRENT``
        swapped) unless ``activate=False``.
        """
        started = monotonic_s()
        if generation is None:
            existing = list_generations(self.root)
            if base is not None:
                generation = max(base.generation + 1,
                                 (existing[-1] + 1) if existing else 0)
            else:
                generation = (existing[-1] + 1) if existing else 0
        writer = GenerationWriter(
            self.root, generation,
            normal_length=self.normal_length,
            n_features=self.n_features,
            metric=self.metric,
            config=self.store_config(),
            inherit_from=base,
        )
        base_rows = base.rows if base is not None else 0
        chunk = _Chunk(
            normalized=np.empty((self.chunk_rows, self.normal_length),
                                dtype=np.float32),
        )
        chunk.peak_bytes = self.chunk_rows * self.row_bytes
        margin = 0.0
        flushes = 0
        id_iter = iter(ids) if ids is not None else None
        with self.obs.span("ingest:build", generation=generation):
            for offset, seq in enumerate(sequences):
                seq = np.asarray(seq, dtype=np.float64)
                if seq.ndim != 1:
                    raise ValueError("sequences must be 1-D arrays")
                if id_iter is not None:
                    try:
                        seq_id = next(id_iter)
                    except StopIteration:
                        raise ValueError(
                            "fewer ids than sequences"
                        ) from None
                else:
                    seq_id = base_rows + offset
                writer.add_ids([seq_id])
                # the float32 quantization of the normal form
                chunk.normalized[chunk.fill] = self.normal_form.apply(seq)
                chunk.fill += 1
                if chunk.fill == self.chunk_rows:
                    margin = max(margin, self._flush(writer, chunk))
                    flushes += 1
            if id_iter is not None and next(id_iter, None) is not None:
                raise ValueError("more ids than sequences")
            if chunk.fill:
                margin = max(margin, self._flush(writer, chunk))
                flushes += 1
            if writer.rows == 0:
                raise StoreError("no rows extracted: no sequences given")
            store = writer.seal(feature_margin=margin)
            if activate:
                activate_generation(self.root, generation)
        build_s = monotonic_s() - started
        new_rows = store.rows - base_rows
        report = BuildReport(
            generation=generation,
            rows=store.rows,
            build_s=build_s,
            rows_per_s=(new_rows / build_s) if build_s > 0 else float("inf"),
            flushes=flushes,
            chunk_rows=self.chunk_rows,
            peak_buffer_bytes=chunk.peak_bytes,
            budget_bytes=self.budget_bytes,
            feature_margin=store.feature_margin,
            activated=activate,
        )
        return store, report
