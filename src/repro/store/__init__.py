"""Columnar float32 store for envelopes, features, and subsequence metadata.

The store is the one on-disk format of a warping index, written by
streaming ingest and opened by ``WarpingIndex.from_store``: a corpus
lives in a *store root* directory holding immutable **generations**.  Each
generation is a directory of append-friendly **segment files** — one raw
little-endian binary per (segment, column) pair — described by a
``manifest.json`` with per-file SHA-256 checksums.  A ``CURRENT`` pointer
file names the active generation and is swapped atomically with
``os.replace``, so readers always see a complete generation.

Columns (all row-aligned):

``normalized``   float32, (rows, normal_length) — normal-form windows
``env_lower``    float32, (rows, normal_length) — LDTW k-envelope lower
``env_upper``    float32, (rows, normal_length) — LDTW k-envelope upper
``features``     float32, (rows, n_features)   — GEMINI envelope features
``meta``         int64,   (rows, 3)            — (sequence row, start, length)

Envelope values are order statistics of the stored float32 data, so the
float32 envelope columns are *exact* for the stored corpus; the query
engine reads them memory-mapped as each row's own envelope (the EC half
of its ``lb_keogh`` stage), and ``verify()`` checks they bound the
data.  Features are
computed in float64 and quantized to float32; the manifest records the
maximum absolute quantization error (``feature_margin``) so index-side
lower bounds can be slackened to keep the zero-false-negative contract
with respect to the stored corpus.
"""

from .manifest import (
    COLUMN_SPECS,
    FORMAT_VERSION,
    Manifest,
    SegmentMeta,
    file_sha256,
    load_manifest,
)
from .corpus import (
    CorpusStore,
    GenerationWriter,
    StoreError,
    activate_generation,
    current_generation,
    generation_dirname,
    init_store,
    list_generations,
    prune_generations,
)

__all__ = [
    "COLUMN_SPECS",
    "FORMAT_VERSION",
    "CorpusStore",
    "GenerationWriter",
    "Manifest",
    "SegmentMeta",
    "StoreError",
    "activate_generation",
    "current_generation",
    "file_sha256",
    "generation_dirname",
    "init_store",
    "list_generations",
    "load_manifest",
    "prune_generations",
]
