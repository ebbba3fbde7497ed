"""Manifest format for columnar store generations.

One ``manifest.json`` per generation directory.  The manifest is the
commit record: a generation directory without a readable manifest is
incomplete and is never activated.  It carries the column schema, the
ordered segment list with per-file SHA-256 checksums, the corpus
dimensions, and the float32 quantization margin for features.

The manifest is deliberately plain JSON (no numpy types) so it can be
inspected with any tool and validated by CI without importing the
package.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..core.envelope_transforms import row_paa_frames

__all__ = [
    "COLUMN_SPECS",
    "FORMAT_VERSION",
    "Manifest",
    "SegmentMeta",
    "file_sha256",
    "load_manifest",
    "save_manifest",
]

#: Manifest format version; bump on incompatible layout changes.
#: Version 2 dropped version 1's per-row ``meta`` column and ``kind``
#: field: every row is one whole melody with one id.  Version 3 added
#: the ``env_paa`` column.
FORMAT_VERSION = 3

#: Column schema: name -> (numpy dtype string, width source).  Width
#: source is ``"normal_length"``, ``"n_features"`` or ``"env_paa"``
#: (two sides of ``min(2 n_features, normal_length)`` frame means, see
#: :func:`~repro.core.envelope_transforms.envelope_paa`).
COLUMN_SPECS: dict[str, tuple[str, Any]] = {
    "normalized": ("float32", "normal_length"),
    "env_lower": ("float32", "normal_length"),
    "env_upper": ("float32", "normal_length"),
    "features": ("float32", "n_features"),
    "env_paa": ("float32", "env_paa"),
}

_HASH_CHUNK = 1 << 20


def file_sha256(path: str) -> str:
    """SHA-256 hex digest of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_HASH_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class SegmentMeta:
    """One immutable segment: ``rows`` rows across every column file."""

    name: str
    rows: int
    #: column name -> {"file": relative filename, "sha256": hex digest}
    files: dict[str, dict[str, str]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "rows": self.rows, "files": self.files}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SegmentMeta":
        return cls(name=str(payload["name"]), rows=int(payload["rows"]),
                   files=dict(payload["files"]))


@dataclass
class Manifest:
    """Parsed ``manifest.json`` for one generation."""

    generation: int
    rows: int
    normal_length: int
    n_features: int
    metric: str
    feature_margin: float
    created_s: float
    segments: list[SegmentMeta] = field(default_factory=list)
    config: dict[str, Any] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    ids_file: str = "ids.json"

    def column_width(self, column: str) -> int:
        source = COLUMN_SPECS[column][1]
        if source == "n_features":
            return self.n_features
        if source == "env_paa":
            return 2 * row_paa_frames(self.n_features, self.normal_length)
        return self.normal_length

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": self.format_version,
            "generation": self.generation,
            "rows": self.rows,
            "normal_length": self.normal_length,
            "n_features": self.n_features,
            "metric": self.metric,
            "feature_margin": self.feature_margin,
            "created_s": self.created_s,
            "ids_file": self.ids_file,
            "columns": {
                name: {"dtype": dtype,
                       "cols": self.column_width(name)}
                for name, (dtype, _) in COLUMN_SPECS.items()
            },
            "segments": [segment.to_dict() for segment in self.segments],
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Manifest":
        """Parse a manifest; ``ValueError``, ``KeyError`` or ``TypeError``
        if it is malformed or of another format version."""
        if not isinstance(payload, dict):
            raise ValueError("manifest is not a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported store format version {version!r} "
                f"(supported: {FORMAT_VERSION}); rebuild the store with "
                f"`repro ingest`"
            )
        return cls(
            generation=int(payload["generation"]),
            rows=int(payload["rows"]),
            normal_length=int(payload["normal_length"]),
            n_features=int(payload["n_features"]),
            metric=str(payload["metric"]),
            feature_margin=float(payload["feature_margin"]),
            created_s=float(payload["created_s"]),
            ids_file=str(payload.get("ids_file", "ids.json")),
            segments=[SegmentMeta.from_dict(s)
                      for s in payload["segments"]],
            config=dict(payload.get("config", {})),
            format_version=version,
        )


def save_manifest(manifest: Manifest, directory: str) -> str:
    """Write ``manifest.json`` atomically (tmp + fsync + replace)."""
    path = os.path.join(directory, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_manifest(directory: str) -> Manifest:
    path = os.path.join(directory, "manifest.json")
    with open(path) as handle:
        return Manifest.from_dict(json.load(handle))
