"""Deterministic workload replay from a captured query log.

When the observability layer flags a slow query, the next question is
always "can we reproduce it?".  This module answers yes by
construction: the :class:`WorkloadRecorder` sink captures each served
query verbatim — the raw input series, the query parameters, and the
exact answer (ids and distances) — as one JSONL record keyed by the
engine's stable ``query_id`` (the same id stamped on the query's root
trace span, so a span in ``trace.jsonl`` links to its workload line).
:func:`replay_workload` then re-executes the records through a
:class:`~repro.engine.QueryEngine` and *verifies* rather than trusts:
every replayed distance must match the recording to ``atol`` and every
survivor set must be identical, replayed both one record at a time and
from a pool of threads this module owns, all calling the engine's one
query method, ``search``, with the record's ``params``
(``{"epsilon": ε}``, ``{"k": k}`` or both) as keywords.

A parity failure therefore isolates the culprit precisely: recorded ≠
serial is an engine or kernel change, serial ≠ concurrent is a
concurrency bug.

Capture is wired through
``Observability.to_files(workload_out=...)`` — the CLI's
``repro query --workload-out queries.jsonl`` — and respects
``--slow-query-ms``: with a threshold, only slow queries are captured,
which makes the log a deterministic repro kit for exactly the queries
worth debugging.  Replay runs via ``repro perf replay``.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WORKLOAD_SCHEMA",
    "WorkloadRecorder",
    "load_workload",
    "ReplayCheck",
    "ReplayReport",
    "replay_workload",
]

#: Version tag of the workload-record schema.
WORKLOAD_SCHEMA = 1

#: Keys every workload record must carry to be replayable.
REQUIRED_KEYS = ("schema", "query_id", "kind", "params", "query", "results")


class WorkloadRecorder:
    """A workload sink writing one JSON record per captured query.

    Plug into ``Observability(workload_sink=...)`` (or let
    ``Observability.to_files(workload_out=...)`` build one).  Like the
    span exporter, it appends under the facade's locking discipline,
    so threads sharing one engine may share it.
    """

    def __init__(self, path, append: bool = False) -> None:
        self.path = path
        self._handle = open(path, "a" if append else "w", encoding="utf-8")

    def __call__(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()


def load_workload(path, stats=None) -> list[dict]:
    """Read workload records from JSONL, skipping damaged lines.

    *stats*, when given, is a :class:`~repro.obs.analysis.TraceReadStats`
    (or anything with ``lines``/``spans``/``bad_lines`` counters) that
    receives the read accounting — same tolerance contract as the
    trace reader: truncated or non-JSON lines never abort a replay of
    the intact records around them.
    """
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if stats is not None:
                stats.lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if stats is not None:
                    stats.bad_lines += 1
                continue
            if (not isinstance(record, dict)
                    or any(key not in record for key in REQUIRED_KEYS)):
                if stats is not None:
                    stats.bad_lines += 1
                continue
            if stats is not None:
                stats.spans += 1
            records.append(record)
    return records


@dataclass
class ReplayCheck:
    """Parity verdict of one recorded query on one path."""

    query_id: str
    kind: str
    mode: str                     # "serial" | "concurrent"
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        """The check as a JSON-ready dict."""
        return {
            "query_id": self.query_id,
            "kind": self.kind,
            "mode": self.mode,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class ReplayReport:
    """Every parity check of one replay run."""

    checks: list[ReplayCheck] = field(default_factory=list)

    @property
    def failures(self) -> list[ReplayCheck]:
        """The checks that found a mismatch."""
        return [check for check in self.checks if not check.ok]

    @property
    def ok(self) -> bool:
        """True when every replayed query matched its recording."""
        return not self.failures

    def to_dict(self) -> dict:
        """The report as one JSON-ready document."""
        return {
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    def summary(self) -> str:
        """A per-mode pass-fail summary for terminals."""
        by_mode: dict[str, list[ReplayCheck]] = {}
        for check in self.checks:
            by_mode.setdefault(check.mode, []).append(check)
        lines = []
        for mode, group in by_mode.items():
            bad = [check for check in group if not check.ok]
            verdict = "ok" if not bad else f"{len(bad)} MISMATCH"
            lines.append(f"{mode:<12}{len(group):>4} queries  {verdict}")
        for check in self.failures:
            lines.append(
                f"  mismatch {check.query_id} ({check.kind}, "
                f"{check.mode}): {check.detail}"
            )
        lines.append("replay PARITY OK" if self.ok
                     else f"replay FAILED ({len(self.failures)} mismatches)")
        return "\n".join(lines)


def _compare(record: dict, got, atol: float) -> tuple[bool, str]:
    """Ids must be identical, distances equal to *atol*."""
    want = record["results"]
    got_ids = [item for item, _ in got]
    want_ids = [item for item, _ in want]
    if got_ids != want_ids:
        missing = [item for item in want_ids if item not in got_ids]
        extra = [item for item in got_ids if item not in want_ids]
        if missing or extra:
            return False, (f"survivor sets differ "
                           f"(missing={missing[:5]}, extra={extra[:5]})")
        return False, f"result order differs: {want_ids[:5]} vs {got_ids[:5]}"
    if want:
        diff = max(abs(float(got_d) - float(want_d))
                   for (_, got_d), (_, want_d) in zip(got, want))
        if diff > atol:
            return False, f"max distance diff {diff:.3e} > atol {atol:.0e}"
    return True, ""


def replay_workload(
    engine,
    records: list[dict],
    *,
    modes=("serial", "concurrent"),
    workers: int | None = None,
    atol: float = 1e-9,
) -> ReplayReport:
    """Re-execute captured queries and verify distance/survivor parity.

    *engine* is anything with the query engine's ``search`` (a
    :class:`~repro.engine.QueryEngine`, ``index.engine()``, a
    :class:`~repro.shard.ShardRouter`).  Each record replays as
    ``engine.search(query, **record["params"])``.  ``serial`` replays
    each record on the calling thread and ``concurrent`` replays the
    same records from a pool of *workers* threads — so whatever the
    engine shares between callers (a router lock, a scheduler, an
    observability facade) is exercised against the same ground truth.
    Every record contributes one :class:`ReplayCheck` per mode.
    """
    report = ReplayReport()
    if not records:
        return report

    def answer(record: dict):
        query = np.asarray(record["query"], dtype=np.float64)
        return engine.search(query, **record["params"])[0]

    for mode in ("serial", "concurrent"):
        if mode not in modes:
            continue
        if mode == "serial":
            answers = [answer(record) for record in records]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                answers = list(pool.map(answer, records))
        for record, got in zip(records, answers):
            ok, detail = _compare(record, got, atol)
            report.checks.append(ReplayCheck(
                query_id=record["query_id"], kind=record["kind"],
                mode=mode, ok=ok, detail=detail,
            ))
    return report
