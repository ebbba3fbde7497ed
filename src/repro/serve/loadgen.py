"""Closed-loop load generator for the serving layer.

The benchmark harness behind ``repro bench-serve`` and
``benchmarks/bench_serve.py``: *clients* threads each submit their
share of a fixed workload back-to-back (closed loop — a client only
submits its next request once the previous one resolved), against
either the serving layer or direct per-query engine dispatch,
and the run is summarised as sustained throughput, latency
percentiles, outcome counts, and per-request result digests.

The workload models what makes QBH serving interesting: a **Zipf**
distribution over a pool of hum variants, so a few popular tunes
dominate — exactly the skew that request coalescing and result caching
exist for.  Digests (:func:`result_digest`) hash the exact result
bytes, so two runs can assert *byte-identical* answers across serving
modes — the acceptance bar for "the serving layer never changes what
the engine computes".
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..engine.cascade import search_params
from ..obs.clock import monotonic_s

__all__ = [
    "RequestSpec",
    "RequestRecord",
    "LoadReport",
    "zipf_workload",
    "scenario_workload",
    "result_digest",
    "run_load",
    "direct_dispatch",
    "service_dispatch",
    "parity_mismatches",
]


@dataclass(frozen=True)
class RequestSpec:
    """One planned request: which query, which kind, which parameter.

    The optional *scenario* / *severity* / *target* fields tag a
    request built from a degraded hum with a known ground-truth melody
    (see :mod:`repro.hum.degrade`): quality-aware load runs use them
    to attribute each served answer back to its error-model cell.
    They are part of the (frozen, hashable) identity, so parity
    checking across serving modes still works per spec.
    """

    kind: str
    param: object
    query_index: int
    scenario: str | None = None
    severity: float | None = None
    target: int | None = None


@dataclass
class RequestRecord:
    """One executed request: what came back, and how fast."""

    spec: RequestSpec
    status: str
    latency_s: float
    digest: str | None
    from_cache: bool = False
    batch_size: int = 0


def result_digest(results) -> str:
    """A 16-hex digest of the exact result bytes.

    Ids contribute their ``repr`` and distances their float64 bytes,
    so two result sets collide only when they are byte-identical —
    the equality the serving parity checks assert.
    """
    digest = hashlib.sha1()
    for item, dist in results:
        digest.update(repr(item).encode())
        digest.update(np.float64(dist).tobytes())
    return digest.hexdigest()[:16]


def zipf_workload(total: int, pool_size: int, *, s: float = 1.3,
                  seed: int = 0, kinds=("knn",), knn_k: int = 5,
                  epsilon: float = 1.0) -> list[RequestSpec]:
    """*total* request specs over a *pool_size* query pool, Zipf-skewed.

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r**-s`` — ``s≈1.1–1.4`` matches measured popular-tune skew; 0 is
    uniform.  *kinds* cycles deterministically over the requested
    query kinds, pairing ``"knn"`` with *knn_k* and ``"range"`` with
    *epsilon*.
    """
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    weights = ranks ** -float(s)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    indices = rng.choice(pool_size, size=total, p=weights)
    specs = []
    for position, query_index in enumerate(indices):
        kind = kinds[position % len(kinds)]
        param = int(knn_k) if kind == "knn" else float(epsilon)
        specs.append(RequestSpec(kind=kind, param=param,
                                 query_index=int(query_index)))
    return specs


def scenario_workload(cells, *, kind: str = "knn", knn_k: int = 10,
                      epsilon: float = 1.0,
                      repeat: int = 1) -> list[RequestSpec]:
    """Specs over a degraded-query pool, tagged with their cell.

    *cells* is a sequence of ``(query_index, scenario, severity,
    target)`` tuples — one per entry of the query pool the caller
    built with :func:`repro.hum.degrade.degrade` (``target`` is the
    ground-truth melody index the hum was rendered from).  Each pool
    entry yields *repeat* identical specs, so caching and coalescing
    see realistic repeats while every answer stays attributable to
    its (scenario, severity) cell.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    param = int(knn_k) if kind == "knn" else float(epsilon)
    specs = []
    for query_index, scenario, severity, target in cells:
        spec = RequestSpec(
            kind=kind, param=param, query_index=int(query_index),
            scenario=str(scenario), severity=float(severity),
            target=int(target),
        )
        specs.extend([spec] * repeat)
    return specs


@dataclass
class LoadReport:
    """What one closed-loop run produced."""

    mode: str
    clients: int
    wall_s: float
    records: list[RequestRecord] = field(default_factory=list)
    saturation: dict | None = None

    @property
    def completed(self) -> int:
        """Requests that resolved (any status)."""
        return len(self.records)

    @property
    def ok(self) -> int:
        """Requests that produced results."""
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def by_status(self) -> dict:
        """Outcome counts keyed by status."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @property
    def qps(self) -> float:
        """Sustained completed-request throughput."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentiles(self) -> dict:
        """p50/p95/p99/max request latency in seconds."""
        if not self.records:
            return {"p50": None, "p95": None, "p99": None, "max": None}
        lat = np.sort([r.latency_s for r in self.records])
        return {
            "p50": float(np.percentile(lat, 50)),
            "p95": float(np.percentile(lat, 95)),
            "p99": float(np.percentile(lat, 99)),
            "max": float(lat[-1]),
        }

    def to_dict(self) -> dict:
        """The run summary as a JSON-ready dict (no per-request rows)."""
        return {
            "mode": self.mode,
            "clients": self.clients,
            "wall_s": self.wall_s,
            "completed": self.completed,
            "qps": self.qps,
            "by_status": self.by_status,
            "latency_s": self.latency_percentiles(),
            "saturation": self.saturation,
        }


def direct_dispatch(engine):
    """Baseline submit function: one engine call per request, no
    coalescing, no cache — what serving replaces."""

    def submit(spec: RequestSpec, query) -> tuple[str, object, dict]:
        results, _ = engine.search(query,
                                   **search_params(spec.kind, spec.param))
        return "ok", results, {}

    return submit


def service_dispatch(service, *, deadline_s: float | None = None):
    """Submit function routing through a
    :class:`~repro.serve.QBHService` (sync, per-service retry)."""

    def submit(spec: RequestSpec, query) -> tuple[str, object, dict]:
        if spec.kind == "range":
            outcome = service.range_search(query, spec.param,
                                           deadline_s=deadline_s)
        else:
            outcome = service.knn(query, spec.param,
                                  deadline_s=deadline_s)
        extra = {"from_cache": outcome.from_cache,
                 "batch_size": outcome.batch_size}
        return outcome.status, outcome.results, extra

    return submit


def run_load(submit, specs, queries, *, clients: int = 8,
             mode: str = "service") -> LoadReport:
    """Drive *specs* through *submit* from *clients* closed-loop threads.

    *submit* is ``(spec, query) -> (status, results, extra)`` (see
    :func:`direct_dispatch` / :func:`service_dispatch`); *queries* is
    the query pool indexed by ``spec.query_index``.  Specs are dealt
    round-robin to clients, each running its share sequentially.
    Records keep the original spec order index-free — parity between
    two runs compares per-spec digests via :func:`parity_mismatches`.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    specs = list(specs)
    records: list[RequestRecord | None] = [None] * len(specs)
    barrier = threading.Barrier(clients + 1)

    def client(worker: int) -> None:
        barrier.wait()
        for position in range(worker, len(specs), clients):
            spec = specs[position]
            query = queries[spec.query_index]
            started = monotonic_s()
            status, results, extra = submit(spec, query)
            latency = monotonic_s() - started
            records[position] = RequestRecord(
                spec=spec, status=status, latency_s=latency,
                digest=(result_digest(results)
                        if status == "ok" and results is not None else None),
                from_cache=bool(extra.get("from_cache", False)),
                batch_size=int(extra.get("batch_size", 0)),
            )

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"loadgen-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = monotonic_s()
    for thread in threads:
        thread.join()
    wall = monotonic_s() - started
    done = [record for record in records if record is not None]
    return LoadReport(mode=mode, clients=clients, wall_s=wall, records=done)


def parity_mismatches(a: LoadReport, b: LoadReport) -> int:
    """How many requests got *different* results across two runs.

    Identical requests — same kind, parameter, and query — must
    produce byte-identical results no matter which serving mode
    answered them, so digests are keyed by the (hashable) spec itself;
    a spec whose digest disagrees with any earlier sighting, within a
    run or across the two, counts as a mismatch.  Requests without
    results (shed, deadline-exceeded) are skipped: they are outcome
    differences, not correctness differences.
    """
    seen: dict[RequestSpec, str] = {}
    mismatches = 0
    for report in (a, b):
        for record in report.records:
            if record.status != "ok" or record.digest is None:
                continue
            known = seen.setdefault(record.spec, record.digest)
            if known != record.digest:
                mismatches += 1
    return mismatches
