"""Closed-loop load generator for the serving layer.

What ``repro serve`` drives its hums through: *clients* threads each
submit their share of a fixed workload back-to-back (closed loop — a
client only submits its next request once the previous one resolved)
against a :class:`~repro.serve.QBHService`, and the run is summarised
as sustained throughput, latency percentiles, outcome counts, and
per-request result digests.

The workload models what makes QBH serving interesting: a **Zipf**
distribution over a pool of hum variants, so a few popular tunes
dominate — exactly the skew that request coalescing and result caching
exist for.  Digests (:func:`result_digest`) hash the exact result
bytes, so a run can assert *byte-identical* answers against direct
engine calls — the acceptance bar for "the serving layer never changes
what the engine computes".
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from ..obs.clock import monotonic_s

__all__ = [
    "RequestSpec",
    "RequestRecord",
    "LoadReport",
    "zipf_workload",
    "result_digest",
    "run_load",
    "service_dispatch",
]


@dataclass(frozen=True)
class RequestSpec:
    """One planned request: which query, which kind, which parameter.

    The optional *scenario* / *severity* / *target* fields tag a
    request built from a degraded hum with a known ground-truth melody
    (see :mod:`repro.hum.degrade`): quality-aware load runs use them
    to attribute each served answer back to its error-model cell.
    They are part of the (frozen, hashable) identity.
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


@dataclass
class LoadReport:
    """What one closed-loop run produced."""

    clients: int
    wall_s: float
    records: list[RequestRecord] = field(default_factory=list)
    saturation: dict | None = None

    @property
    def completed(self) -> int:
        """Requests that resolved (any status)."""
        return len(self.records)

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


def service_dispatch(service):
    """Submit function routing through a
    :class:`~repro.serve.QBHService` (sync, per-service retry)."""

    def submit(spec: RequestSpec, query) -> tuple[str, object]:
        if spec.kind == "range":
            outcome = service.range_search(query, spec.param)
        else:
            outcome = service.knn(query, spec.param)
        return outcome.status, outcome.results

    return submit


def run_load(submit, specs, queries, *, clients: int = 8) -> LoadReport:
    """Drive *specs* through *submit* from *clients* closed-loop threads.

    *submit* is ``(spec, query) -> (status, results)`` (see
    :func:`service_dispatch`); *queries* is the query pool indexed by
    ``spec.query_index``.  Specs are dealt round-robin to clients, each
    running its share sequentially; records keep the spec order.
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
            status, results = submit(spec, query)
            latency = monotonic_s() - started
            records[position] = RequestRecord(
                spec=spec, status=status, latency_s=latency,
                digest=(result_digest(results)
                        if status == "ok" and results is not None else None),
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
    return LoadReport(clients=clients, wall_s=wall, records=done)
