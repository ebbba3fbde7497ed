"""One run of one workload: set-up, timed pass, oracle.

Everything is measured from outside the program: calls into public
functions are timed here and the objects they return are read
(``ServeOutcome``, ``QueryStats``, ``saturation()``,
``IngestCoordinator.snapshot()``).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.index import WarpingIndex
from repro.ingest import IngestCoordinator, IngestQueue
from repro.serve import QBHService
from repro.serve.loadgen import result_digest
from repro.store import CorpusStore

from . import OUT_DIR, host
from .fixture import (INGEST_BATCH, SCALES, WORKLOADS, Fixture, RequestList,
                      Workload, make_requests, shared_fixture)
from .oracle import Oracle

#: A pass sends its whole request list.  One still running after this
#: many times ``--seconds`` is stopped, and what it had not sent counts
#: as failed: the lists are sized to take about ``run_seconds`` on the
#: reference box, so only a broken or far slower program gets here.
STOP_AFTER = 3.0
VISIBLE_TIMEOUT_S = 60.0
#: How often a writer looks whether its batch is visible yet.  Coarse on
#: purpose: every look takes the interpreter lock from the readers.
VISIBLE_POLL_S = 0.005
#: Set-up is repeated beyond the scale's minimum until this much time
#: went into it: cheap set-ups are the noisiest, and get the most repeats.
SETUP_BUDGET_S = 2.0
#: Sampled sharded answers also recomputed on the unsharded engine
#: (each costs a full k-NN, so fewer than the oracle sample).
CROSS_ROUTE_CHECKS = 8


# ----------------------------------------------------------------------
# the stack under test
# ----------------------------------------------------------------------

@dataclass
class Stack:
    """store -> index -> service, as a user of the library opens them."""

    workload: Workload
    store: CorpusStore
    index: WarpingIndex
    service: QBHService | None
    open_s: float
    from_store_s: float
    service_s: float           # constructing the service (shard spawn)
    setup_s: float             # open -> ... -> warm-up answered
    coordinator: IngestCoordinator | None = None
    queue: IngestQueue | None = None

    def answer(self, kind: str, param, hum):
        """Send one request down this workload's route."""
        if self.service is not None:
            return self.service.submit(kind, hum, param).result()
        return self.index.range_query(hum, param)

    def attach_ingest(self) -> None:
        self.queue = IngestQueue()
        manager = None if self.service is None else self.service.shard_manager
        self.coordinator = IngestCoordinator(
            self.index, self.queue, min_batch=INGEST_BATCH,
            shard_manager=manager,
        )
        if self.service is not None:
            self.service.attach_ingest(self.coordinator)
        else:
            self.coordinator.start()

    def shard_rss_bytes(self) -> int:
        manager = None if self.service is None else self.service.shard_manager
        if manager is None:
            return 0
        return sum(row.rss_bytes or 0 for row in manager.ping())

    def close(self) -> None:
        if self.service is not None:
            self.service.close()       # closes an attached coordinator too
        elif self.coordinator is not None:
            self.coordinator.close()


def open_stack(workload: Workload, fixture: Fixture, warmup: list,
               obs=None) -> Stack:
    """What ``setup_s`` times: open, index, serve, answer the warm-up.

    *obs* attaches an ``Observability`` to the index (the service and
    its engines inherit it); the default leaves telemetry off.
    """
    t0 = time.perf_counter()
    store = CorpusStore.open(fixture.store_root)
    t1 = time.perf_counter()
    index = WarpingIndex.from_store(store, obs=obs)
    t2 = time.perf_counter()
    service = None
    if workload.route == "serve":
        service = QBHService.from_index(index, shards=workload.shards)
    t3 = time.perf_counter()
    stack = Stack(workload, store, index, service, open_s=t1 - t0,
                  from_store_s=t2 - t1, service_s=t3 - t2, setup_s=0.0)
    for kind, param, hum in warmup:
        stack.answer(kind, param, hum)
    stack.setup_s = time.perf_counter() - t0
    return stack


def open_stack_repeatedly(workload, fixture, warmup
                          ) -> tuple[Stack, list[float]]:
    """Set up the scale's minimum number of times, and on (up to its
    maximum) while set-ups are cheap; returns the last stack, left
    open, and every set-up's seconds (``setup_s`` is their median)."""
    at_least, at_most = fixture.scale.setup_repeats
    samples: list[float] = []
    started = time.perf_counter()
    while True:
        stack = open_stack(workload, fixture, warmup)
        samples.append(stack.setup_s)
        spent = time.perf_counter() - started
        if len(samples) >= at_most or (len(samples) >= at_least
                                       and spent > SETUP_BUDGET_S):
            return stack, samples
        stack.close()


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------

@dataclass
class Record:
    position: int
    latency_s: float
    payload: object            # ServeOutcome, or (results, QueryStats)
    generations: tuple | None = None   # (before, after) under live ingest


def closed_loop(send, count: int, clients: int, stop_after_s: float
                ) -> tuple[list[Record], float]:
    """*clients* threads each send their next request when the previous
    one resolved, in list order, until all *count* are sent.  Past
    *stop_after_s* no further request is started (the caller counts the
    unsent ones as failed)."""
    lanes: list[list[Record]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    gate = threading.Barrier(clients + 1)
    deadline = [0.0]

    def client(lane: int) -> None:
        try:
            gate.wait()
            for position in range(lane, count, clients):
                begun = time.perf_counter()
                if begun >= deadline[0]:
                    break
                payload, generations = send(position)
                lanes[lane].append(Record(
                    position, time.perf_counter() - begun, payload,
                    generations))
        except BaseException as exc:  # re-raised below, on the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(lane,),
                                name=f"bench-client-{lane}")
               for lane in range(clients)]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + stop_after_s
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    if errors:
        raise errors[0]
    records = sorted((r for lane in lanes for r in lane),
                     key=lambda r: r.position)
    return records, wall_s


@dataclass
class IngestLog:
    """What a writer saw: one entry per batch made query-visible."""

    visible_s: list = field(default_factory=list)
    rows_at: dict = field(default_factory=dict)   # generation -> store rows
    rebuild_s: dict = field(default_factory=dict)  # rebuild number -> seconds
    wall_s: float = 0.0

    @property
    def rows(self) -> int:
        return len(self.visible_s) * INGEST_BATCH


def stage_batches(stack: Stack, fixture: Fixture, log: IngestLog,
                  stop: threading.Event) -> None:
    """Stage held-out melodies batch after batch, each as soon as the
    previous one is visible to queries (the store generation moved),
    until *stop* is set.  The held-out batches are staged in a cycle
    under fresh ids, so the writer never runs dry."""
    index, queue = stack.index, stack.queue
    base, pool = len(fixture.base), len(fixture.held_out)
    next_id = base

    def note_rebuild() -> None:
        # snapshot() only keeps the latest rebuild's duration, so it is
        # read once per batch, keyed by the rebuild it belongs to.
        snapshot = stack.coordinator.snapshot()
        if snapshot["last_rebuild_s"] is not None:
            log.rebuild_s[snapshot["rebuilds_total"]] = (
                snapshot["last_rebuild_s"])

    started = time.perf_counter()
    while not stop.is_set():
        note_rebuild()
        generation = index.store.generation
        begun = time.perf_counter()
        for item in range(next_id, next_id + INGEST_BATCH):
            queue.add(item, fixture.held_out[(item - base) % pool])
        next_id += INGEST_BATCH
        while index.store.generation == generation:
            if time.perf_counter() - begun > VISIBLE_TIMEOUT_S:
                raise RuntimeError(
                    f"ingest batch not visible after "
                    f"{VISIBLE_TIMEOUT_S:.0f} s")
            time.sleep(VISIBLE_POLL_S)
        log.visible_s.append(time.perf_counter() - begun)
        log.rows_at[index.store.generation] = index.store.rows
    log.wall_s = time.perf_counter() - started
    note_rebuild()


def timed_pass(stack: Stack, fixture: Fixture, requests: RequestList,
               count: int, clients: int, stop_after_s: float, *,
               live_ingest: bool
               ) -> tuple[list[Record], float, IngestLog | None]:
    """The closed-loop pass over the first *count* requests; under
    *live_ingest* a writer runs beside it for as long as it lasts."""
    specs, hums, index = requests.specs, requests.hums, stack.index

    def send(position: int):
        spec = specs[position]
        hum = hums[spec.query_index]
        if not live_ingest:
            return stack.answer(spec.kind, spec.param, hum), None
        before = index.store.generation
        payload = stack.answer(spec.kind, spec.param, hum)
        return payload, (before, index.store.generation)

    if not live_ingest:
        records, wall_s = closed_loop(send, count, clients, stop_after_s)
        return records, wall_s, None

    log = IngestLog(rows_at={index.store.generation: index.store.rows})
    stop = threading.Event()
    writer_error: list[BaseException] = []

    def writer() -> None:
        try:
            stage_batches(stack, fixture, log, stop)
        except BaseException as exc:
            writer_error.append(exc)

    thread = threading.Thread(target=writer, name="bench-writer")
    thread.start()
    try:
        records, wall_s = closed_loop(send, count, clients, stop_after_s)
    finally:
        stop.set()
        thread.join()
    if writer_error:
        raise writer_error[0]
    return records, wall_s, log


def unanswered(records: list[Record], count: int) -> list[str]:
    """Why requests of a pass count as failed: not ``ok``, or never sent
    because the pass was stopped."""
    reasons = [f"request {r.position}: status {r.payload.status}"
               for r in records if results_of(r) is None]
    if len(records) < count:
        reasons += [f"request {position}: not sent, the pass was stopped"
                    for position in sorted(
                        set(range(count)) - {r.position for r in records})]
    return reasons


# ----------------------------------------------------------------------
# reading a pass
# ----------------------------------------------------------------------

def results_of(record: Record):
    """The ``(id, distance)`` answer of a record, or ``None`` if the
    request did not end ``ok``."""
    payload = record.payload
    if isinstance(payload, tuple):          # tree route: (results, stats)
        return payload[0]
    return payload.results if payload.ok else None


def distance_digest(results) -> str:
    """Digest of an answer's distance bytes, ids left out.

    The melody database holds exact duplicates (songs repeat motifs),
    and the routes break distance ties in different id orders, so only
    the distances can be byte-compared across routes; that each id
    carries its exact distance is the oracle's check.
    """
    return result_digest([(None, dist) for _, dist in results])


def percentile_ms(latencies_s, q: float) -> float:
    return float(np.percentile(latencies_s, q)) * 1e3


def check_answers(stack: Stack, fixture: Fixture, requests: RequestList,
                  records: list[Record], log: IngestLog | None, seed: int
                  ) -> tuple[list[str], dict]:
    """Oracle sample + digest agreement.  Returns the failure reasons
    and the sample's digests (for cross-workload comparison)."""
    failures = unanswered(records, len(requests.specs))
    answered = [r for r in records if results_of(r) is not None]
    index = stack.index
    oracle = Oracle(index.store, fixture.normal_form, index.band)

    sample_size = min(fixture.scale.oracle_sample, len(answered))
    rng = np.random.default_rng([seed, 9])
    sample = [answered[i] for i in sorted(
        rng.choice(len(answered), size=sample_size, replace=False))]
    digests = {}
    engine = index.engine() if stack.workload.shards else None
    for checked, record in enumerate(sample):
        spec = requests.specs[record.position]
        hum = requests.hums[spec.query_index]
        results = results_of(record)
        row_counts = None
        if record.generations is not None:
            before, after = record.generations
            row_counts = sorted({log.rows_at[g]
                                 for g in range(before, after + 1)
                                 if g in log.rows_at})
        reason = oracle.mismatch(spec.kind, spec.param, hum, results,
                                 row_counts)
        if reason is not None:
            failures.append(f"request {record.position}: oracle: {reason}")
        digests[record.position] = distance_digest(results)
        if engine is not None and checked < CROSS_ROUTE_CHECKS:
            # What knn_hard serves for the same request.
            direct, _ = engine.knn(fixture.normal_form.apply(hum),
                                   spec.param)
            if distance_digest(direct) != digests[record.position]:
                failures.append(f"request {record.position}: sharded "
                                f"distances differ from the engine's")

    if log is None:
        # Same spec, same store: every repeat must be byte-identical.
        seen: dict = {}
        for record in answered:
            spec = requests.specs[record.position]
            digest = result_digest(results_of(record))
            if seen.setdefault((spec.kind, spec.query_index),
                               digest) != digest:
                failures.append(f"request {record.position}: repeat of "
                                f"the same spec got different bytes")
    return failures, digests


def recall_at_10(requests: RequestList, records: list[Record]) -> float:
    """Over the whole list: an unanswered request is a miss."""
    hits = 0
    for record in records:
        results = results_of(record) or ()
        target = requests.specs[record.position].target
        hits += any(item == target for item, _ in results)
    return hits / len(requests.specs)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything one run shares between its end-to-end and layer code."""

    workload: Workload
    seed: int
    seconds: float
    clients: int
    fixture: Fixture
    requests: RequestList
    work_dir: str


def resolve_clients(workload: Workload, requested: int | None) -> int:
    cores = host.nproc()
    if requested is None:
        return min(workload.clients, cores)
    if requested > cores:
        raise SystemExit(
            f"refusing {requested} client threads on {cores} CPUs: the "
            f"load generator would contend with the program it measures")
    return min(requested, workload.clients)


def prepare(workload_name: str, *, seed: int, seconds: float,
            scale_name: str, clients: int | None) -> RunContext:
    workload = WORKLOADS[workload_name]
    scale = SCALES[scale_name]
    clients = resolve_clients(workload, clients)   # refuses before any work
    work_dir = os.path.join(OUT_DIR, "tmp", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    fixture = shared_fixture(scale, work_dir)
    requests = make_requests(workload.name, fixture, seed)
    # The harness's own objects (hums, specs, melodies) are not the
    # program's garbage: keep its collector from walking them.
    gc.collect()
    gc.freeze()
    return RunContext(workload, seed, seconds, clients, fixture, requests,
                      work_dir)


def measure_end_to_end(ctx: RunContext) -> dict:
    """Set-up (repeated), the untraced timed pass, the oracle."""
    fixture, requests, workload = ctx.fixture, ctx.requests, ctx.workload
    stack, setup_samples = open_stack_repeatedly(workload, fixture,
                                                 requests.warmup)
    try:
        if workload.live_ingest:
            stack.attach_ingest()
        calibrations = [host.calibration_ms()]
        records, wall_s, log = timed_pass(
            stack, fixture, requests, len(requests.specs), ctx.clients,
            ctx.seconds * STOP_AFTER, live_ingest=workload.live_ingest)
        calibrations.append(host.calibration_ms())
        shard_rss = stack.shard_rss_bytes()
        failures, digests = check_answers(stack, fixture, requests, records,
                                          log, ctx.seed)
    finally:
        stack.close()

    if not records:
        raise RuntimeError("the pass was stopped before any request ended")
    latencies = [r.latency_s for r in records]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": percentile_ms(latencies, 90),
        "qps": len(records) / wall_s,
        "recall_at_10": recall_at_10(requests, records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_kb / 1024 + shard_rss / 2**20,
    }
    return {
        "metrics": metrics,
        "attempted": len(requests.specs),
        "failures": failures,
        "detail": {
            "requests_digest": requests.digest(),
            "timed_wall_s": wall_s,
            "clients": ctx.clients,
            "eps_tight": fixture.eps_tight,
            "results_per_request": statistics.mean(
                len(results_of(r) or ()) for r in records),
            "setup_samples_s": setup_samples,
            "calibration_ms": calibrations,
            "noisy": host.is_noisy(calibrations),
            "sample_digests": {str(k): v for k, v in digests.items()},
        },
    }


def cleanup(ctx: RunContext) -> None:
    shutil.rmtree(ctx.work_dir, ignore_errors=True)
