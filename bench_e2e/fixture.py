"""The shared fixture and the six workloads' request lists.

The melody database is the system's state and the shape of the traffic
— which melody each request is after, in what order, the Zipf draws —
is the definition of a workload; both are the same on every run
(``CORPUS_SEED``).  ``--seed`` re-draws how every hum is sung (its
``hum.degrade`` noise), so no two seeds send the same array, while the
work per request varies only as much as a second singer's version of
the same tune does.  The program under test only ever sees the
generated arrays.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle
import shutil
from dataclasses import dataclass, replace

import numpy as np

from repro.core.normal_form import NormalForm
from repro.dtw.distance import ldtw_distance_batch
from repro.hum.degrade import degrade
from repro.ingest import StreamingIndexBuilder
from repro.music.corpus import generate_corpus, segment_corpus
from repro.serve.loadgen import RequestSpec, zipf_workload

from . import OUT_DIR, ROOT

CORPUS_SEED = 11
PER_SONG = 20
NORMAL_LENGTH = 128
DELTA = 0.1
N_FEATURES = 8
MEMORY_BUDGET_MB = 64
KNN_K = 10
INGEST_BATCH = 50
WARMUP_REQUESTS = 5
ZIPF_S = 1.1


@dataclass(frozen=True)
class Workload:
    """How one workload's requests reach the program."""

    name: str
    route: str = "serve"       # "serve": QBHService; "tree": WarpingIndex
    shards: int | None = None
    clients: int = 2           # closed-loop client threads (capped at nproc)
    live_ingest: bool = False  # a writer stages batches during the pass


#: BENCHMARK.json lists the first five with their reasons (the self-test
#: checks the names agree).  It leaves out ``ingest_swap``, whose two
#: clients and saturating writer settle into one of two rhythms per run
#: (batches of two, or of one with a 50 ms queue wait): its p90 spreads
#: by about a quarter between runs of the same code, which is the
#: widest bound BENCHMARK.json can state.  A full pass runs it and
#: ``--compare`` gates it like the others.
WORKLOADS = {w.name: w for w in (
    Workload("range_tight"),
    Workload("knn_hard"),
    Workload("zipf_mixed"),
    Workload("shard2_knn", shards=2),
    Workload("tree_range", route="tree", clients=1),
    Workload("ingest_swap", live_ingest=True),
)}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale.  A timed pass sends its whole
    request list, so the work and the sample counts are the same on
    every run and every commit."""

    name: str
    songs: int                 # x PER_SONG melodies in the base store
    requests: dict             # workload -> length of its request list
    zipf_pool: int
    calibration_pool: int      # hums behind EPS_TIGHT
    oracle_sample: int
    trace_sample: dict         # request kind -> traced requests
    setup_repeats: tuple       # (at least, at most) set-ups per run
    live_batches: int          # distinct held-out batches (the writer cycles)
    dtw_probe_rows: int


# The full lists are sized on the 2-core reference box so that a pass
# takes seven to ten seconds; the two k-NN workloads keep 120 requests
# (the fewest that leave ten samples beyond p90) and take 14 and 23 s.
SCALES = {
    "full": Scale(
        name="full", songs=500,
        requests={"range_tight": 450, "knn_hard": 120, "zipf_mixed": 1000,
                  "shard2_knn": 120, "tree_range": 300,
                  "ingest_swap": 150},
        zipf_pool=256, calibration_pool=20, oracle_sample=32,
        trace_sample={"range": 48, "knn": 16, "mixed": 32},
        setup_repeats=(3, 9), live_batches=20, dtw_probe_rows=2048,
    ),
    "smoke": Scale(
        name="smoke", songs=50,
        requests={"range_tight": 40, "knn_hard": 12, "zipf_mixed": 40,
                  "shard2_knn": 12, "tree_range": 20, "ingest_swap": 30},
        zipf_pool=16, calibration_pool=8, oracle_sample=8,
        trace_sample={"range": 8, "knn": 4, "mixed": 8},
        setup_repeats=(2, 2), live_batches=4, dtw_probe_rows=256,
    ),
}


@dataclass
class Fixture:
    """The built database plus what the oracle and the writers need."""

    scale: Scale
    store_root: str
    base: list                 # pitch series in the base store; id == row
    held_out: list             # pitch series ingest_swap's writer stages
    normal_form: NormalForm
    eps_tight: float
    build_rows_per_s: float    # the bulk build (not part of setup_s)


def _pitch_series(songs, seed: int) -> list:
    melodies = segment_corpus(songs, per_song=PER_SONG, seed=seed)
    return [np.asarray(m.to_time_series(), dtype=np.float64)
            for m in melodies]


def build_fixture(scale: Scale, work_dir: str) -> Fixture:
    """Generate the melodies, bulk-build the store, calibrate EPS_TIGHT."""
    held_songs = -(-scale.live_batches * INGEST_BATCH // PER_SONG)
    songs = generate_corpus(scale.songs + held_songs, seed=CORPUS_SEED)
    base = _pitch_series(songs[:scale.songs], CORPUS_SEED)
    held_out = _pitch_series(songs[scale.songs:], CORPUS_SEED + 1)
    if len(held_out) < scale.live_batches * INGEST_BATCH:
        raise RuntimeError("held-out pool came out short")

    normal_form = NormalForm(length=NORMAL_LENGTH)
    store_root = os.path.join(work_dir, "store")
    builder = StreamingIndexBuilder(
        store_root, kind="melody", delta=DELTA, normal_form=normal_form,
        n_features=N_FEATURES, memory_budget_mb=MEMORY_BUDGET_MB,
    )
    store, report = builder.build(base, ids=range(len(base)))

    # EPS_TIGHT: 1.5 x the median exact 1-NN distance of a fixed
    # calibration pool, by brute force (this is oracle work, not the
    # program's).
    rng = np.random.default_rng([CORPUS_SEED, 0])
    data = np.asarray(store.normalized, dtype=np.float64)
    nearest = []
    for target in rng.integers(0, len(base), size=scale.calibration_pool):
        hum = degrade(base[target], "jitter", 0.25,
                      seed=int(rng.integers(0, 2**31)))
        dists = ldtw_distance_batch(normal_form.apply(hum), data,
                                    builder.band)
        nearest.append(float(dists.min()))
    return Fixture(
        scale=scale, store_root=store_root, base=base, held_out=held_out,
        normal_form=normal_form,
        eps_tight=1.5 * float(np.median(nearest)),
        build_rows_per_s=report.rows_per_s,
    )


def _source_digest(scale: Scale) -> str:
    """Digest of all a fixture is made from: the scale, this file and
    the program's source (its generators, builder and store format)."""
    sha = hashlib.sha256(repr(scale).encode())
    sources = glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                        recursive=True)
    for path in [__file__] + sorted(sources):
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()[:16]


def shared_fixture(scale: Scale, work_dir: str) -> Fixture:
    """The fixture of :func:`build_fixture`, built by the first run in a
    checkout and kept under ``out/fixture/`` for the next ones.

    The database is the same on every run and no part of any metric but
    ``ingest.build_rows_per_s`` (kept with it), while building it takes
    3 to 4.5 s, a quarter of a run: with it, the runs of the driver
    BENCHMARK.json is written for came close to its time limit on the
    reference box's slow hours.  It is kept the way a compiled program
    is kept in its build directory: named after the digest of its
    sources, so a changed generator, builder or store format builds
    anew.  Every run, the building one too, loads what
    was kept and works on its own copy of the store (``ingest_swap``
    adds generations to it).
    """
    kept = os.path.join(OUT_DIR, "fixture",
                        f"{scale.name}-{_source_digest(scale)}")
    if not os.path.isdir(kept):
        staging = f"{kept}.{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        with open(os.path.join(staging, "fixture.pkl"), "wb") as handle:
            pickle.dump(build_fixture(scale, staging), handle)
        try:
            os.rename(staging, kept)
        except OSError:            # another run kept its build first
            shutil.rmtree(staging)
    with open(os.path.join(kept, "fixture.pkl"), "rb") as handle:
        fixture = pickle.load(handle)
    store_root = os.path.join(work_dir, "store")
    shutil.copytree(os.path.join(kept, "store"), store_root)
    return replace(fixture, store_root=store_root)


@dataclass
class RequestList:
    """One workload's traffic: specs in send order over a hum pool."""

    specs: list                # RequestSpec, query_index into hums
    hums: list
    warmup: list               # (kind, param, hum); same on every seed

    def digest(self) -> str:
        """Byte-identity of the list (what ``--seed`` must reproduce)."""
        sha = hashlib.sha256()
        for spec in self.specs:
            sha.update(f"{spec.kind}|{spec.param!r}|{spec.target}|".encode())
            sha.update(self.hums[spec.query_index].tobytes())
        return sha.hexdigest()[:16]


def _hum_pool(fixture: Fixture, seed: int, tag: int, count: int,
              severity: float) -> tuple[list, np.ndarray]:
    # Which melody each request is after belongs to the workload (most
    # of a request's cost is decided by its target's neighbourhood);
    # how it is hummed belongs to the seed.
    targets = np.random.default_rng([CORPUS_SEED, tag]).integers(
        0, len(fixture.base), size=count)
    hum_seeds = np.random.default_rng([seed, tag]).integers(
        0, 2**31, size=count)
    hums = [degrade(fixture.base[t], "jitter", severity, seed=int(s))
            for t, s in zip(targets, hum_seeds)]
    return hums, targets


def _warmup(fixture, tag, kind, param, severity) -> list:
    # The same hums on every seed: answering them is part of setup_s,
    # which should time the same work on every run.
    hums, _ = _hum_pool(fixture, CORPUS_SEED, 100 + tag, WARMUP_REQUESTS,
                        severity)
    return [(kind, param, hum) for hum in hums]


def _unique(fixture, seed, tag, count, kind, param, severity):
    hums, targets = _hum_pool(fixture, seed, tag, count, severity)
    specs = [RequestSpec(kind=kind, param=param, query_index=i,
                         scenario="jitter", severity=severity,
                         target=int(targets[i]))
             for i in range(count)]
    return RequestList(specs, hums,
                       _warmup(fixture, tag, kind, param, severity))


def make_requests(workload: str, fixture: Fixture, seed: int) -> RequestList:
    """The request list of *workload* for this traffic seed.

    ``tree_range`` and ``ingest_swap`` send prefixes of ``range_tight``'s
    list and ``shard2_knn`` sends ``knn_hard``'s, so each pair differs
    only in the route the same requests take.
    """
    counts = fixture.scale.requests
    eps = fixture.eps_tight
    if workload in ("range_tight", "tree_range", "ingest_swap"):
        full = _unique(fixture, seed, 1, counts["range_tight"],
                       "range", eps, 0.25)
        keep = counts[workload]
        return RequestList(full.specs[:keep], full.hums[:keep], full.warmup)
    if workload in ("knn_hard", "shard2_knn"):
        return _unique(fixture, seed, 2, counts["knn_hard"],
                       "knn", KNN_K, 1.0)
    if workload == "zipf_mixed":
        pool = fixture.scale.zipf_pool
        hums, targets = _hum_pool(fixture, seed, 3, pool, 0.25)
        drawn = zipf_workload(counts[workload], pool, s=ZIPF_S,
                              seed=CORPUS_SEED,
                              kinds=("knn", "range"), knn_k=KNN_K,
                              epsilon=eps)
        specs = [RequestSpec(kind=s.kind, param=s.param,
                             query_index=s.query_index, scenario="jitter",
                             severity=0.25,
                             target=int(targets[s.query_index]))
                 for s in drawn]
        return RequestList(specs, hums, _warmup(fixture, 3, "knn", KNN_K,
                                                0.25))
    raise ValueError(f"unknown workload {workload!r}")
