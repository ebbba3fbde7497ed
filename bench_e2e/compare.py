"""``--compare A.json B.json``: two full-pass result files, per bound.

A is the reference (the parent commit, or the first set of runs), B the
candidate.  For every workload x end-to-end metric the candidate's
median may be worse than the reference's by at most the metric's bound
from ``BENCHMARK.json``; a difference below the metric's absolute floor
never counts (it is the clock's, not the program's).  Where the
run-to-run spread of either file is wider than the bound the row is
``unresolved`` rather than ``ok`` — unless every candidate run reads
better than every reference run.
"""

from __future__ import annotations

import json

from .report import load_contract

#: Absolute differences too small to count (same units as the metric):
#: a 17 us cache hit that reads 22 us is not a 30 % regression.
FLOORS = {"latency_p50_ms": 0.05, "latency_p90_ms": 0.1, "setup_s": 0.05,
          "ingest_visible_p50_ms": 10.0}
#: End-to-end metrics that exist on one workload only.  BENCHMARK.json
#: can only hold metrics every workload reports, so ``--trace 1`` runs
#: carry these two and their bounds live here.
INGEST_SWAP_ONLY = (
    {"name": "ingest_rows_per_s", "better": "higher", "bound": 0.10},
    {"name": "ingest_visible_p50_ms", "better": "lower", "bound": 0.15},
)


def _worse_by(reference: float, candidate: float, better: str) -> float:
    """Share of the reference by which the candidate is worse (< 0: better)."""
    change = (candidate - reference) / abs(reference)
    return change if better == "lower" else -change


def _spread(cell: dict) -> float:
    return (cell["q3"] - cell["q1"]) / abs(cell["median"])


def _all_better(reference: dict, candidate: dict, better: str) -> bool:
    if better == "lower":
        return max(candidate["values"]) < min(reference["values"])
    return min(candidate["values"]) > max(reference["values"])


def compare_files(path_a: str, path_b: str) -> int:
    contract = load_contract()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    for key in ("nproc", "cpu_model", "seed", "scale"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"note: {key} differs: {a['fingerprint'][key]!r} vs "
                  f"{b['fingerprint'][key]!r}")
    for name, result in (("A", a), ("B", b)):
        if result["noisy"]:
            print(f"note: {name} was flagged noisy (host calibration moved "
                  f"by over 10 % during its runs)")

    verdicts = {"ok": 0, "worse": 0, "unresolved": 0}
    print(f"{'workload':12s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")

    # Search is exact, so one seed's recall repeats to the bit; the bound
    # in BENCHMARK.json only covers runs on different seeds.
    same_seed = a["fingerprint"]["seed"] == b["fingerprint"]["seed"]

    def row(workload: str, metric: dict, ca: dict, cb: dict) -> None:
        if metric["name"] == "recall_at_10" and same_seed:
            metric = {**metric, "bound": 0.0}
        worse_by = _worse_by(ca["median"], cb["median"], metric["better"])
        spread = max(_spread(ca), _spread(cb))
        floor = FLOORS.get(metric["name"], 0.0)
        if (worse_by > metric["bound"]
                and abs(cb["median"] - ca["median"]) > floor):
            verdict = "worse"
        elif (spread > metric["bound"]
              and max(c["q3"] - c["q1"] for c in (ca, cb)) > floor
              and not _all_better(ca, cb, metric["better"])):
            verdict = "unresolved"
        else:
            verdict = "ok"
        verdicts[verdict] += 1
        print(f"{workload:12s} {metric['name']:22s} "
              f"{ca['median']:12.4f} {cb['median']:12.4f} "
              f"{worse_by:+9.1%} {metric['bound']:6.0%} {spread:7.1%}  "
              f"{verdict}")

    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in contract["end_to_end"]:
            row(workload, metric, wa["end_to_end"][metric["name"]],
                wb["end_to_end"][metric["name"]])
        if workload == "ingest_swap":
            for metric in INGEST_SWAP_ONLY:
                row(workload, metric, wa["per_layer"][metric["name"]],
                    wb["per_layer"][metric["name"]])
        # failed_share has no relative bound: any failure is a regression.
        verdict = "worse" if wb["failed_share"] > 0 else "ok"
        verdicts[verdict] += 1
        print(f"{workload:12s} {'failed_share':22s} "
              f"{wa['failed_share']:12.6f} {wb['failed_share']:12.6f} "
              f"{'':9s} {'0':>6s} {'':7s}  {verdict}")

    # Counts the program makes repeat exactly for one seed and one code
    # version; between two versions a difference is a finding, not noise.
    for workload in a["workloads"]:
        for metric in ("engine.refined_rows", "dtw.cells_per_query",
                       "index.page_accesses", "index.candidates"):
            va = a["workloads"][workload]["per_layer"][metric]["median"]
            vb = b["workloads"][workload]["per_layer"][metric]["median"]
            if va != vb:
                print(f"count differs: {workload} {metric}: {va} vs {vb}")
    print(f"{verdicts['ok']} ok, {verdicts['worse']} worse, "
          f"{verdicts['unresolved']} unresolved")
    return 1 if verdicts["worse"] else 0
