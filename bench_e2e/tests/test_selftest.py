"""The benchmark's own tests, at ``--scale smoke``.

Not part of tier-1 (``testpaths`` is ``tests``); run with
``python3 -m pytest bench_e2e/tests`` from the repository root.
"""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bench_e2e import compare, fixture, host, report, run
from repro.store import CorpusStore

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EXACT_COUNTS = ("engine.refined_rows", "dtw.cells_per_query",
                "index.page_accesses", "serve.cache_hit_share")


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bench_e2e", *map(str, args)], cwd=ROOT,
        capture_output=True, text=True, timeout=170, check=False)


def contract_names(section):
    return {m["name"]: m["unit"] for m in report.load_contract()[section]}


@pytest.fixture(scope="module")
def smoke_pass(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = cli("--scale", "smoke", "--out", out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_full_pass_emits_exactly_the_contract(smoke_pass):
    contract = report.load_contract()
    assert list(run.WORKLOADS) == list(smoke_pass["workloads"])
    assert list(run.WORKLOADS) == [
        w["name"] for w in contract["workloads"]] + ["ingest_swap"]
    for name, entry in smoke_pass["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            emitted = {metric: cell["unit"]
                       for metric, cell in entry[section].items()}
            assert emitted == contract_names(section), (name, section)
        assert entry["failed_share"] == 0, name
        assert 0 < entry["end_to_end"]["recall_at_10"]["median"] <= 1
    assert smoke_pass["failures"] == []
    unique = ("range_tight", "knn_hard", "shard2_knn", "ingest_swap")
    for name in unique:
        hit = smoke_pass["workloads"][name]["per_layer"]
        assert hit["serve.cache_hit_share"]["median"] == 0
    for name, entry in smoke_pass["workloads"].items():
        ingested = entry["per_layer"]["ingest_rows_per_s"]["median"]
        assert (ingested > 0) == (name == "ingest_swap")


def test_full_pass_keeps_every_workloads_trace(smoke_pass):
    with open(os.path.join(run.OUT_DIR, "trace.jsonl"),
              encoding="utf-8") as fh:
        traced = {json.loads(line)["trace_id"].rsplit("-", 1)[0]
                  for line in fh}
    assert traced == set(smoke_pass["workloads"])


def test_single_run_ends_with_the_result_object():
    done = cli("--workload", "tree_range", "--scale", "smoke",
               "--seconds", 1, "--trace", 0, "--seed", 3)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: cell["unit"] for name, cell in result["metrics"].items()
            } == contract_names("end_to_end")
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


def _session_members(session):
    """(pid, state) of every process of *session* still in ``/proc``."""
    members = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append((int(entry), fields[0]))
    return members


@pytest.mark.parametrize("trace", (0, 1))
def test_a_run_leaves_no_process_behind(trace, tmp_path):
    # The traced sharded run builds a fleet beside a live service, which
    # the program starts with ``spawn``: that launches multiprocessing's
    # resource tracker, which ends only when told to.
    child = subprocess.Popen(
        [sys.executable, "-m", "bench_e2e", "--workload", "shard2_knn",
         "--scale", "smoke", "--trace", str(trace), "--seed", "3",
         "--out", str(tmp_path / "run.json")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    _, stderr = child.communicate(timeout=170)
    assert child.returncode == 0, stderr[-3000:]
    assert _session_members(child.pid) == []


def test_same_seed_same_requests_and_same_counts(tmp_path):
    def traced(seed, tag):
        out = tmp_path / f"{tag}.json"
        # One client, so the cache sees the same sequence both times.
        done = cli("--workload", "zipf_mixed", "--scale", "smoke",
                   "--trace", 1, "--clients", 1, "--seed", seed,
                   "--out", out)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    first, again, other = traced(5, "a"), traced(5, "b"), traced(6, "c")
    assert first["requests_digest"] == again["requests_digest"]
    assert first["requests_digest"] != other["requests_digest"]
    for name in EXACT_COUNTS:
        assert (first["metrics"][name]["value"]
                == again["metrics"][name]["value"]), name
    assert first["metrics"]["serve.cache_hit_share"]["value"] > 0
    assert first["metrics"]["index.page_accesses"]["value"] > 0


def test_the_kept_fixture_is_the_built_one(tmp_path, monkeypatch):
    monkeypatch.setattr(fixture, "OUT_DIR", str(tmp_path / "out"))
    scale = fixture.SCALES["smoke"]
    built = fixture.build_fixture(scale, str(tmp_path / "built"))
    first = fixture.shared_fixture(scale, str(tmp_path / "first"))
    again = fixture.shared_fixture(scale, str(tmp_path / "again"))
    assert len(os.listdir(tmp_path / "out" / "fixture")) == 1
    for kept in (first, again):
        assert kept.eps_tight == built.eps_tight
        for name in ("base", "held_out"):
            assert all((a == b).all() for a, b in zip(
                getattr(kept, name), getattr(built, name), strict=True))
        assert (np.asarray(CorpusStore.open(kept.store_root).normalized)
                == np.asarray(CorpusStore.open(built.store_root).normalized)
                ).all()


def test_a_corrupted_answer_trips_the_oracle(monkeypatch):
    served = run.Stack.answer

    def corrupted(self, kind, param, hum):
        outcome = served(self, kind, param, hum)
        outcome.results = ((0, 0.0),)
        return outcome

    ctx = run.prepare("range_tight", seed=11, seconds=30,
                      scale_name="smoke", clients=1)
    try:
        monkeypatch.setattr(run.Stack, "answer", corrupted)
        outcome = run.measure_end_to_end(ctx)
    finally:
        run.cleanup(ctx)
    assert any("oracle" in reason for reason in outcome["failures"])


def test_a_stopped_pass_counts_what_it_did_not_send():
    sent = []
    records, _ = run.closed_loop(lambda position: (sent.append(position),
                                                   None),
                                 count=6, clients=2, stop_after_s=0.0)
    assert records == [] and sent == []
    assert len(run.unanswered(records, 6)) == 6


def test_more_clients_than_cpus_is_refused():
    done = cli("--workload", "range_tight", "--scale", "smoke",
               "--clients", host.nproc() + 1)
    assert done.returncode != 0
    assert "refusing" in done.stderr
    assert not done.stdout.strip().startswith("{")


def _with(results, workload, metric, value):
    changed = copy.deepcopy(results)
    cell = changed["workloads"][workload]["end_to_end"][metric]
    cell.update(median=value, q1=value, q3=value, values=[value])
    return changed


def test_compare_flags_a_regression(smoke_pass, tmp_path, capsys):
    qps = smoke_pass["workloads"]["knn_hard"]["end_to_end"]["qps"]["median"]
    files = {
        "same": smoke_pass,
        "worse": _with(smoke_pass, "knn_hard", "qps", qps / 2),
        # Twice a cache hit's few microseconds is under the p50 floor.
        "hit": _with(smoke_pass, "zipf_mixed", "latency_p50_ms", 0.02),
        "slow_hit": _with(smoke_pass, "zipf_mixed", "latency_p50_ms", 0.04),
    }
    paths = {}
    for tag, payload in files.items():
        paths[tag] = tmp_path / f"{tag}.json"
        paths[tag].write_text(json.dumps(payload), encoding="utf-8")
    assert compare.compare_files(paths["same"], paths["same"]) == 0
    assert compare.compare_files(paths["hit"], paths["slow_hit"]) == 0
    assert compare.compare_files(paths["same"], paths["worse"]) == 1
    printed = capsys.readouterr().out
    assert "knn_hard     qps" in printed and "worse" in printed
