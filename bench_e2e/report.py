"""Running, printing and writing results.

``BENCHMARK.json`` is the single list of metric names, units and
bounds: a run that produces a name it does not list, or misses one it
does, is a bug in the benchmark and fails loudly.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys

from . import OUT_DIR, ROOT, host

RUN_TIMEOUT_S = 180


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def trace_path(workload: str) -> str:
    """Where a ``--trace 1`` run of *workload* writes its spans."""
    return os.path.join(OUT_DIR, f"trace-{workload}.jsonl")


def _units(contract: dict, trace: int) -> dict:
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in contract[section]}


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

def run_one(args) -> int:
    """Run ``--workload`` here; last stdout line is the result object."""
    from . import layers, run      # import NumPy and the program

    contract = load_contract()
    if args.workload not in run.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{list(run.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = (contract["run_seconds"] if args.seconds is None
               else args.seconds)
    units = _units(contract, args.trace)
    ctx = run.prepare(args.workload, seed=args.seed, seconds=seconds,
                      scale_name=args.scale, clients=args.clients)
    try:
        if args.trace:
            outcome = layers.measure_layers(ctx, trace_path(args.workload))
        else:
            outcome = run.measure_end_to_end(ctx)
    finally:
        run.cleanup(ctx)

    measured = outcome["metrics"]
    if set(measured) != set(units):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(measured))}, extra "
            f"{sorted(set(measured) - set(units))}")
    failures = outcome["failures"]
    result = {
        "correct": not failures,
        "attempted": outcome["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": measured[name], "unit": units[name]}
                    for name in units},
    }
    detail = {
        "workload": args.workload, "trace": args.trace,
        "seconds": seconds, "failures": failures[:20],
        "fingerprint": host.fingerprint(ROOT, seed=args.seed,
                                        scale=args.scale),
        **outcome["detail"], **result,
    }
    out_path = args.out or os.path.join(
        OUT_DIR, f"{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"# {args.workload}  seed={args.seed}  seconds={seconds}  "
          f"trace={args.trace}  scale={args.scale}  "
          f"requests={outcome['attempted']}  "
          f"noisy={outcome['detail']['noisy']}")
    for name in units:
        print(f"{name:42s} {measured[name]:16.6f} {units[name]}")
    for reason in failures[:20]:
        print(f"FAILED: {reason}")
    if outcome["detail"].get("overrun") and not failures:
        print(f"NOISY, not failed: {outcome['detail']['overrun']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# a full pass: every workload, each in a fresh interpreter
# ----------------------------------------------------------------------

def _run_child(workload: str, trace: int, args, seconds, out_path: str
               ) -> dict:
    command = [sys.executable, "-m", "bench_e2e", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", args.scale,
               "--out", out_path]
    if args.clients is not None:
        command += ["--clients", str(args.clients)]
    # A session of its own, so a run that hangs is killed together with
    # the shard workers it started.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    sys.stdout.write(stdout)
    sys.stderr.write(stderr)
    if child.returncode not in (0, 1) or not os.path.exists(out_path):
        raise RuntimeError(f"{workload} --trace {trace} exited "
                           f"{child.returncode} without a result")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def _write_results(result: dict, path: str) -> None:
    """Valid JSON with one metric per line, so a committed copy stays
    short and reads in a diff."""
    def section(value) -> str:
        rows = ",\n".join(f"   {json.dumps(metric)}: {json.dumps(cell)}"
                          for metric, cell in value.items())
        return "{\n" + rows + "\n  }"

    workloads = ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: "
            + (section(value) if isinstance(value, dict)
               else json.dumps(value))
            for key, value in entry.items()) + "\n }"
        for name, entry in result["workloads"].items())
    head = {k: v for k, v in result.items() if k != "workloads"}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=1)[:-2]
                 + ',\n "workloads": {\n' + workloads + "\n}}\n")


def run_all(args) -> int:
    """Every workload x {untraced, traced} x ``--runs``."""
    from .fixture import WORKLOADS

    contract = load_contract()
    seconds = (contract["run_seconds"] if args.seconds is None
               else args.seconds)
    # All six: BENCHMARK.json leaves ``ingest_swap`` to this pass.
    names = list(WORKLOADS)
    collected = {name: {0: [], 1: []} for name in names}
    for _ in range(args.runs):
        for name in names:
            for trace in (0, 1):
                out_path = os.path.join(OUT_DIR, f"{name}-trace{trace}.json")
                collected[name][trace].append(
                    _run_child(name, trace, args, seconds, out_path))
    # Each traced child wrote its own file; together they are the trace
    # of the (last) pass.
    with open(os.path.join(OUT_DIR, "trace.jsonl"), "w",
              encoding="utf-8") as whole:
        for name in names:
            with open(trace_path(name), encoding="utf-8") as part:
                whole.write(part.read())

    failures = []
    workloads = {}
    for name in names:
        runs = collected[name]
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            entry[section] = {
                metric: {"unit": runs[trace][0]["metrics"][metric]["unit"],
                         **_summary([r["metrics"][metric]["value"]
                                     for r in runs[trace]])}
                for metric in runs[trace][0]["metrics"]}
        every = runs[0] + runs[1]
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        entry.update(
            attempted=attempted, failed=failed,
            failed_share=failed / attempted,
            noisy=any(r["noisy"] for r in every),
            requests_digest=runs[0][0]["requests_digest"],
            results_per_request=runs[0][0]["results_per_request"],
        )
        failures += [f"{name}: {reason}"
                     for r in every for reason in r["failures"]]
        workloads[name] = entry

    # knn_hard and shard2_knn send the same list and sample the same
    # requests for the oracle: what they served must agree byte for byte.
    hard = collected["knn_hard"][0][0]["sample_digests"]
    sharded = collected["shard2_knn"][0][0]["sample_digests"]
    for position in sorted(set(hard) & set(sharded), key=int):
        if hard[position] != sharded[position]:
            failures.append(f"request {position}: knn_hard and shard2_knn "
                            f"served different distances")

    # One reading per child run (its median), so single-reading jitter
    # does not flag every pass; a child that moved within itself counts.
    every = [r for name in names for trace in (0, 1)
             for r in collected[name][trace]]
    noisy = (any(r["noisy"] for r in every) or host.is_noisy(
        [statistics.median(r["calibration_ms"]) for r in every]))
    result = {
        "fingerprint": host.fingerprint(ROOT, seed=args.seed,
                                        scale=args.scale),
        "runs": args.runs, "seconds": seconds,
        "noisy": noisy, "noisy_runs": sum(r["noisy"] for r in every),
        "child_runs": len(every),
        "failures": failures, "workloads": workloads,
    }
    out_path = args.out or os.path.join(OUT_DIR, "results.json")
    _write_results(result, out_path)

    print(f"\n# full pass: {args.runs} run(s), seed {args.seed}, "
          f"noisy={noisy} ({result['noisy_runs']} of {len(every)} child "
          f"runs)")
    for name in names:
        entry = workloads[name]
        print(f"\n## {name}  failed_share={entry['failed_share']:.6f}  "
              f"noisy={entry['noisy']}")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                print(f"{metric:42s} {cell['median']:16.6f} "
                      f"{cell['unit']:8s} "
                      f"[{cell['q1']:.6g} .. {cell['q3']:.6g}]")
    for reason in failures:
        print(f"FAILED: {reason}")
    print(f"\nwrote {os.path.relpath(out_path)}")
    return 1 if failures else 0
