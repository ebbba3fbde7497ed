"""Command line of the benchmark.

Three ways in:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run of one
  workload in this process; the last line of standard output is the
  result object ``BENCHMARK.json``'s contract prescribes.
* no ``--workload`` — a full pass: every workload, untraced then
  traced, each run in a fresh interpreter; ``--runs N`` repeats the
  pass and reports medians and quartiles.
* ``--compare A.json B.json`` — two result files against the bounds.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import OUT_DIR, ROOT


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench_e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, here")
    parser.add_argument("--seed", type=int, default=11,
                        help="traffic seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="a pass (a request list of fixed length) "
                             "still running after 3x this is stopped and "
                             "fails (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--clients", type=int, default=None,
                        help="closed-loop client threads (never above nproc)")
    parser.add_argument("--runs", type=int, default=1,
                        help="full pass only: repeat it this many times")
    parser.add_argument("--out", default=None,
                        help="result file (default: bench_e2e/out/...)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two full-pass result files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from .compare import compare_files
        return compare_files(*args.compare)

    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program to measure: {source}/repro is missing",
              file=sys.stderr)
        return 2
    # Before NumPy is imported anywhere in this process.
    from . import host
    host.quiet_process(os.path.join(OUT_DIR, "tmp"))
    sys.path.insert(0, source)

    from . import report
    try:
        if args.workload:
            return report.run_one(args)
        return report.run_all(args)
    finally:
        # However the run ended: no process of ours outlives this one.
        host.stop_tracker()


if __name__ == "__main__":
    sys.exit(main())
