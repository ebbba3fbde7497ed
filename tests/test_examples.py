"""Smoke-run the example scripts.

Examples are documentation: a broken one is a broken promise.  Each is
executed as a subprocess; the quicker scripts run in full, and all are
checked for a clean exit and non-trivial output.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

#: Scripts fast enough for the unit-test suite (the heavier ones run in
#: the CI ``benchmarks-smoke`` job).
FAST_EXAMPLES = [
    "quickstart.py",
    "singing_tutor.py",
    "figures1_to_5.py",
]


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=240,
    )


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs_clean(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr[-2000:]
    assert len(result.stdout) > 100  # produced a real report


def test_every_example_file_is_listed_or_known():
    """No example may exist without being run somewhere: either in the
    fast list above or in the CI ``benchmarks-smoke`` job."""
    known_slow = {
        "query_by_humming.py",    # full audio round trip (~20 s)
        "index_tuning.py",        # builds many indexes (~30 s)
        "hum_any_part.py",        # subsequence windows (~15 s)
        "corpus_report.py",       # 500-melody key estimation (~15 s)
    }
    on_disk = {
        name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
    }
    assert on_disk == set(FAST_EXAMPLES) | known_slow


def test_quickstart_finds_its_target():
    result = run_example("quickstart.py")
    assert "<-- the hummed melody" in result.stdout
