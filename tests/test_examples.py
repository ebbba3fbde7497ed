"""Smoke-run the example scripts.

Examples are documentation: a broken one is a broken promise.  Each is
executed in full as a subprocess and checked for a clean exit and
non-trivial output.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

#: Every example script; each runs in a few seconds.
FAST_EXAMPLES = [
    "quickstart.py",
    "figures1_to_5.py",
    "query_by_humming.py",
    "index_tuning.py",
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
    """No example may exist without being run by the list above."""
    on_disk = {
        name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
    }
    assert on_disk == set(FAST_EXAMPLES)


def test_quickstart_finds_its_target():
    result = run_example("quickstart.py")
    assert "<-- the hummed melody" in result.stdout
