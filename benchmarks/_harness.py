"""Benchmark-suite helpers.

Workload scales and experiment logic live in :mod:`repro.experiments`;
this module only adapts them to the pytest-benchmark harness.
"""

from repro.experiments import format_series


def print_series(title: str, columns: dict) -> None:
    """Print an experiment's rows (see repro.experiments.format_series)."""
    print()
    print(format_series(title, columns))
