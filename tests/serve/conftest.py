"""Helpers shared by the serving tests."""

import os


def pin_cpus(monkeypatch, count, *, via="affinity"):
    """Make the scheduler read *count* usable CPUs, so it starts that
    many dispatchers: through the affinity mask, or through
    ``os.cpu_count`` on a platform without one.

    A test whose outcome depends on how many requests run at once pins
    the count, so that it reads the same on every host.
    """
    if via == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
    return count
