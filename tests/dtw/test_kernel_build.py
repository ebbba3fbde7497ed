"""The native kernel's build cache and its fallbacks.

The first batched call in a process compiles ``banded_dtw.c`` into
``$XDG_CACHE_HOME/repro`` (or loads it from there); later processes
load the cached build without running the compiler.  A missing
compiler, an unwritable cache or a damaged cached file leaves the NumPy
body answering, with the same answers and no exception.
"""

import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.dtw import kernels
from repro.dtw.kernels import banded_dtw_cost_batch
from repro.engine import QueryEngine

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on this host")

SRC = os.path.join(os.path.dirname(kernels.__file__), os.pardir, os.pardir)

#: Run in a fresh interpreter: count compiler runs around the first
#: batched call and report whether the native body answered it.
PROBE = textwrap.dedent("""
    import subprocess
    runs = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        runs.append(args)
        return real_run(*args, **kwargs)

    subprocess.run = counting_run
    import numpy as np
    from repro.dtw import kernels
    x = np.cumsum(np.ones(16))
    kernels.banded_dtw_cost_batch(x, x[None], 2)
    print(len(runs), kernels._native is not None)
""")


def _probe(cache_home) -> tuple[int, bool]:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    runs, native = done.stdout.split()
    return int(runs), native == "True"


@pytest.fixture
def fresh_load(monkeypatch, tmp_path):
    """Forget this process's loaded body and point the cache at an empty
    directory; return a function that answers a fixed batch (its exact
    costs, then a k-NN and a range answer through the engine)."""
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.normal(size=40))
    rows = np.cumsum(rng.normal(size=(300, 40)), axis=1)
    engine = QueryEngine(rows, band=4)

    def answer():
        costs = banded_dtw_cost_batch(x, rows, 4)
        return (costs.tolist(), engine.search(x, k=7)[0],
                engine.search(x, epsilon=float(np.sqrt(costs[40])))[0])

    # The answer of the body this process loaded (the native one where
    # there is a compiler), before the cache is pointed elsewhere.
    answer.expected = answer()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
    return answer


@needs_cc
def test_native_body_is_loaded_where_cc_exists():
    assert kernels._native_kernel() is not None


@needs_cc
def test_second_process_loads_the_cache_without_cc(tmp_path):
    assert _probe(tmp_path) == (1, True)
    assert [p.stat().st_mode & 0o777 for p in tmp_path.glob("repro")] \
        == [0o700]
    assert _probe(tmp_path) == (0, True)


@needs_cc
def test_truncated_cached_build_is_rebuilt(monkeypatch, fresh_load,
                                           tmp_path):
    assert kernels._native_kernel() is not None
    (built,) = (tmp_path / "cache" / "repro").glob("banded_dtw-*.so")
    # Point a second cache at a damaged copy under the same name (this
    # process already loaded the first file's path).
    damaged = tmp_path / "damaged" / "repro" / built.name
    damaged.parent.mkdir(parents=True)
    damaged.write_bytes(built.read_bytes()[:200])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "damaged"))
    monkeypatch.setattr(kernels, "_native", kernels._UNLOADED)
    assert fresh_load() == fresh_load.expected
    assert kernels._native is not None
    assert damaged.stat().st_size > 200


def test_no_compiler_means_the_numpy_body(monkeypatch, fresh_load):
    monkeypatch.setattr(shutil, "which", lambda *args, **kwargs: None)
    assert fresh_load() == fresh_load.expected
    assert kernels._native is None


def test_unwritable_cache_means_the_numpy_body(monkeypatch, fresh_load,
                                               tmp_path):
    # A regular file where the cache directory's parent should be:
    # nothing can be created below it, whatever the user's rights.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert fresh_load() == fresh_load.expected
    assert kernels._native is None
