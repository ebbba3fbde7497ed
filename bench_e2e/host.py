"""The host the benchmark runs on: noise controls, fingerprint, calibration.

Nothing here touches the program under test.  NumPy is imported inside
the functions because :func:`quiet_process` has to run before NumPy
(and the BLAS it loads) is first imported.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time

#: Two calibration spins further apart than this flag the run ``noisy``.
NOISY_SHARE = 0.10

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BYTES = 1 << 30


def quiet_process(tmp_dir: str) -> None:
    """Remove two host effects that swamp the program's own time.

    * BLAS worker threads spin-wait; on a shared 2-core box a
      descheduled vCPU turns a 40 ms matmul into 500 ms.  One BLAS
      thread is also what a service that parallelises across requests
      wants.
    * glibc hands large NumPy temporaries back to the kernel on every
      free; on a virtual machine re-faulting those pages costs up to
      100x a native fault and varies by the second.  Keeping freed
      memory mapped makes the same request cost the same twice.

    Both settings are exported as well, so shard workers started with
    ``spawn`` inherit them.  Temporary files (the shard tier's corpus
    file) are kept inside *tmp_dir* so the run writes only under the
    benchmark's own ``out/`` directory.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["MALLOC_TRIM_THRESHOLD_"] = str(_KEEP_BYTES)
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(_KEEP_BYTES)
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)
        libc.mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES)
    except (OSError, AttributeError):
        pass  # not glibc: the run is merely noisier


def stop_tracker() -> None:
    """Stop ``multiprocessing``'s resource tracker and wait until it
    has ended.

    Called on every way out of a run, so that no process of ours
    outlives this one.  The program closes its own shard workers (and
    ``multiprocessing`` terminates and joins any a failed run left, when
    the interpreter exits).  What nothing stops is the tracker process a
    ``spawn`` start launches (the program spawns when it builds a shard
    fleet while service threads are alive): it ends only once its pipe
    closes, which without this is a moment after this process is gone.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def nproc() -> int:
    """CPUs this process may run on (what bounds the client threads)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(repo_root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, timeout=10,
            capture_output=True, text=True, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(repo_root: str, *, seed: int, scale: str) -> dict:
    """What must be equal for two result files to be comparable."""
    import numpy as np

    try:
        load_1min = os.getloadavg()[0]
    except OSError:
        load_1min = None
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(repo_root),
        "seed": seed,
        "scale": scale,
        "load_1min": load_1min,
    }


def calibration_ms() -> float:
    """Time a fixed NumPy spin on a cache-resident block (no program
    code, nothing allocated inside the timed part); the best of five.

    Taken before and after a timed pass: two readings more than
    :data:`NOISY_SHARE` apart mean the host changed speed under the
    measurement, and the run is flagged instead of silently trusted.
    The block fits the cache because a buffer streamed from memory
    reads up to 10 % apart between two processes on an idle host (where
    its pages land), which would flag every full pass.
    """
    import numpy as np

    block = np.random.default_rng(0).standard_normal((256, 128))
    out = np.empty_like(block)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(150):
            np.multiply(block, block, out=out)
            np.cumsum(out, axis=1, out=out)
            np.minimum(out, 1.0, out=out)
            out.sort(axis=1)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def is_noisy(calibrations_ms: list[float]) -> bool:
    """True when any two of the readings differ by over 10 %."""
    if len(calibrations_ms) < 2:
        return False
    low, high = min(calibrations_ms), max(calibrations_ms)
    return (high - low) / low > NOISY_SHARE
