"""The recurrence counts of ``_kernels_py.radius_bucket_counts``, walked in C.

``_native.c`` is compiled once per source and flags, into
``__pycache__/_native.<digest>.so`` beside it, and loaded with ctypes,
whose foreign calls release the interpreter lock.  Importing this module
with that file present only loads it.  A missing file is built, when
``cc`` is on PATH, into a temporary name in the same directory, then
published with ``os.replace``, so concurrent builds never load a
half-written library; the libraries of other digests are then deleted.
A compiler that refuses the source is published the same way, as a file
holding its error output, which later imports fail to load without
starting a process; a new digest or a deleted ``__pycache__`` retries.
If the build or the load fails, ``radius_bucket_counts`` is None and the
numpy kernel counts instead.  The thread budget is kept here, with the
only recurrence kernel that starts threads.
"""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import _kernels_py

SOURCE = Path(__file__).with_name("_native.c")
# -ffp-contract=off: no fused multiply-add, so the squared sums are numpy's
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_DIGEST = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
LIBRARY = SOURCE.parent / "__pycache__" / f"{SOURCE.stem}.{_DIGEST}.so"

# Threads one recurrence pass may use; None means one per usable CPU.
_thread_budget = None


def set_thread_budget(threads):
    """Cap the threads of every later recurrence pass in this process.

    Each worker of a sweep's pool sets its share of the CPUs here, so the
    workers' kernels together run one thread per CPU.
    """
    global _thread_budget
    _thread_budget = threads


def usable_cpus():
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _build():
    """Compile SOURCE to LIBRARY, else store there cc's refusal; prune other digests."""
    LIBRARY.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{LIBRARY.stem}.", suffix=".tmp", dir=LIBRARY.parent)
    os.close(fd)
    try:
        cc = subprocess.run(
            ["cc", *CFLAGS, "-o", tmp, str(SOURCE)], capture_output=True, timeout=120
        )
        if cc.returncode < 0:  # a signal, not a verdict on the source: not remembered
            raise subprocess.CalledProcessError(cc.returncode, cc.args)
        if cc.returncode > 0:  # refused: remembered as a library that cannot load
            Path(tmp).write_bytes(cc.stderr)
        os.chmod(tmp, 0o755)  # readable by all, as the file beside it
        os.replace(tmp, LIBRARY)
        for stale in set(LIBRARY.parent.glob(f"{SOURCE.stem}.*.so")) - {LIBRARY}:
            stale.unlink(missing_ok=True)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The compiled kernel function, built on a cache miss; None if it fails."""
    try:
        if not LIBRARY.is_file() and shutil.which("cc"):  # with no cc, the load fails
            _build()
        walk = ctypes.CDLL(str(LIBRARY)).radius_bucket_counts
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    walk.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, ptr]
    walk.restype = None
    return walk


_walk = _load()


def _radius_bucket_counts(points, radii):
    """``_kernels_py.radius_bucket_counts``, counted by the compiled walk.

    points: (T, dim) float64, radii: (R,) float64 strictly ascending.
    Returns the same (R, T-1) int64 histogram.  Every pair's squared sum
    is formed as in ``squared_sums``; a pair whose first term alone, or
    whose full sum, exceeds the largest bound is skipped, and the rest
    are bucketed by a linear scan over ``squared_bounds(radii)``.  Offset d is counted by
    thread (d - 1) mod n of n threads, one per usable CPU or as many as
    ``set_thread_budget`` allows: each thread owns whole columns of the
    histogram, so no increment is shared.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n_time, dim = points.shape
    bounds = _kernels_py.squared_bounds(radii)
    if dim < 1 or bounds.shape[0] < 1:  # the walk reads a first coordinate and a last bound
        raise ValueError(f"need points with coordinates and radii, got {points.shape}, {radii!r}")
    buckets = np.zeros((bounds.shape[0], n_time), dtype=np.int64)  # column d: offset d
    n_threads = max(1, min(_thread_budget or usable_cpus(), n_time - 1))
    # the arrays stay referenced here until every walk over them returns
    walk = functools.partial(
        _walk, points.ctypes.data, n_time, dim, bounds.ctypes.data, bounds.shape[0]
    )
    if n_threads == 1:
        walk(1, 1, buckets.ctypes.data)
    else:
        # leaving the block joins every thread, so none outlives the call
        with ThreadPoolExecutor(n_threads) as pool:
            out = buckets.ctypes.data
            shares = [pool.submit(walk, i + 1, n_threads, out) for i in range(n_threads)]
            for share in shares:
                share.result()
    return buckets[:, 1:]


radius_bucket_counts = None if _walk is None else _radius_bucket_counts
