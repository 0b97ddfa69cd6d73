"""Compare the compiled and numpy recurrence kernels on one workload.

The workload is the quantity both backends actually compute in analysis
runs: per-diagonal recurrence counts for an ascending radius list, over
the mean-field trajectory of a two-neuron network in its aperiodic
regime.  Outputs must match bit for bit; timing is the only difference.

Usage: python3 benchmarks/bench_rqa.py [--sizes 1000,2000,4000,8000]
"""

import argparse
import time

import numpy as np

from qnetdyn.network import QRNNParams, build_qrnn_map, run_trajectory
from qnetdyn.fields import activity_mean_field
from qnetdyn.rqa import KERNEL_BACKEND
from qnetdyn.rqa import _kernels_py

try:
    from qnetdyn.rqa import _kernels
except ImportError:
    _kernels = None

RADII = np.array([0.001, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1])


def trajectory(n_samples):
    map_ = build_qrnn_map(QRNNParams(0.550129597))
    half = np.full(4, 0.5, dtype=complex)
    (mf,) = run_trajectory(
        map_, half, 100, n_samples, [lambda block: activity_mean_field(block, 2)]
    )
    return np.ascontiguousarray(mf)


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="1000,2000,4000,8000",
        help="comma-separated trajectory lengths",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"selected backend at import: {KERNEL_BACKEND}")
    if _kernels is None:
        print("compiled kernel not built; timing the numpy backend only")
    header = f"{'T':>7} {'pairs':>12} {'numpy [s]':>10}"
    if _kernels is not None:
        header += f" {'compiled [s]':>13} {'speedup':>8} {'identical':>10}"
    print(header)

    for n in sizes:
        pts = trajectory(n)
        pairs = n * (n - 1) // 2
        t_py, ref = best_of(
            lambda: _kernels_py.radius_bucket_counts(pts, RADII), args.repeats
        )
        row = f"{n:>7} {pairs:>12} {t_py:>10.3f}"
        if _kernels is not None:
            t_c, out = best_of(
                lambda: _kernels.radius_bucket_counts(pts, RADII), args.repeats
            )
            same = "yes" if np.array_equal(ref, out) else "NO"
            row += f" {t_c:>13.3f} {t_py / t_c:>7.1f}x {same:>10}"
        print(row)


if __name__ == "__main__":
    main()
