#!/usr/bin/env python3
"""Time the numba kernels against their numpy fallbacks.

Usage: python benchmarks/kernel_bench.py [--repeats 5]

Prints one CSV row per (kernel, backend) pair so the two paths can be
compared directly. The same workloads run on both backends; numbers are
wall-clock means after a warm-up call (which also absorbs JIT compilation).
"""

import argparse
import time

import numpy as np

from fbl import _kernels


def _time(fn, *args, repeats=5):
    fn(*args)  # warm-up / JIT
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if not _kernels.HAVE_NUMBA:
        print("numba unavailable; nothing to compare (set FBL_KERNELS=auto and install numba)")
        return

    rng = np.random.default_rng(0)

    # late-interaction scan: 12,800 docs x 16 tokens x 64 dims, 64-row query
    rows = rng.standard_normal((204_800, 64)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    offsets = np.arange(0, 204_800 + 1, 16, dtype=np.int64)
    query = rng.standard_normal((64, 64)).astype(np.float32)
    query /= np.linalg.norm(query, axis=1, keepdims=True)

    # k-means assignment: 200k points x 64 dims against 320 centroids
    points = rng.standard_normal((200_000, 64))
    centroids = rng.standard_normal((320, 64))
    labels = rng.integers(0, 320, size=200_000).astype(np.int64)

    # ADC top-k: 64 query rows, each probing 8 of 64 partitions of ~3,125
    # codes (M=16, K=256), keeping 16 codes per row
    luts = rng.standard_normal((64, 16, 256)).astype(np.float32)
    flat_codes = rng.integers(0, 256, size=(200_000, 16)).astype(np.uint8)
    flat_ids = np.arange(200_000, dtype=np.uint64)
    part_offsets = np.linspace(0, 200_000, 65).astype(np.int64)
    probes = np.sort(np.stack([rng.choice(64, 8, replace=False) for _ in range(64)]), axis=1)
    starts, ends = part_offsets[probes], part_offsets[probes + 1]
    bases = rng.standard_normal(probes.shape)

    cases = [
        ("maxsim_packed", (_kernels.maxsim_packed_np, _kernels.maxsim_packed_nb),
         (query, rows, offsets)),
        ("assign_nearest", (_kernels.assign_nearest_np, _kernels.assign_nearest_nb),
         (points, centroids)),
        ("centroid_sums", (_kernels.centroid_sums_np, _kernels.centroid_sums_nb),
         (points, labels, 320)),
        ("adc_topk_rows", (_kernels.adc_topk_rows_np, _kernels.adc_topk_rows_nb),
         (luts, flat_codes, flat_ids, starts, ends, bases, 16)),
    ]

    print("kernel,backend,mean_s,speedup_vs_numpy")
    for name, (fn_np, fn_nb), call_args in cases:
        t_np = _time(fn_np, *call_args, repeats=args.repeats)
        t_nb = _time(fn_nb, *call_args, repeats=args.repeats)
        print(f"{name},numpy,{t_np:.6f},1.00")
        print(f"{name},numba,{t_nb:.6f},{t_np / t_nb:.2f}")


if __name__ == "__main__":
    main()
