"""Hot numeric kernels, one numpy function per operation.

    maxsim_packed    late-interaction score of packed documents, through the table
    assign_nearest   nearest centroid per point (k-means assignment), on every usable core
    centroid_sums    per-cluster (weighted) sums and counts (k-means update)
    adc_topk_rows    per query row, the best-scoring table rows of its probed partitions

Each is deterministic: the same inputs give the same bits, whatever the
thread, core or BLAS-thread count. _spread splits work over the usable
cores: assign_nearest's row blocks, and build_index's PQ subspaces.
"""

from __future__ import annotations

import os
import threading

import numpy as np

BACKEND = "numpy"  # reported as fbl.kernel_backend and in the `fbl bench` CSV


# -- late-interaction scoring -------------------------------------------------
#
# Pack row p is table[refs[p]], and document i of a call owns pack rows
# starts[i]:ends[i] (zero rows already dropped). Score: sum over query rows of
# the max inner product against the document's rows, the maxima summed in
# float64; -inf with no rows. A max ignores a repeated row, so packing keeps
# each table row once per document. A score never depends on which other
# documents are scored with it, so re-scoring a subset gives the full scan's
# bits.
#
# A table with as many rows as refs is the rows (refs count 0..N-1), and each
# document is one GEMM over its own rows. Otherwise rows repeat, and the whole
# table is multiplied once per call, so every call on the same table reads the
# same product bits; a context-free embedder keeps the table within the
# vocabulary. Documents gather their rows from that product by refs, longest
# first, in chunks of at most _ROW_BUDGET rows once each is padded with -inf to
# its chunk's longest; a chunk lies row j of each document, then row j + 1, so
# one max over the leading axis reduces it.

_ROW_BUDGET = 4096


def maxsim_packed(
    query: np.ndarray, table: np.ndarray, refs: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    lengths = ends - starts
    out = np.full(lengths.shape[0], -np.inf)
    qt = np.ascontiguousarray(query.T)
    if table.shape[0] == refs.shape[0]:
        for i, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            if e > s:
                out[i] = float((table[s:e] @ qt).max(axis=0).sum(dtype=np.float64))
        return out
    order = np.argsort(-lengths, kind="stable")
    order = order[lengths[order] > 0]
    lengths, done = lengths[order], np.cumsum(lengths[order])
    ref = refs[concat_ranges(starts[order], ends[order])]
    products = np.full((table.shape[0] + 1, qt.shape[1]), -np.inf, dtype=np.float32)
    np.matmul(table, qt, out=products[:-1])  # the whole table, then a row of -inf
    c0 = 0
    while c0 < lengths.shape[0]:
        c1 = min(lengths.shape[0], c0 + max(1, _ROW_BUDGET // int(lengths[c0])))
        chunk = ref[int(done[c0] - lengths[c0]) : int(done[c1 - 1])]
        out[order[c0:c1]] = _max_sums(products, chunk, lengths[c0:c1])
        c0 = c1
    return out


def _max_sums(products, at, lengths):
    """Scores of documents (lengths > 0, the first the longest) whose rows are products[at]."""
    m, n = lengths.shape[0], int(lengths[0])
    slots = np.full((n, m), products.shape[0] - 1)  # short documents pad with the -inf row
    # slots.T walks document by document, as at does; its first lengths[i] are document i's
    slots.T[np.arange(n) < lengths[:, None]] = at
    best = products[slots.ravel()].reshape(n, m, products.shape[1]).max(axis=0)
    return best.astype(np.float64).sum(axis=1)


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Positions start..end-1 of every range (end >= start), concatenated in order.

    Output slot j of range i holds start_i + (j - where range i begins in the
    output), so one arange plus a per-range shift builds it without a loop.
    """
    lengths = ends - starts
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(shift, lengths)


# -- k-means helpers ----------------------------------------------------------
#
# assign_nearest builds ||x||^2 + ||c||^2 - 2 x.c in blocks of _BLOCK_ROWS
# points: a (512, 256) float64 block is 1 MB and stays in a core's 2 MB L2
# (on a 2-core VM, blocks of 256 and 512 rows built balanced_20k in 2.23 s,
# 1024 in 2.28 s and 2048 in 2.38 s). The blocks split into one contiguous
# run per usable core; the caller runs the first and a process-wide thread
# pool the others, since the GEMM, the ufuncs, argmin and the gather release
# the GIL. A block's arithmetic does not depend on its neighbours or on who
# runs it, so the bits are those of 8192-row blocks on one thread, which
# test_assign_nearest_np_is_bit_identical_to_the_allocating_form checks.
# _spread serves build_index's PQ subspaces too, each trained and encoded
# whole by one thread; a _spread inside a part runs on that thread, so a
# subspace's assign_nearest never waits for the pool thread running it.

_BLOCK_ROWS = 512
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no CPU affinity on this platform
    _WORKERS = os.cpu_count() or 1
_pool = None  # made by the first call that splits its blocks
_part = threading.local()  # .running: this thread runs one of a _spread's parts


def _forget_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_forget_pool)


def _spread(run, n_blocks: int) -> None:
    """run(b0, b1) over blocks 0..n_blocks-1, one contiguous run per worker.

    The caller takes the first run. Every run ends before this returns, and
    an error in any of them is raised here. Called inside a part, it runs
    every block on the calling thread.
    """
    global _pool
    parts = 1 if getattr(_part, "running", False) else max(1, min(_WORKERS, n_blocks))
    if parts == 1:
        run(0, n_blocks)
        return
    cuts = [n_blocks * i // parts for i in range(parts + 1)]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # about 4 ms; not at import

        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="fbl-kernels",
                                   initializer=setattr, initargs=(_part, "running", True))
    others = [_pool.submit(run, b0, b1) for b0, b1 in zip(cuts[1:-1], cuts[2:])]
    _part.running = True  # a pool thread runs nothing but parts, so its flag stays set
    try:
        run(cuts[0], cuts[1])
    finally:
        _part.running = False
        for f in others:
            f.exception()  # waits, so no run writes after an error returns
    for f in others:
        f.result()


def assign_nearest(points: np.ndarray, centroids: np.ndarray):
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    c2 = np.einsum("kd,kd->k", centroids, centroids, dtype=np.float64)

    def run(b0, b1):
        for s in range(b0 * _BLOCK_ROWS, min(n, b1 * _BLOCK_ROWS), _BLOCK_ROWS):
            e = min(n, s + _BLOCK_ROWS)
            block = points[s:e]
            # in place, in the input dtype until the float64 terms join;
            # (-2g) + c2 is c2 - 2g exactly
            d2 = block @ centroids.T
            d2 *= -2.0
            d2 = d2.astype(np.float64, copy=False)
            d2 += c2
            d2 += np.einsum("nd,nd->n", block, block, dtype=np.float64)[:, None]
            lab = np.argmin(d2, axis=1)
            labels[s:e] = lab
            dists[s:e] = np.maximum(d2[np.arange(e - s), lab], 0.0)

    _spread(run, -(-n // _BLOCK_ROWS))
    return labels, dists


def centroid_sums(points: np.ndarray, labels: np.ndarray, k: int, weights: np.ndarray):
    """Per-cluster sums of w * x and totals of w.

    The weighted points add in stable label order, so the sums do not
    depend on how the labels were computed.
    """
    counts = np.bincount(labels, weights=weights, minlength=k)
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    order = np.argsort(labels, kind="stable")
    sorted_pts = points[order].astype(np.float64, copy=False)  # a fresh array
    sorted_pts *= weights[order, None]
    sorted_lab = labels[order]
    if sorted_lab.size:
        # each cluster's block starts where the sorted label changes
        new = np.ones(sorted_lab.shape[0], dtype=bool)
        np.not_equal(sorted_lab[1:], sorted_lab[:-1], out=new[1:])
        first = np.flatnonzero(new)
        sums[sorted_lab[first]] = np.add.reduceat(sorted_pts, first, axis=0)
    return sums, counts


# -- asymmetric distance scan -------------------------------------------------
#
# The inverted lists hold each table row once: entry j is table row rows[j],
# with PQ code codes[j]. Query row r scans the entries starts[r, p]:ends[r, p]
# of its probed partitions; bases[r, p] is the row-to-coarse-centroid term
# shared by every entry of that partition. Each row keeps the table rows of
# the entries scoring at least its `per_row`-th best, ties included, in probe
# order (query rows ascending); no order or score is returned, as candidate
# generation reads only the set. A row scanning at most `per_row` entries
# keeps them all, so when no row is cut nothing is scored and no look-up
# table is built. Otherwise luts[r, m, k], the inner product of query row r's
# m-th subvector with codebook centroid k, is built for every row at once.

_ADC_BLOCK_CODES = 1 << 18  # codes scored at once; bounds the scan's temporaries


def _adc_scan_probes(
    luts: np.ndarray,
    codes: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    bases: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADC score of every probed code for every query row.

    Returns (row, code position, score) per scanned code, rows ascending and
    partitions in probe order. Terms add in float64 in subspace order, then
    the base, so a code's score does not depend on what else is scanned.
    """
    nq, m, k = luts.shape
    lengths = ends - starts
    pos = concat_ranges(starts.ravel(), ends.ravel())
    rows = np.repeat(np.arange(nq, dtype=np.int64), lengths.sum(axis=1))
    picked = np.take(codes, pos, axis=0)
    lut_flat = luts.reshape(-1)
    row_base = rows * (m * k)
    acc = np.take(lut_flat, row_base + picked[:, 0]).astype(np.float64)
    for s in range(1, m):
        acc += np.take(lut_flat, row_base + (s * k) + picked[:, s])
    acc += np.repeat(bases.ravel(), lengths.ravel())
    return rows, pos, acc


def _row_cuts(neg: np.ndarray, lengths: np.ndarray, per_row: int) -> np.ndarray:
    """Each row's per_row-th smallest of its own span of neg; +inf in a row of <= per_row."""
    ends = np.cumsum(lengths)
    cuts = np.full(lengths.shape[0], np.inf)
    for i in np.flatnonzero(lengths > per_row).tolist():
        cuts[i] = np.partition(neg[ends[i] - lengths[i] : ends[i]], per_row - 1)[per_row - 1]
    return cuts


def adc_topk_rows(q_rows, codebooks, codes, starts, ends, bases, rows, per_row):
    lengths = (ends - starts).sum(axis=1)
    if per_row >= lengths.max(initial=0):  # no row is cut: every entry, unscored
        return np.take(rows, concat_ranges(starts.ravel(), ends.ravel()))
    nq = q_rows.shape[0]
    m, k, dsub = codebooks.shape
    luts = np.empty((nq, m, k), dtype=np.float32)
    # every subspace's table in one batched product, (m, nq, dsub) @ (m, dsub, K),
    # written straight into luts
    np.matmul(
        q_rows.reshape(nq, m, dsub).transpose(1, 0, 2),
        codebooks.transpose(0, 2, 1),
        out=luts.transpose(1, 0, 2),
    )
    step = max(1, _ADC_BLOCK_CODES // int(lengths.max()))
    parts = []
    for r0 in range(0, nq, step):  # codes scoring at least their row's per_row-th best
        block = slice(r0, r0 + step)
        qrow, pos, scores = _adc_scan_probes(
            luts[block], codes, starts[block], ends[block], bases[block]
        )
        keep = -scores <= _row_cuts(-scores, lengths[block], per_row)[qrow]
        parts.append(np.take(rows, pos[keep]))
    return np.concatenate(parts)


# the scan stays reachable under this name for instrumentation that times
# it; adc_topk_rows calls it as _adc_scan_probes, so such timing never nests
adc_scan_probes = _adc_scan_probes
