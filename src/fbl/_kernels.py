"""Hot numeric kernels with two interchangeable backends.

There is one kernel per operation, and each exists twice with the same
contract: a numba ``@njit`` version (``*_nb``) and a pure-numpy one
(``*_np``). The operations are

    maxsim_packed    late-interaction score of every packed document
    assign_nearest   nearest centroid per point (k-means assignment)
    centroid_sums    per-cluster sums and counts (k-means update)
    adc_topk_rows    per query row, the top codes of its probed partitions

The active backend is picked once at import time from the ``FBL_KERNELS``
environment variable:

    FBL_KERNELS=auto    use numba when importable, else numpy (default)
    FBL_KERNELS=numba   require numba, fail fast if missing
    FBL_KERNELS=numpy   force the numpy fallback

Both variants stay importable so the kernel benchmark and the equivalence
tests can time and compare them directly. Results are deterministic within
a backend; across backends they agree to floating-point tolerance, not
bit-for-bit (summation orders differ).
"""

from __future__ import annotations

import os
import warnings

import numpy as np

_ENV = os.environ.get("FBL_KERNELS", "auto").strip().lower()
if _ENV not in {"auto", "numba", "numpy"}:
    warnings.warn(f"FBL_KERNELS={_ENV!r} not recognized, using 'auto'")
    _ENV = "auto"

HAVE_NUMBA = False
if _ENV != "numpy":
    try:
        import numba

        HAVE_NUMBA = True
    except ImportError:
        if _ENV == "numba":
            raise RuntimeError("FBL_KERNELS=numba but numba is not importable")
        warnings.warn("numba not importable, falling back to numpy kernels")

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# -- late-interaction scoring -------------------------------------------------
#
# Documents are packed into one contiguous row block plus an offsets array
# (offsets[i]:offsets[i+1] are document i's embedding rows, zero rows already
# dropped). Score per document: sum over query rows of the max inner product
# against the document's rows. A document with no rows scores -inf.


def maxsim_packed_np(query: np.ndarray, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    nseg = offsets.shape[0] - 1
    out = np.empty(nseg, dtype=np.float64)
    qt = np.ascontiguousarray(query.T)
    for i in range(nseg):
        s, e = offsets[i], offsets[i + 1]
        if e <= s:
            out[i] = -np.inf
        else:
            sims = rows[s:e] @ qt
            out[i] = float(sims.max(axis=0).sum(dtype=np.float64))
    return out


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Positions start..end-1 of every range (end >= start), concatenated in order.

    Output slot j of range i holds start_i + (j - where range i begins in the
    output), so one arange plus a per-range shift builds it without a loop.
    """
    lengths = ends - starts
    shift = starts - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(shift, lengths)


# -- k-means helpers ----------------------------------------------------------


def assign_nearest_np(points: np.ndarray, centroids: np.ndarray):
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    c2 = np.einsum("kd,kd->k", centroids, centroids, dtype=np.float64)
    chunk = 8192
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        block = points[s:e]
        d2 = c2[None, :] - 2.0 * (block @ centroids.T)
        d2 += np.einsum("nd,nd->n", block, block, dtype=np.float64)[:, None]
        lab = np.argmin(d2, axis=1)
        labels[s:e] = lab
        dists[s:e] = np.maximum(d2[np.arange(e - s), lab], 0.0)
    return labels, dists


def centroid_sums_np(points: np.ndarray, labels: np.ndarray, k: int):
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    order = np.argsort(labels, kind="stable")
    sorted_pts = points[order]
    sorted_lab = labels[order]
    uniq, first = np.unique(sorted_lab, return_index=True)
    if uniq.size:
        sums[uniq] = np.add.reduceat(sorted_pts.astype(np.float64, copy=False), first, axis=0)
    return sums, counts


# -- asymmetric distance scan -------------------------------------------------
#
# luts[r, m, k] holds the inner product of query row r's m-th subvector with
# codebook centroid k. Row r scans the partitions starts[r, p]:ends[r, p] of
# one contiguous code block; bases[r, p] is the row·coarse-centroid term
# shared by every entry of that partition. Each row keeps its top `per_row`
# codes by (score desc, id asc); the rows' results are concatenated.

_ADC_BLOCK_CODES = 1 << 18  # codes scored at once; bounds the scan's temporaries


def adc_scan_probes_np(
    luts: np.ndarray,
    flat_codes: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    bases: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ADC score of every probed code for every query row.

    Returns (row, flat position, score) per scanned code, rows ascending and
    partitions in probe order. Terms add in float64 in subspace order, then
    the base, so a code's score does not depend on what else is scanned.
    """
    nq, m, k = luts.shape
    lengths = ends - starts
    pos = concat_ranges(starts.ravel(), ends.ravel())
    rows = np.repeat(np.arange(nq, dtype=np.int64), lengths.sum(axis=1))
    codes = np.take(flat_codes, pos, axis=0)
    lut_flat = luts.reshape(-1)
    row_base = rows * (m * k)
    acc = np.take(lut_flat, row_base + codes[:, 0]).astype(np.float64)
    for s in range(1, m):
        acc += np.take(lut_flat, row_base + (s * k) + codes[:, s])
    acc += np.repeat(bases.ravel(), lengths.ravel())
    return rows, pos, acc


def adc_topk_rows_np(luts, flat_codes, flat_ids, starts, ends, bases, per_row):
    row_codes = (ends - starts).sum(axis=1)
    nq = row_codes.shape[0]
    step = max(1, _ADC_BLOCK_CODES // max(1, int(row_codes.max(initial=0))))
    id_parts, score_parts = [], []
    for r0 in range(0, max(nq, 1), step):  # no rows still makes one (empty) block
        r1 = min(r0 + step, nq)
        rows, pos, scores = adc_scan_probes_np(
            luts[r0:r1], flat_codes, starts[r0:r1], ends[r0:r1], bases[r0:r1]
        )
        ids = np.take(flat_ids, pos)
        lengths = row_codes[r0:r1]
        if per_row < lengths.max(initial=0):
            # keep only codes scoring at least their row's per_row-th best
            # (ties included), so the sort below sees about per_row per row
            row_start = np.cumsum(lengths) - lengths
            padded = np.full((r1 - r0, int(lengths.max())), np.inf)
            padded[rows, np.arange(rows.shape[0]) - row_start[rows]] = -scores
            cut = np.partition(padded, per_row - 1, axis=1)[:, per_row - 1]
            keep = -scores <= cut[rows]
            rows, scores, ids = rows[keep], scores[keep], ids[keep]
        order = np.lexsort((ids, -scores, rows))
        # rows stay ascending, so sorting leaves each row's span in place
        rank = np.arange(order.shape[0]) - np.searchsorted(rows, rows)
        order = order[rank < per_row]
        id_parts.append(ids[order])
        score_parts.append(scores[order])
    return np.concatenate(id_parts), np.concatenate(score_parts)


if HAVE_NUMBA:

    @numba.njit(parallel=True, fastmath=True, cache=True)
    def _maxsim_packed_jit(query, rows, offsets, out):  # pragma: no cover - jitted
        # f32 inner accumulation + fastmath so the dot loop vectorizes;
        # per-document results are position-independent, so exact-scan and
        # candidate re-scoring stay bit-identical for the same document
        nseg = offsets.shape[0] - 1
        nq = query.shape[0]
        d = query.shape[1]
        for i in numba.prange(nseg):
            s = offsets[i]
            e = offsets[i + 1]
            if e <= s:
                out[i] = -np.inf
                continue
            total = 0.0
            for a in range(nq):
                best = np.float32(-np.inf)
                for j in range(s, e):
                    acc = np.float32(0.0)
                    for c in range(d):
                        acc += query[a, c] * rows[j, c]
                    if acc > best:
                        best = acc
                total += best
            out[i] = total

    @numba.njit(parallel=True, fastmath=True, cache=True)
    def _assign_jit(points, centroids, labels, dists):  # pragma: no cover - jitted
        n, d = points.shape
        k = centroids.shape[0]
        for i in numba.prange(n):
            best = np.inf
            bj = 0
            for j in range(k):
                acc = 0.0
                for c in range(d):
                    diff = points[i, c] - centroids[j, c]
                    acc += diff * diff
                if acc < best:
                    best = acc
                    bj = j
            labels[i] = bj
            dists[i] = best

    @numba.njit(cache=True)
    def _centroid_sums_jit(points, labels, sums, counts):  # pragma: no cover - jitted
        n, d = points.shape
        for i in range(n):
            j = labels[i]
            counts[j] += 1
            for c in range(d):
                sums[j, c] += points[i, c]

    @numba.njit(parallel=True, cache=True)
    def _adc_topk_rows_jit(  # pragma: no cover - jitted
        luts, flat_codes, flat_ids, starts, ends, bases, out_ids, out_scores, out_counts
    ):
        # all query rows scanned in one parallel pass; per row a running
        # top-k ordered by (score desc, id asc), matching the sort contract.
        # Needs out_ids.shape[1] >= 1: the full-buffer test reads its last slot.
        nq, nprobe = starts.shape
        per_row = out_ids.shape[1]
        m = flat_codes.shape[1]
        for r in numba.prange(nq):
            count = 0
            for p in range(nprobe):
                base = bases[r, p]
                for i in range(starts[r, p], ends[r, p]):
                    acc = base
                    for s in range(m):
                        acc += luts[r, s, flat_codes[i, s]]
                    eid = flat_ids[i]
                    if count < per_row:
                        j = count
                        count += 1
                    else:
                        worst = out_scores[r, per_row - 1]
                        if acc < worst or (
                            acc == worst and eid > out_ids[r, per_row - 1]
                        ):
                            continue
                        j = per_row - 1
                    while j > 0 and (
                        out_scores[r, j - 1] < acc
                        or (out_scores[r, j - 1] == acc and out_ids[r, j - 1] > eid)
                    ):
                        out_scores[r, j] = out_scores[r, j - 1]
                        out_ids[r, j] = out_ids[r, j - 1]
                        j -= 1
                    out_scores[r, j] = acc
                    out_ids[r, j] = eid
            out_counts[r] = count

    def maxsim_packed_nb(query, rows, offsets):
        out = np.empty(offsets.shape[0] - 1, dtype=np.float64)
        _maxsim_packed_jit(query, rows, offsets, out)
        return out

    def assign_nearest_nb(points, centroids):
        n = points.shape[0]
        labels = np.empty(n, dtype=np.int64)
        dists = np.empty(n, dtype=np.float64)
        _assign_jit(points, centroids, labels, dists)
        return labels, dists

    def centroid_sums_nb(points, labels, k):
        sums = np.zeros((k, points.shape[1]), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        _centroid_sums_jit(points.astype(np.float64, copy=False), labels, sums, counts)
        return sums, counts

    def adc_topk_rows_nb(luts, flat_codes, flat_ids, starts, ends, bases, per_row):
        longest = int((ends - starts).sum(axis=1).max(initial=0))
        if per_row >= longest:
            # nothing to cut: one sort beats the jit's insertion, which is
            # quadratic in per_row
            return adc_topk_rows_np(luts, flat_codes, flat_ids, starts, ends, bases, per_row)
        nq = starts.shape[0]
        out_ids = np.zeros((nq, per_row), dtype=np.uint64)
        out_scores = np.full((nq, per_row), -np.inf, dtype=np.float64)
        out_counts = np.zeros(nq, dtype=np.int64)
        _adc_topk_rows_jit(
            luts, flat_codes, flat_ids, starts, ends, bases, out_ids, out_scores, out_counts
        )
        keep = np.arange(per_row)[None, :] < out_counts[:, None]
        return out_ids[keep], out_scores[keep]


if BACKEND == "numba":
    maxsim_packed = maxsim_packed_nb
    assign_nearest = assign_nearest_nb
    centroid_sums = centroid_sums_nb
    adc_topk_rows = adc_topk_rows_nb
else:
    maxsim_packed = maxsim_packed_np
    assign_nearest = assign_nearest_np
    centroid_sums = centroid_sums_np
    adc_topk_rows = adc_topk_rows_np

# the numpy scan stays reachable under this name for instrumentation that
# times it; production code calls adc_topk_rows
adc_scan_probes = adc_scan_probes_np
