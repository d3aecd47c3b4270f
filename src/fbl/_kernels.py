"""Hot numeric kernels, one numpy function per operation.

    maxsim_packed    late-interaction score of every packed document
    assign_nearest   nearest centroid per point (k-means assignment)
    centroid_sums    per-cluster sums and counts (k-means update)
    adc_topk_rows    per query row, the top codes of its probed partitions

Each is deterministic: the same inputs give the same bits.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # reported as fbl.kernel_backend and in the `fbl bench` CSV


# -- late-interaction scoring -------------------------------------------------
#
# Documents are packed into one contiguous row block plus an offsets array
# (offsets[i]:offsets[i+1] are document i's embedding rows, zero rows already
# dropped). Score per document: sum over query rows of the max inner product
# against the document's rows. A document with no rows scores -inf.


def maxsim_packed(query: np.ndarray, rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
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


def assign_nearest(points: np.ndarray, centroids: np.ndarray):
    n = points.shape[0]
    labels = np.empty(n, dtype=np.int64)
    dists = np.empty(n, dtype=np.float64)
    c2 = np.einsum("kd,kd->k", centroids, centroids, dtype=np.float64)
    x2 = np.einsum("nd,nd->n", points, points, dtype=np.float64)
    chunk = 8192  # fixed: a GEMM's rounding may depend on its row count
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        # ||x||^2 + ||c||^2 - 2 x.c in place, in the input dtype until the
        # float64 terms join; (-2g) + c2 is c2 - 2g exactly
        d2 = points[s:e] @ centroids.T
        d2 *= -2.0
        d2 = d2.astype(np.float64, copy=False)
        d2 += c2
        d2 += x2[s:e, None]
        lab = np.argmin(d2, axis=1)
        labels[s:e] = lab
        dists[s:e] = np.maximum(d2[np.arange(e - s), lab], 0.0)
    return labels, dists


def centroid_sums(points: np.ndarray, labels: np.ndarray, k: int):
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


def _adc_scan_probes(
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


def adc_topk_rows(luts, flat_codes, flat_ids, starts, ends, bases, per_row):
    row_codes = (ends - starts).sum(axis=1)
    nq = row_codes.shape[0]
    step = max(1, _ADC_BLOCK_CODES // max(1, int(row_codes.max(initial=0))))
    id_parts, score_parts = [], []
    for r0 in range(0, max(nq, 1), step):  # no rows still makes one (empty) block
        r1 = min(r0 + step, nq)
        rows, pos, scores = _adc_scan_probes(
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


# the scan stays reachable under this name for instrumentation that times
# it; adc_topk_rows calls it as _adc_scan_probes, so such timing never nests
adc_scan_probes = _adc_scan_probes
