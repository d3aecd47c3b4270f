"""Every kernel against a plain reference form."""

import numpy as np
import pytest

from conftest import assign_nearest_reference
from fbl import _kernels

# each kernel has one implementation; the id keeps the backend tag these
# tests' names have always carried, so test histories stay comparable
SAME_IDS = pytest.mark.parametrize("backend", [_kernels.BACKEND], ids=["numpy-_np"])


def _packed_fixture(rng, ndocs=20, dim=8):
    rows_per_doc = rng.integers(1, 6, size=ndocs)
    offsets = np.zeros(ndocs + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(rows_per_doc)
    rows = rng.standard_normal((offsets[-1], dim)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    query = rng.standard_normal((4, dim)).astype(np.float32)
    query /= np.linalg.norm(query, axis=1, keepdims=True)
    return query, rows, offsets


def _reference_maxsim(query, rows, offsets):
    out = []
    for i in range(len(offsets) - 1):
        seg = rows[offsets[i] : offsets[i + 1]].astype(np.float64)
        if seg.shape[0] == 0:
            out.append(-np.inf)
        else:
            out.append(float((seg @ query.T.astype(np.float64)).max(axis=0).sum()))
    return np.asarray(out)


@SAME_IDS
def test_maxsim_packed_matches_reference(backend):
    rng = np.random.default_rng(0)
    query, rows, offsets = _packed_fixture(rng)
    got = _kernels.maxsim_packed(query, rows, offsets)
    np.testing.assert_allclose(got, _reference_maxsim(query, rows, offsets), rtol=1e-5)


@SAME_IDS
def test_maxsim_packed_empty_doc_is_minus_inf(backend):
    rng = np.random.default_rng(1)
    query, rows, _ = _packed_fixture(rng, ndocs=3)
    offsets = np.array([0, 2, 2, rows.shape[0]], dtype=np.int64)  # middle doc empty
    got = _kernels.maxsim_packed(query, rows, offsets)
    assert got[1] == -np.inf
    assert np.isfinite(got[0]) and np.isfinite(got[2])


@SAME_IDS
def test_assign_nearest_well_separated(backend):
    rng = np.random.default_rng(3)
    centroids = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0]])
    labels_true = rng.integers(0, 3, size=200)
    points = centroids[labels_true] + 0.1 * rng.standard_normal((200, 2))
    labels, dists = _kernels.assign_nearest(points, centroids)
    np.testing.assert_array_equal(labels, labels_true)
    assert np.all(dists >= 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,dim,k", [(2 * 8192 + 97, 8, 64), (8192 + 1, 128, 20), (3, 16, 5)])
def test_assign_nearest_np_is_bit_identical_to_the_allocating_form(n, dim, k, dtype):
    # a strided view, as build_index passes PQ sub-vectors; every centroid
    # appears twice, so exact ties must keep resolving to the lower index
    rng = np.random.default_rng(n + dim)
    points = rng.standard_normal((n, 2 * dim)).astype(dtype)[:, :dim]
    half = rng.standard_normal((k, dim)).astype(dtype)
    centroids = np.concatenate([half, half])
    labels, dists = _kernels.assign_nearest(points, centroids)
    ref_labels, ref_dists = assign_nearest_reference(points, centroids)
    np.testing.assert_array_equal(labels, ref_labels)
    assert dists.tobytes() == ref_dists.tobytes()
    assert labels.max() < k  # the tie at every point went to the first copy


@SAME_IDS
def test_assign_tie_breaks_to_lowest_index(backend):
    centroids = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    points = np.array([[1.0, 0.0]])
    labels, _ = _kernels.assign_nearest(points, centroids)
    assert labels[0] == 0


@SAME_IDS
def test_centroid_sums(backend):
    rng = np.random.default_rng(5)
    points = rng.standard_normal((100, 4))
    labels = rng.integers(0, 7, size=100).astype(np.int64)
    sums, counts = _kernels.centroid_sums(points, labels, 9)
    assert counts.sum() == 100
    assert counts[7] == 0 and counts[8] == 0
    for j in range(7):
        np.testing.assert_allclose(sums[j], points[labels == j].sum(axis=0), atol=1e-9)
    np.testing.assert_array_equal(sums[7], 0)


def _adc_fixture(rng, nq=7, m=3, k=5):
    """Integer-valued LUTs and bases, so every score is exact and ties are common."""
    part_offsets = np.array([0, 7, 7, 15, 22, 22, 30, 41], dtype=np.int64)  # 2 empty
    n = int(part_offsets[-1])
    luts = rng.integers(-3, 4, size=(nq, m, k)).astype(np.float32)
    flat_codes = rng.integers(0, k, size=(n, m)).astype(np.uint8)
    flat_ids = rng.permutation(n).astype(np.uint64)  # ids not in scan order
    probes = np.stack([rng.choice(7, size=3, replace=False) for _ in range(nq)])
    probes[0] = [1, 4, 0]  # empty, empty, then 7 codes: shorter than most per_row
    probes[1] = [4, 1, 4]  # scans nothing
    starts = part_offsets[probes]
    ends = part_offsets[probes + 1]
    bases = rng.integers(-2, 3, size=probes.shape).astype(np.float64)
    return luts, flat_codes, flat_ids, starts, ends, bases


def _reference_topk(luts, flat_codes, flat_ids, starts, ends, bases, per_row):
    """Full scan, then each row sorted by (score desc, id asc) and truncated."""
    ids, scores = [], []
    for r in range(starts.shape[0]):
        hits = []
        for p in range(starts.shape[1]):
            for i in range(starts[r, p], ends[r, p]):
                score = sum(float(luts[r, s, flat_codes[i, s]]) for s in range(luts.shape[1]))
                hits.append((-(score + bases[r, p]), int(flat_ids[i])))
        for neg, eid in sorted(hits)[:per_row]:
            ids.append(eid)
            scores.append(-neg)
    return np.asarray(ids, dtype=np.uint64), np.asarray(scores, dtype=np.float64)


@pytest.mark.parametrize("block_codes", [1 << 18, 12])
@pytest.mark.parametrize("per_row", [1, 4, 9, 100])
@SAME_IDS
def test_adc_topk_rows_matches_reference(backend, per_row, block_codes, monkeypatch):
    # a 12-code cap splits the query into several row blocks
    monkeypatch.setattr(_kernels, "_ADC_BLOCK_CODES", block_codes)
    rng = np.random.default_rng(6)
    args = _adc_fixture(rng)
    ids, scores = _kernels.adc_topk_rows(*args, per_row)
    want_ids, want_scores = _reference_topk(*args, per_row)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(scores, want_scores)
    assert ids.dtype == np.uint64 and scores.dtype == np.float64


def test_adc_topk_rows_ties_straddle_the_cut():
    # the fixture really exercises the tie-break: some row's per_row-th and
    # (per_row+1)-th codes share a score, so only the id decides who stays
    args = _adc_fixture(np.random.default_rng(6))
    _, full = _reference_topk(*args, 10_000)
    lengths = (args[4] - args[3]).sum(axis=1)
    rows = np.split(full, np.cumsum(lengths)[:-1])
    assert any(row.size > 4 and row[3] == row[4] for row in rows)
