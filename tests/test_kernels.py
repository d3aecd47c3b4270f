"""Every kernel against a plain reference form."""

import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assign_nearest_reference
from fbl import _kernels
from fbl.embed import EmbeddingMatrix
from fbl.index import build_index, candidate_docs

# each kernel has one implementation; the id keeps the backend tag these
# tests' names have always carried, so test histories stay comparable
SAME_IDS = pytest.mark.parametrize("backend", [_kernels.BACKEND], ids=["numpy-_np"])


def _unit(rows):
    rows = rows.astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _packed_fixture(rng, ndocs=20, dim=8, table_rows=None):
    """Documents of 1-5 rows; with table_rows set, their rows repeat rows of a small table."""
    rows_per_doc = rng.integers(1, 6, size=ndocs)
    offsets = np.zeros(ndocs + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(rows_per_doc)
    n = int(offsets[-1])
    if table_rows is None:
        table, refs = _unit(rng.standard_normal((n, dim))), np.arange(n, dtype=np.uint32)
    else:
        table = _unit(rng.standard_normal((table_rows, dim)))
        refs = rng.integers(0, table_rows, size=n).astype(np.uint32)
    query = _unit(rng.standard_normal((4, dim)))
    return query, table, refs, offsets


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
    for table_rows in (None, 11):
        query, table, refs, offsets = _packed_fixture(rng, table_rows=table_rows)
        got = _kernels.maxsim_packed(query, table, refs, offsets[:-1], offsets[1:])
        want = _reference_maxsim(query, table[refs], offsets)
        np.testing.assert_allclose(got, want, rtol=1e-5)


@SAME_IDS
def test_maxsim_packed_empty_doc_is_minus_inf(backend):
    rng = np.random.default_rng(1)
    query, table, refs, _ = _packed_fixture(rng, ndocs=3)
    offsets = np.array([0, 2, 2, refs.shape[0]], dtype=np.int64)  # middle doc empty
    got = _kernels.maxsim_packed(query, table, refs, offsets[:-1], offsets[1:])
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


def _assign_case(n, dtype, strided, dim=8, k=32):
    """Points (a strided view if asked) and centroids that all appear twice."""
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 2 * dim)).astype(dtype)
    points = points[:, :dim] if strided else np.ascontiguousarray(points[:, :dim])
    half = rng.standard_normal((k, dim)).astype(dtype)
    return points, np.concatenate([half, half])


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [0, 300, 512, 3 * 512 + 77])
def test_assign_nearest_has_the_same_bits_on_any_worker_count(workers, n, dtype, strided):
    points, centroids = _assign_case(n, dtype, strided)
    labels, dists = _kernels.assign_nearest(points, centroids)
    ref_labels, ref_dists = assign_nearest_reference(points, centroids)
    assert labels.dtype == np.int64 and dists.dtype == np.float64
    assert labels.shape == dists.shape == (n,)
    assert labels.tobytes() == ref_labels.tobytes()
    assert dists.tobytes() == ref_dists.tobytes()


@pytest.fixture
def executors(monkeypatch):
    """Every thread pool made from here on, in order; _spread imports its class at call time."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    return made


def _kernel_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fbl-kernels")]


@pytest.mark.parametrize("n", [0, 1, 512, 513, 2 * 512])
def test_an_assignment_of_at_most_two_blocks_stays_on_the_calling_thread(workers, executors, n):
    points, centroids = _assign_case(n, np.float32, False)
    labels, dists = _kernels.assign_nearest(points, centroids)
    assert executors == []
    ref_labels, ref_dists = assign_nearest_reference(points, centroids)
    assert labels.tobytes() == ref_labels.tobytes() and dists.tobytes() == ref_dists.tobytes()
    _kernels.assign_nearest(*_assign_case(2 * 512 + 1, np.float32, False))  # three blocks
    assert len(executors) == (workers > 1)


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_an_error_in_a_workers_run_reaches_the_caller(workers):
    points, centroids = _assign_case(4 * 512, np.float32, False)
    with pytest.raises(ValueError) as want:
        assign_nearest_reference(points, centroids[:, :5])
    with pytest.raises(ValueError) as got:  # every run fails, the workers' too
        _kernels.assign_nearest(points, centroids[:, :5])
    assert str(got.value) == str(want.value)
    done = []

    def run(b0, b1):
        if b0 == 1:  # only the second run, which a worker takes, fails
            raise ValueError(f"blocks {b0}-{b1}")
        time.sleep(0.05 * b0)  # the last run ends last
        done.append((b0, b1))

    with pytest.raises(ValueError, match="^blocks 1-"):
        _kernels._spread(run, workers)
    assert sorted(done) == [(b, b + 1) for b in range(workers) if b != 1]  # all ended first
    labels, _ = _kernels.assign_nearest(points, centroids)  # the pool still works
    assert labels.tobytes() == assign_nearest_reference(points, centroids)[0].tobytes()


def _exit_code_of_a_child(check, seconds=60):
    """Run check() in a forked child, which exits 0 if it returns True; kill it after `seconds`."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if check() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid, f"the child's call did not finish in {seconds} s"
    return os.waitstatus_to_exitcode(status[1])


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_child_forked_after_a_threaded_call_completes_a_multi_block_call(workers, executors):
    points, centroids = _assign_case(4 * 512, np.float64, True)
    want = [a.tobytes() for a in assign_nearest_reference(points, centroids)]
    _kernels.assign_nearest(points, centroids)
    assert len(executors) == 1 and not _kernel_threads()  # its thread ended with the call

    def check():
        return [a.tobytes() for a in _kernels.assign_nearest(points, centroids)] == want

    assert _exit_code_of_a_child(check) == 0


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_a_spread_inside_a_part_runs_on_its_thread_and_finishes(workers, executors):
    # a part's own spread makes no threads, so two parts never run four
    # threads on two cores; the check runs in a child that can be killed
    points, centroids = _assign_case(4 * 512, np.float32, False)
    want = [a.tobytes() for a in assign_nearest_reference(points, centroids)]

    def check():
        got = {}

        def run(b0, b1):
            for b in range(b0, b1):
                got[b] = [a.tobytes() for a in _kernels.assign_nearest(points, centroids)]

        _kernels._spread(run, 2)
        return got == {0: want, 1: want} and len(executors) == 1

    assert _exit_code_of_a_child(check) == 0


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_a_failed_part_clears_its_flag_and_a_later_call_still_splits(workers):
    def fail(b0, b1):
        raise ValueError(f"part {b0}")

    with pytest.raises(ValueError, match="^part 0$"):  # every part fails; the caller's is raised
        _kernels._spread(fail, workers)
    assert not getattr(_kernels._part, "running", False)
    barrier, threads = threading.Barrier(workers, timeout=30), set()

    def run(b0, b1):  # every part waits for the others, so each runs on its own thread
        threads.add(threading.get_ident())
        barrier.wait()

    _kernels._spread(run, workers)
    assert len(threads) == workers


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_no_kernel_thread_outlives_a_call_that_returns_or_raises(workers, executors):
    rows = np.random.default_rng(31).standard_normal((8192 + 8, 16)).astype(np.float32)
    docs = {f"d{i:05d}:0:0": EmbeddingMatrix(rows=rows[i : i + 8]) for i in range(0, len(rows), 8)}
    build_index(docs, n_partitions=16, n_subspaces=4, n_codewords=32, seed=3, max_iters=2)
    assert executors and not _kernel_threads()  # its subspaces and assignments split, then ended
    for failing in (0, 1):  # the caller's part, then the worker's

        def fail(b0, b1):
            if b0 == failing:
                raise ValueError(f"part {b0}")
            time.sleep(0.05)  # the other part is still running when this one raises

        with pytest.raises(ValueError, match=f"^part {failing}$"):
            _kernels._spread(fail, 2)
        assert not _kernel_threads()


@SAME_IDS
def test_centroid_sums(backend):
    rng = np.random.default_rng(5)
    points = rng.standard_normal((100, 4))
    labels = rng.integers(0, 7, size=100).astype(np.int64)
    sums, counts = _kernels.centroid_sums(points, labels, 9, np.ones(100))
    assert counts.sum() == 100
    assert counts[7] == 0 and counts[8] == 0
    for j in range(7):
        np.testing.assert_allclose(sums[j], points[labels == j].sum(axis=0), atol=1e-9)
    np.testing.assert_array_equal(sums[7], 0)
    # the same bits as segment starts found by np.unique, in stable label order
    order = np.argsort(labels, kind="stable")
    uniq, first = np.unique(labels[order], return_index=True)
    want = np.zeros_like(sums)
    want[uniq] = np.add.reduceat(points[order], first, axis=0)
    assert sums.tobytes() == want.tobytes()


def test_weighted_centroid_sums_count_multiplicities_exactly():
    rng = np.random.default_rng(6)
    points = rng.standard_normal((200, 5))
    labels = rng.integers(0, 11, size=200).astype(np.int64)
    mult = rng.integers(1, 9, size=200)
    sums, counts = _kernels.centroid_sums(points, labels, 12, mult.astype(np.float64))
    # the points as their multiplicities would repeat them
    exp_sums, exp_counts = _kernels.centroid_sums(
        np.repeat(points, mult, axis=0), np.repeat(labels, mult), 12, np.ones(mult.sum())
    )
    assert counts.tolist() == exp_counts.tolist()  # exact counts
    assert counts[11] == 0
    np.testing.assert_allclose(sums, exp_sums, rtol=1e-12, atol=1e-12)
    # power-of-two weights scale exactly
    plain, plain_counts = _kernels.centroid_sums(points, labels, 12, np.ones(200))
    doubled, doubled_counts = _kernels.centroid_sums(points, labels, 12, np.full(200, 2.0))
    assert doubled.tobytes() == (2.0 * plain).tobytes()
    assert doubled_counts.tolist() == (2 * plain_counts).tolist()


def test_maxsim_packed_scores_any_subset_in_place():
    # documents named by (start, end) in any order score as in the full scan
    rng = np.random.default_rng(2)
    query, table, refs, offsets = _packed_fixture(rng)
    full = _kernels.maxsim_packed(query, table, refs, offsets[:-1], offsets[1:])
    pick = np.array([7, 0, 19, 7, 3])
    got = _kernels.maxsim_packed(query, table, refs, offsets[pick], offsets[pick + 1])
    assert got.tobytes() == full[pick].tobytes()


@st.composite
def _packs(draw):
    """A pack, with or without repeated rows, and a query of one or more rows.

    Documents run from 0 to 20 rows, so many straddle 8-row table blocks,
    and the row budget varies, so documents fall into one chunk or many and
    the products are computed once or per chunk.
    """
    lengths = draw(st.lists(st.integers(0, 20), min_size=1, max_size=30))
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    n = int(offsets[-1])
    table_rows = draw(st.sampled_from([None, 1, 3, 9, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([4, 16]))
    if table_rows is None or table_rows >= n:  # no repeats: the table is the rows
        table, refs = _unit(rng.standard_normal((n, dim))), np.arange(n, dtype=np.uint32)
    else:
        table = _unit(rng.standard_normal((table_rows, dim)))
        refs = rng.integers(0, table_rows, size=n).astype(np.uint32)
    query = _unit(rng.standard_normal((draw(st.integers(1, 5)), dim)))
    budget = draw(st.sampled_from([1, 5, 16, _kernels._ROW_BUDGET]))
    return query, table, refs, offsets, budget


@settings(max_examples=300, deadline=None)
@given(pack=_packs(), data=st.data())
def test_maxsim_packed_scores_any_subset_with_the_full_scans_bits(pack, data):
    query, table, refs, offsets, budget = pack
    ndocs = offsets.shape[0] - 1
    with mock.patch.object(_kernels, "_ROW_BUDGET", budget):
        full = _kernels.maxsim_packed(query, table, refs, offsets[:-1], offsets[1:])
        pick = np.asarray(data.draw(st.lists(st.integers(0, ndocs - 1), max_size=12)), np.int64)
        got = _kernels.maxsim_packed(query, table, refs, offsets[pick], offsets[pick + 1])
    assert got.tobytes() == full[pick].tobytes()
    want = _reference_maxsim(query, table[refs], offsets)
    assert np.array_equal(np.isinf(full), np.isinf(want))
    finite = np.isfinite(want)  # float32 products: an absolute floor for sums near 0
    np.testing.assert_allclose(full[finite], want[finite], rtol=1e-5, atol=1e-6 * len(query))


def _padded_row_cuts(neg, lengths, per_row):
    """The former cut: every row padded with +inf to the longest, then one partition."""
    rows = np.repeat(np.arange(lengths.shape[0]), lengths)
    start = np.cumsum(lengths) - lengths
    padded = np.full((lengths.shape[0], int(lengths.max())), np.inf)
    padded[rows, np.arange(rows.shape[0]) - start[rows]] = neg
    return np.partition(padded, per_row - 1, axis=1)[:, per_row - 1]


def test_row_cuts_keep_what_the_padded_partition_kept():
    rng = np.random.default_rng(12)
    for _ in range(200):
        lengths = rng.integers(0, 30, size=int(rng.integers(1, 9)))
        if lengths.max() < 2:
            continue
        neg = rng.integers(-4, 5, size=int(lengths.sum())).astype(np.float64)  # many ties
        rows = np.repeat(np.arange(lengths.shape[0]), lengths)
        for per_row in range(1, int(lengths.max())):
            got = neg <= _kernels._row_cuts(neg, lengths, per_row)[rows]
            want = neg <= _padded_row_cuts(neg, lengths, per_row)[rows]
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidates_equal_those_of_the_padded_cut(seed):
    # random indexes, with budgets that cut every row's runs and budgets that cut none
    rng = np.random.default_rng(seed)
    vocab = _unit(rng.standard_normal((60, 16)))
    docs = {f"d{i:03d}:0:0": EmbeddingMatrix(rows=vocab[rng.integers(0, 60, size=int(n))])
            for i, n in enumerate(rng.integers(1, 12, size=80))}
    index = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=seed)
    for _ in range(6):
        query = EmbeddingMatrix(rows=_unit(rng.standard_normal((5, 16))), is_query=True)
        for n_prime, nprobe in ((5, 2), (40, 3), (10_000, 8), (None, 1)):
            got = candidate_docs(index, query, n_prime, nprobe)
            with mock.patch.object(_kernels, "_row_cuts", _padded_row_cuts):
                want = candidate_docs(index, query, n_prime, nprobe)
            assert np.array_equal(got, want)
    calls = mock.Mock(wraps=_kernels._row_cuts)
    with mock.patch.object(_kernels, "_row_cuts", calls):
        candidate_docs(index, query, 5, 2)
        assert calls.call_count == 1  # a small budget fires the cut
        candidate_docs(index, query, None, 1)
        assert calls.call_count == 1  # every id wanted: no cut


def _adc_fixture(rng, nq=7, m=3, k=5):
    """Inverted lists of table rows, with integer-valued LUTs and bases.

    Every score is exact, so distinct codes tie often. Each partition lists
    its rows ascending, the partitions are not in row order, and two
    partitions are empty.
    """
    part_offsets = np.array([0, 5, 5, 9, 14, 14, 19, 26], dtype=np.int64)
    rows = rng.permutation(int(part_offsets[-1])).astype(np.uint32)  # not in scan order
    for p in range(7):  # but ascending within each partition
        rows[part_offsets[p] : part_offsets[p + 1]].sort()
    luts = rng.integers(-3, 4, size=(nq, m, k)).astype(np.float32)
    codes = rng.integers(0, k, size=(rows.shape[0], m)).astype(np.uint8)
    probes = np.stack([rng.choice(7, size=3, replace=False) for _ in range(nq)])
    probes[0] = [1, 4, 0]  # empty, empty, then 5 rows
    probes[1] = [4, 1, 4]  # scans nothing
    starts = part_offsets[probes]
    ends = part_offsets[probes + 1]
    bases = rng.integers(-2, 3, size=probes.shape).astype(np.float64)
    return luts, codes, rows, starts, ends, bases


def _kernel_args(luts, codes, rows, starts, ends, bases):
    """adc_topk_rows's arguments but per_row, with query rows and codebooks
    whose products are exactly the fixture's look-up tables.

    Each subspace of query row r is 1 at column r and 0 elsewhere, and
    codebooks[s, c, r] = luts[r, s, c], so every table entry is one
    integer plus zeros, and ties stay exact.
    """
    nq, m, _ = luts.shape
    q_rows = np.zeros((nq, m, nq), dtype=np.float32)
    q_rows[np.arange(nq), :, np.arange(nq)] = 1.0
    codebooks = np.ascontiguousarray(luts.transpose(1, 2, 0))
    return q_rows.reshape(nq, m * nq), codebooks, codes, starts, ends, bases, rows


def _reference_scores(luts, codes, rows, starts, ends, bases):
    """Per query row, (score, table row) of every probed entry, each scored on its own,
    in probe order."""
    out = []
    for r in range(starts.shape[0]):
        hits = []
        for p in range(starts.shape[1]):
            for j in range(starts[r, p], ends[r, p]):
                score = sum(float(luts[r, s, codes[j, s]]) for s in range(luts.shape[1]))
                hits.append((score + bases[r, p], int(rows[j])))
        out.append(hits)
    return out


def _reference_topk(luts, codes, rows, starts, ends, bases, per_row):
    """Each query row's entries scoring at least its per_row-th best, in probe order."""
    found = []
    for hits in _reference_scores(luts, codes, rows, starts, ends, bases):
        best = sorted((s for s, _ in hits), reverse=True)
        found += [row for s, row in hits if len(hits) <= per_row or s >= best[per_row - 1]]
    return np.asarray(found, dtype=np.uint32)


@pytest.mark.parametrize("block_codes", [1 << 18, 12])
@pytest.mark.parametrize("per_row", [1, 4, 9, 100])
@SAME_IDS
def test_adc_topk_rows_matches_reference(backend, per_row, block_codes, monkeypatch):
    # a 12-code cap splits the query into several row blocks; per_row 100
    # keeps every row
    monkeypatch.setattr(_kernels, "_ADC_BLOCK_CODES", block_codes)
    rng = np.random.default_rng(6)
    args = _adc_fixture(rng)
    found = _kernels.adc_topk_rows(*_kernel_args(*args), per_row)
    np.testing.assert_array_equal(found, _reference_topk(*args, per_row))
    assert found.dtype == np.uint32


def test_adc_topk_rows_ties_straddle_the_cut():
    # the fixture really exercises the cut's ties: at some query row's 4th
    # place two table rows of distinct codes tie
    luts, codes, rows, starts, ends, bases = args = _adc_fixture(np.random.default_rng(6))
    code_of = {int(t): tuple(c) for t, c in zip(rows, codes)}
    ranked = [sorted(hits, key=lambda h: -h[0]) for hits in _reference_scores(*args)]
    assert any(len(h) > 4 and h[3][0] == h[4][0] and code_of[h[3][1]] != code_of[h[4][1]]
               for h in ranked)
    row_codes = (ends - starts).sum(axis=1)
    # per_row 1 cuts every scanning query row; 9 cuts some; 100 keeps every row
    assert 1 < row_codes[row_codes > 0].min() and 9 < row_codes.max() < 100


def test_adc_topk_rows_keeps_every_row_tied_at_the_cut():
    luts, codes, rows, starts, ends, bases = args = _adc_fixture(np.random.default_rng(6))
    for r, hits in enumerate(_reference_scores(*args)):
        ranked = sorted(hits, key=lambda h: -h[0])
        if len(ranked) > 4 and ranked[3][0] == ranked[4][0]:
            one = _kernel_args(luts[r : r + 1], codes, rows, starts[r : r + 1],
                               ends[r : r + 1], bases[r : r + 1])
            found = _kernels.adc_topk_rows(*one, 4).tolist()
            assert {ranked[3][1], ranked[4][1]} <= set(found) and len(found) > 4
            break
    else:
        pytest.fail("no query row ties at its 4th place")


def test_adc_topk_rows_scores_nothing_when_no_row_is_cut(monkeypatch):
    luts, codes, rows, starts, ends, bases = args = _adc_fixture(np.random.default_rng(6))
    row_codes = (ends - starts).sum(axis=1)
    scan = mock.Mock(wraps=_kernels._adc_scan_probes)
    monkeypatch.setattr(_kernels, "_adc_scan_probes", scan)
    found = _kernels.adc_topk_rows(*_kernel_args(*args), int(row_codes.max()))
    assert scan.call_count == 0
    np.testing.assert_array_equal(found, rows[_kernels.concat_ranges(starts.ravel(), ends.ravel())])
    # one row over budget: the query is scored, and rows at or under it keep every entry
    budget = int(np.sort(row_codes)[-2])
    assert (row_codes > budget).sum() == 1
    found = _kernels.adc_topk_rows(*_kernel_args(*args), budget)
    assert scan.call_count == 1
    np.testing.assert_array_equal(found, _reference_topk(*args, budget))


def test_adc_topk_rows_builds_no_table_when_no_row_is_cut():
    luts, codes, rows, starts, ends, bases = args = _adc_fixture(np.random.default_rng(6))
    q_rows = _kernel_args(*args)[0]
    row_codes = (ends - starts).sum(axis=1)
    unusable = np.zeros((1, 1, 1), dtype=np.float32)  # no product with q_rows exists
    found = _kernels.adc_topk_rows(
        q_rows, unusable, codes, starts, ends, bases, rows, int(row_codes.max())
    )
    np.testing.assert_array_equal(found, rows[_kernels.concat_ranges(starts.ravel(), ends.ravel())])
    with pytest.raises(ValueError):  # one row over budget: the tables are built
        _kernels.adc_topk_rows(
            q_rows, unusable, codes, starts, ends, bases, rows, int(np.sort(row_codes)[-2])
        )
