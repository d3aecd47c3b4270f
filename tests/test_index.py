import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    assign_nearest_reference,
    candidate_docs_per_embedding,
    candidate_docs_reference,
    doc_of,
    flat_codes,
    kmeans_pp_init_reference,
    partition,
    reconstruct,
)

import fbl
from fbl import _kernels
from fbl import index as index_module
from fbl.embed import EmbeddingMatrix, PackedCorpus
from fbl.errors import EmptyIndex, FormatError, InsufficientData
from fbl.index import (
    IvfPqIndex,
    _kmeans_pp_init,
    build_index,
    candidate_docs,
    kmeans,
)
from fbl.store import _fbli_pieces, _write, load_index


def _unit_rows(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float32)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _mat(arr) -> EmbeddingMatrix:
    return EmbeddingMatrix(rows=_unit_rows(arr))


def _random_corpus(rng, n_docs, tokens_per_doc, dim, n_clusters=16, noise=0.25):
    """Docs whose token vectors concentrate around shared cluster directions."""
    centers = rng.standard_normal((n_clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    docs = {}
    for i in range(n_docs):
        c = centers[rng.integers(n_clusters, size=tokens_per_doc)]
        rows = c + noise * rng.standard_normal((tokens_per_doc, dim))
        docs[f"d{i:05d}:0:0"] = _mat(rows)
    return docs, centers


# -- kmeans ---------------------------------------------------------------------


def test_kmeans_saturation_every_point_own_centroid():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((8, 4))
    res = kmeans(pts, k=8, seed=1)
    assert res.distortions[-1] == pytest.approx(0.0, abs=1e-12)
    # each point is some centroid
    for p in pts:
        assert np.min(np.linalg.norm(res.centroids - p, axis=1)) < 1e-12


def test_kmeans_identical_points_single_cluster():
    pts = np.tile([1.5, -2.0, 0.25], (10, 1))
    res = kmeans(pts, k=1, seed=0)
    np.testing.assert_allclose(res.centroids[0], [1.5, -2.0, 0.25], atol=1e-12)
    assert res.distortions[-1] == pytest.approx(0.0, abs=1e-12)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(5)
    blob_a = rng.standard_normal((60, 3)) * 0.2 + np.array([5.0, 0.0, 0.0])
    blob_b = rng.standard_normal((60, 3)) * 0.2 + np.array([-5.0, 0.0, 0.0])
    pts = np.vstack([blob_a, blob_b])
    res = kmeans(pts, k=2, max_iters=50, seed=3)
    xs = sorted(res.centroids[:, 0])
    assert -5.5 < xs[0] < -4.5
    assert 4.5 < xs[1] < 5.5


def test_kmeans_distortion_non_increasing():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((300, 6))
        weights = rng.integers(1, 50, size=300).astype(np.float64)
        weights[::7] *= 0.01  # non-integer weights too
        for w in (None, weights):  # the weighted trace is the weighted mean
            res = kmeans(pts, k=12, max_iters=30, seed=seed, weights=w)
            assert len(res.distortions) >= 1
            for a, b in zip(res.distortions, res.distortions[1:]):
                assert b <= a + 1e-12


def test_kmeans_weight_pulls_the_centroid_to_the_weighted_mean():
    pts = np.array([[0.0, 0.0], [4.0, 0.0]])
    res = kmeans(pts, k=1, seed=0, weights=[3.0, 1.0])
    np.testing.assert_array_equal(res.centroids[0], [1.0, 0.0])
    assert res.distortions[-1] == pytest.approx((3 * 1.0 + 1 * 9.0) / 4)


@pytest.mark.parametrize(
    "weights, problem",
    [
        (np.ones(9), "one value per point"),
        (np.ones((10, 1)), "one value per point"),
        (np.r_[np.ones(9), np.nan], "finite"),
        (np.r_[np.ones(9), np.inf], "finite"),
        (np.r_[np.ones(9), 0.0], "> 0"),
        (np.r_[np.ones(9), -2.0], "> 0"),
    ],
)
def test_kmeans_rejects_bad_weights_naming_the_problem(weights, problem):
    pts = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError, match=problem):
        kmeans(pts, k=3, weights=weights)


def test_kmeans_k_exceeds_points_pads_by_reuse():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    res = kmeans(pts, k=5, seed=0)
    assert res.centroids.shape == (5, 2)
    assert res.distortions[-1] == pytest.approx(0.0, abs=1e-12)


def _seeding_inputs():
    rng = np.random.default_rng(11)
    centres = rng.standard_normal((24, 128))
    clustered = centres[rng.integers(24, size=3000)] + 0.05 * rng.standard_normal((3000, 128))
    sub_vectors = 0.1 * rng.standard_normal((4000, 8))
    far = 1e3 * _unit_rows(rng.standard_normal((2000, 32))).astype(np.float64) + 5.0
    few = rng.standard_normal((5, 16))[rng.integers(5, size=400)]
    # distances within a cluster sit far below the GEMM form's rounding
    # error, so only the exact update tells its points apart
    dupes = rng.standard_normal((8, 16))[rng.integers(8, size=800)]
    dupes += 1e-9 * rng.standard_normal(dupes.shape)
    # products underflow: only the slack's absolute floor covers their error
    tiny = 1e-162 * (dupes[:300] + 1e-3 * rng.standard_normal((300, 16)))
    # squared norms overflow, distances do not: the GEMM bound does not
    # hold, so every point takes the exact update
    huge = 1e155 * (1.0 + 1e-4 * rng.standard_normal((500, 16)))
    return {
        "clustered_d128": (clustered, 96),
        "sub_vectors_d8": (sub_vectors, 256),
        "norm_1e3": (far, 64),
        "fewer_distinct_than_k": (few, 12),  # picks 6 to 12 take the total <= 0 branch
        "near_duplicates": (dupes, 40),
        "underflow": (tiny, 20),
        "near_overflow": (huge, 16),
    }


@pytest.mark.parametrize("case", list(_seeding_inputs()))
def test_kmeans_pp_init_is_bit_identical_to_the_full_update(case):
    pts, k = _seeding_inputs()[case]
    multiplicities = np.random.default_rng(4).integers(1, 30, size=pts.shape[0])
    for weights in (np.ones(pts.shape[0]), multiplicities.astype(np.float64)):
        got = _kmeans_pp_init(pts, k, np.random.default_rng(3), weights)
        ref = kmeans_pp_init_reference(pts, k, np.random.default_rng(3), weights)
        assert got.tobytes() == ref.tobytes()
        if case == "fewer_distinct_than_k":
            assert len(np.unique(got, axis=0)) == 5


@pytest.mark.parametrize("weighted", [False, True])
def test_kmeans_pp_draws_equal_generator_choice(weighted):
    # few distinct points among many: after the first picks most d2 are 0,
    # at the start, the middle and the end of the cumulative sum
    rng = np.random.default_rng(21)
    distinct = rng.standard_normal((6, 4))
    pts = distinct[np.r_[np.zeros(20, dtype=int), rng.integers(6, size=200), np.ones(20, int)]]
    weights = rng.integers(1, 9, size=pts.shape[0]) if weighted else np.ones(pts.shape[0])
    weights = weights.astype(np.float64)
    for seed in range(150):
        got = _kmeans_pp_init(pts, 5, np.random.default_rng(seed), weights)
        ref = kmeans_pp_init_reference(pts, 5, np.random.default_rng(seed), weights)
        assert got.tobytes() == ref.tobytes(), seed


def test_build_index_is_bit_identical_with_the_reference_kernels(monkeypatch):
    rng = np.random.default_rng(12)
    corpora = [
        _random_corpus(rng, 1100, 8, 16)[0],  # 8800 rows: two chunks
        _repeated_rows_corpus(rng, n_docs=400, vocab=300)[0],  # the weighted path
    ]
    args = dict(n_partitions=24, n_subspaces=4, n_codewords=32, seed=4, max_iters=4)
    for docs in corpora:
        fast = build_index(docs, **args)
        with monkeypatch.context() as patch:
            patch.setattr(index_module, "_kmeans_pp_init", kmeans_pp_init_reference)
            patch.setattr(_kernels, "assign_nearest", assign_nearest_reference)
            ref = build_index(docs, **args)
        for name in (
            "coarse", "codebooks", "part_offsets", "rows", "codes", "doc_refs", "doc_offsets",
        ):
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name


_BUILD_IN_A_CHILD = """
import hashlib, json, os, sys
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import fbl.cli
futures_imported = "concurrent.futures" in sys.modules
import numpy as np
from fbl import _kernels
from fbl.embed import EmbeddingMatrix
from fbl.index import build_index
rows = np.random.default_rng(24).standard_normal((1700, 16)).astype(np.float32)
docs = {f"d{i:03d}:0:0": EmbeddingMatrix(rows=rows[10 * i : 10 * i + 10]) for i in range(170)}
index = build_index(docs, n_partitions=16, n_subspaces=4, n_codewords=32, seed=3, max_iters=5)
digest = hashlib.sha256()
for name in ("coarse", "codebooks", "part_offsets", "rows", "codes"):
    digest.update(getattr(index, name).tobytes())
for part in _kernels.assign_nearest(rows, index.coarse):  # the distances too
    digest.update(part.tobytes())
print(json.dumps({"workers": _kernels._WORKERS, "futures_imported": futures_imported,
                  "digest": digest.hexdigest()}))
"""


def test_build_index_has_the_same_bits_on_one_cpu_and_on_every_cpu():
    # 1,700 distinct rows: four 512-row blocks, split into a run per core
    env = dict(os.environ)
    paths = [str(Path(fbl.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    got = {}
    for cpus, blas_threads in (("one-cpu", "1"), ("every-cpu", "2")):
        proc = subprocess.run([sys.executable, "-c", _BUILD_IN_A_CHILD, cpus],
                              env={**env, "OPENBLAS_NUM_THREADS": blas_threads},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got[cpus] = json.loads(proc.stdout)
    assert got["one-cpu"]["workers"] == 1
    assert got["every-cpu"]["workers"] == len(os.sched_getaffinity(0))
    assert not got["one-cpu"]["futures_imported"] and not got["every-cpu"]["futures_imported"]
    assert got["one-cpu"]["digest"] == got["every-cpu"]["digest"]


def _sixteen_wide_corpus(n_rows=index_module._SPREAD_SUBSPACES_ROWS + 8):
    """Distinct rows enough to train the subspaces on every worker, unless told fewer."""
    rows = np.random.default_rng(29).standard_normal((n_rows, 16)).astype(np.float32)
    return {f"d{i:05d}:0:0": EmbeddingMatrix(rows=rows[i : i + 8]) for i in range(0, n_rows, 8)}


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("n_subspaces", [4, 16])  # 3 workers split both unevenly
def test_build_index_has_the_same_bits_on_any_worker_count(workers, n_subspaces, monkeypatch):
    docs = _sixteen_wide_corpus()
    args = dict(n_partitions=16, n_subspaces=n_subspaces, n_codewords=32, seed=3, max_iters=5)
    got = build_index(docs, **args)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_WORKERS", 1)
        want = build_index(docs, **args)
    for name in ("coarse", "codebooks", "part_offsets", "rows", "codes"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("workers", [2], indirect=True)
@pytest.mark.parametrize("spread", [True, False], ids=["spread", "few-rows"])
def test_an_error_in_a_workers_subspace_reaches_build_index_s_caller(workers, spread, monkeypatch):
    # a table under _SPREAD_SUBSPACES_ROWS trains its subspaces on the calling thread
    n_rows = index_module._SPREAD_SUBSPACES_ROWS + (8 if spread else -8)
    raised_in, real = [], index_module.kmeans

    def kmeans(*args, seed, **kwargs):
        if seed == 3 + 1 + 3:  # subspace 3 of 4: the worker's run
            raised_in.append(threading.current_thread())
            raise RuntimeError("subspace 3")
        return real(*args, seed=seed, **kwargs)

    monkeypatch.setattr(index_module, "kmeans", kmeans)
    with pytest.raises(RuntimeError, match="^subspace 3$"):
        build_index(_sixteen_wide_corpus(n_rows), n_partitions=16, n_subspaces=4, n_codewords=32,
                    seed=3, max_iters=5)
    assert len(raised_in) == 1 and (raised_in[0] is threading.main_thread()) is not spread
    rows = np.random.default_rng(3).standard_normal((4 * 512, 16))
    centroids = rows[:32].copy()
    labels, dists = _kernels.assign_nearest(rows, centroids)  # the pool still serves
    ref_labels, ref_dists = assign_nearest_reference(rows, centroids)
    assert labels.tobytes() == ref_labels.tobytes() and dists.tobytes() == ref_dists.tobytes()


# -- build ------------------------------------------------------------------------


def _centroid_aligned_corpus(dim=8, n_centers=4, reps=6):
    rng = np.random.default_rng(9)
    centers = _unit_rows(rng.standard_normal((n_centers, dim)))
    docs = {}
    i = 0
    for _ in range(reps):
        for c in centers:
            docs[f"c{i:03d}:0:0"] = EmbeddingMatrix(rows=np.array([c], dtype=np.float32))
            i += 1
    return docs, centers


def test_build_centroid_aligned_reconstructs_exactly():
    docs, centers = _centroid_aligned_corpus()
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    for emb_id in range(idx.n_embeddings):
        doc_id, pos = doc_of(idx, emb_id)
        original = docs[doc_id].rows[pos]
        rec = reconstruct(idx, emb_id)
        assert float(np.sum((rec - original) ** 2)) < 1e-6


def test_build_insufficient_data():
    # only a pack without rows is too small: fewer rows than partitions cap P
    empty = {"a:0:0": EmbeddingMatrix(rows=np.zeros((0, 4), dtype=np.float32)),
             "dead:0:0": EmbeddingMatrix(rows=np.zeros((2, 4), dtype=np.float32))}
    for docs in ({}, empty):
        with pytest.raises(InsufficientData, match="no embeddings"):
            build_index(docs, n_partitions=3, n_subspaces=2)
    two = {"a:0:0": _mat(np.eye(2, 4))}
    idx = build_index(two, n_partitions=3, n_subspaces=2, n_codewords=2)
    assert idx.n_partitions == 2
    assert np.diff(idx.part_offsets).tolist() == [1, 1]


def test_build_caps_the_partitions_at_the_distinct_rows():
    # 6 pack rows of 3 distinct rows: a 4th centroid would copy one of them
    rows = _unit_rows(np.eye(3, 4))
    docs = {"a:0:0": EmbeddingMatrix(rows=rows), "b:0:0": EmbeddingMatrix(rows=rows[::-1])}
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=2)
    assert idx.n_partitions == 3
    assert np.diff(idx.part_offsets).min() > 0  # every partition holds rows
    assert build_index(docs, n_partitions=3, n_subspaces=2, n_codewords=2).n_partitions == 3


def test_build_rejects_bad_subspaces():
    docs = {"a:0:0": _mat(np.eye(4, 6))}  # 4 distinct rows: enough for 2 partitions
    with pytest.raises(ValueError):
        build_index(docs, n_partitions=2, n_subspaces=4)


def test_build_deterministic_serialization(tmp_path):
    rng = np.random.default_rng(3)
    docs, _ = _random_corpus(rng, n_docs=40, tokens_per_doc=6, dim=16)
    idx1 = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=7)
    idx2 = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=7)
    p1, p2 = tmp_path / "a.fbli", tmp_path / "b.fbli"
    _write(p1, _fbli_pieces(idx1))
    _write(p2, _fbli_pieces(idx2))
    assert p1.read_bytes() == p2.read_bytes()


def test_registry_bijection():
    rng = np.random.default_rng(4)
    docs, _ = _random_corpus(rng, n_docs=25, tokens_per_doc=5, dim=8)
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=16, seed=1)
    pairs = {doc_of(idx, e) for e in range(idx.n_embeddings)}
    assert len(pairs) == idx.n_embeddings == 25 * 5
    # no row repeats: each embedding is one table row, listed once
    assert idx.rows.size == np.diff(idx.part_offsets).sum() == idx.n_embeddings


def _repeated_rows_corpus(rng, n_docs=60, vocab=40, dim=16):
    """Docs drawn from a small table of token vectors, frequent tokens repeated,
    as a context-free embedder gives them."""
    table = _unit_rows(rng.standard_normal((vocab, dim)))
    weights = 1.0 / np.arange(1, vocab + 1)
    docs = {}
    for i in range(n_docs):
        tokens = rng.choice(vocab, size=int(rng.integers(1, 12)), p=weights / weights.sum())
        docs[f"r{i:03d}:0:0"] = EmbeddingMatrix(rows=table[tokens])
    return docs, table


def test_each_table_row_is_listed_once_in_its_own_partition_with_its_own_code():
    docs, _ = _repeated_rows_corpus(np.random.default_rng(5))
    idx = build_index(docs, n_partitions=6, n_subspaces=4, n_codewords=16, seed=2)
    pack = PackedCorpus.from_matrices(docs)
    assert pack.table.shape[0] < pack.n_rows  # repeated rows are listed once
    assert np.array_equal(np.sort(idx.rows), np.arange(pack.table.shape[0]))
    part_of_entry = np.repeat(np.arange(6), np.diff(idx.part_offsets))
    for p in range(idx.n_partitions):  # ascending within a partition
        assert np.all(np.diff(idx.rows[part_of_entry == p].astype(np.int64)) > 0)
    # each table row keeps the (partition, code) its own assignment gives
    part, _ = _kernels.assign_nearest(pack.table, idx.coarse)
    residuals = pack.table - idx.coarse[part]
    dsub = idx.dim // idx.n_subspaces
    want = np.stack([
        _kernels.assign_nearest(residuals[:, s * dsub : (s + 1) * dsub], idx.codebooks[s])[0]
        for s in range(idx.n_subspaces)
    ], axis=1)
    by_row = np.argsort(idx.rows)
    assert np.array_equal(part_of_entry[by_row], part)
    assert np.array_equal(idx.codes[by_row], want)
    # and every embedding takes its table row's code
    assert np.array_equal(flat_codes(idx), want[pack.refs])


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct_rows", "repeated_rows"])
def test_every_document_twice_builds_the_same_quantizers_and_runs(repeats):
    # doubling every multiplicity scales each weight by two, which is exact,
    # so training sees the same distinct rows and draws the same seeds, and
    # lists the same table rows
    rng = np.random.default_rng(15)
    if repeats:
        docs, _ = _repeated_rows_corpus(rng, n_docs=120, vocab=80)
    else:
        docs, _ = _random_corpus(rng, n_docs=150, tokens_per_doc=6, dim=16)
    twice = dict(docs)
    twice.update({f"z{i:05d}:0:0": m for i, m in enumerate(docs.values())})  # packed after
    args = dict(n_partitions=8, n_subspaces=4, n_codewords=16, seed=6)
    once_idx = build_index(docs, **args)
    twice_idx = build_index(twice, **args)
    for name in ("coarse", "codebooks", "part_offsets", "rows", "codes"):
        assert getattr(twice_idx, name).tobytes() == getattr(once_idx, name).tobytes(), name
    n = once_idx.n_embeddings
    assert twice_idx.n_embeddings == 2 * n
    assert np.array_equal(twice_idx.doc_refs, np.tile(once_idx.doc_refs, 2))


def test_unit_weights_build_the_bytes_of_the_unweighted_path(monkeypatch):
    # weights None are unit weights at kmeans' boundary, bit for bit
    pts = np.random.default_rng(16).standard_normal((400, 8))
    plain = kmeans(pts, 12, seed=3)
    unit = kmeans(pts, 12, seed=3, weights=np.ones(400))
    assert plain.centroids.tobytes() == unit.centroids.tobytes()
    assert plain.labels.tobytes() == unit.labels.tobytes()
    assert plain.distortions == unit.distortions
    # a corpus without repeated rows trains on its rows, each weighing 1
    docs, _ = _random_corpus(np.random.default_rng(16), n_docs=300, tokens_per_doc=6, dim=16)
    train = index_module.kmeans
    seen = []

    def recording(points, k, weights=None, **kw):
        seen.append(weights)
        return train(points, k, weights=weights, **kw)

    monkeypatch.setattr(index_module, "kmeans", recording)
    build_index(docs, n_partitions=12, n_subspaces=4, n_codewords=32, seed=2)
    assert len(seen) == 5
    assert all(w.tolist() == [1.0] * 1800 for w in seen)


def test_distinct_rows_are_in_first_appearance_order():
    # rows repeat across documents, each document holding a row once
    rows = np.array([[2, 0], [1, 0], [0, 3], [1, 0], [2, 0], [2, 0]], dtype=np.float32)
    pack = PackedCorpus.from_matrices({"a:0:0": rows[:3], "b:0:0": rows[3:5], "c:0:0": rows[5:]})
    assert pack.table.tolist() == [[2, 0], [1, 0], [0, 3]]
    assert pack.refs.tolist() == [0, 1, 2, 1, 0, 0]
    assert np.bincount(pack.refs).tolist() == [3, 2, 1]  # the training weights
    distinct = PackedCorpus.from_matrices({"a:0:0": rows[:3]})
    assert distinct.table.tolist() == rows[:3].tolist()
    assert distinct.refs.tolist() == [0, 1, 2]


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct_rows", "repeated_rows"])
def test_a_pack_prefix_equals_packing_its_documents(repeats):
    rng = np.random.default_rng(17)
    if repeats:
        docs, _ = _repeated_rows_corpus(rng, n_docs=40)
    else:
        docs, _ = _random_corpus(rng, n_docs=40, tokens_per_doc=5, dim=16)
    docs["empty:0:0"] = EmbeddingMatrix(rows=np.zeros((0, 16), dtype=np.float32))
    docs["zeros:0:0"] = EmbeddingMatrix(rows=np.zeros((2, 16), dtype=np.float32))
    pack = PackedCorpus.from_matrices(docs)
    assert (pack.table.shape[0] < pack.n_rows) == repeats
    for m in (0, 1, len(docs) // 2, len(docs)):
        got = pack.prefix(m)
        want = PackedCorpus.from_matrices(dict(list(docs.items())[:m]))
        assert got.table.tobytes() == want.table.tobytes(), m
        assert got.refs.tolist() == want.refs.tolist(), m
        assert got.offsets.tolist() == want.offsets.tolist(), m
        assert got.ids == want.ids, m


def test_doc_of_maps_ids_past_empty_and_dead_docs():
    rng = np.random.default_rng(6)
    b = _unit_rows(rng.standard_normal((3, 4)))
    b[1] = 0.0  # a dead token is not embedded
    docs = {
        "a:0:0": _mat(rng.standard_normal((2, 4))),
        "empty:0:0": EmbeddingMatrix(rows=np.zeros((0, 4), dtype=np.float32)),
        "dead:0:0": EmbeddingMatrix(rows=np.zeros((2, 4), dtype=np.float32)),
        "b:0:0": EmbeddingMatrix(rows=b),
    }
    idx = build_index(docs, n_partitions=2, n_subspaces=2, n_codewords=2, seed=0)
    np.testing.assert_array_equal(idx.doc_offsets, [0, 2, 2, 2, 4])
    assert [doc_of(idx, e) for e in range(4)] == [
        ("a:0:0", 0), ("a:0:0", 1), ("b:0:0", 0), ("b:0:0", 1)
    ]
    q = EmbeddingMatrix(rows=b[[2]], is_query=True)
    assert sorted(candidate_docs(idx, q, None, 2).tolist()) == [0, 3]  # a and b


def test_pq_reconstruction_mse_improves_with_k():
    rng = np.random.default_rng(11)
    docs, _ = _random_corpus(rng, n_docs=500, tokens_per_doc=20, dim=32)
    kw = dict(n_partitions=64, n_subspaces=16, seed=2)
    idx_hi = build_index(docs, n_codewords=256, **kw)
    idx_lo = build_index(docs, n_codewords=16, **kw)

    def mse(idx):
        total = 0.0
        count = 0
        for p in range(idx.n_partitions):
            ids, codes = partition(idx, p)
            for i, emb_id in enumerate(ids):
                doc_id, pos = doc_of(idx, int(emb_id))
                original = docs[doc_id].rows[pos]
                rec = idx.coarse[p] + np.concatenate(
                    [idx.codebooks[s, codes[i, s]] for s in range(idx.n_subspaces)]
                )
                total += float(np.sum((rec - original) ** 2))
                count += 1
        return total / count

    assert mse(idx_hi) < mse(idx_lo)


# -- search -----------------------------------------------------------------------


def _one_row_call(idx, query_vec, nprobe):
    """The arguments but per_row that candidate_docs passes adc_topk_rows for a one-row query."""
    query = EmbeddingMatrix(rows=np.asarray(query_vec, dtype=np.float32)[None, :])
    with mock.patch.object(_kernels, "adc_topk_rows", wraps=_kernels.adc_topk_rows) as kernel:
        candidate_docs(idx, query, 1, nprobe)
    return kernel.call_args.args[:-1]


def _one_row_search(idx, query_vec, nprobe, topk):
    """The table rows a one-row query keeps through the candidate kernel."""
    return _kernels.adc_topk_rows(*_one_row_call(idx, query_vec, nprobe), topk).tolist()


def _one_row_scores(idx, query_vec, nprobe):
    """The ADC score of every table row a one-row query probes, {table row: score}.

    A budget of 1 cuts a row that probes two or more entries, so the kernel
    scans every one of them: these are the scores its cut compares.
    """
    args = _one_row_call(idx, query_vec, nprobe)
    scan, scans = _kernels._adc_scan_probes, []
    with mock.patch.object(
        _kernels, "_adc_scan_probes", side_effect=lambda *a: scans.append(scan(*a)) or scans[-1]
    ):
        _kernels.adc_topk_rows(*args, 1)
    ((_, pos, scores),) = scans
    return dict(zip(args[-1][pos].tolist(), scores.tolist()))


def test_search_lossless_limit_matches_exact_argmax():
    docs, centers = _centroid_aligned_corpus(dim=8, n_centers=4, reps=6)
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    all_rows = PackedCorpus.from_matrices(docs).table  # the hits' rows
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = _unit_rows(rng.standard_normal((1, 8)))[0]
        hits = _one_row_search(idx, q, nprobe=idx.n_partitions, topk=1)
        scores = _one_row_scores(idx, q, nprobe=idx.n_partitions)
        exact_scores = all_rows @ q
        best = float(exact_scores.max())
        assert hits
        for hit in hits:
            assert scores[hit] == pytest.approx(best, abs=1e-5)
            assert exact_scores[hit] == pytest.approx(best, abs=1e-5)


def test_search_topk_saturation_returns_all_in_probe_order():
    docs, centers = _centroid_aligned_corpus()
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    q = np.ones(8, dtype=np.float32) / np.sqrt(8)
    hits = _one_row_search(idx, q, nprobe=4, topk=10_000)
    assert len(hits) == idx.rows.shape[0] == len(centers)  # each distinct row once
    assert hits == idx.rows.tolist()  # every partition probed, in partition order
    assert len(_one_row_scores(idx, q, nprobe=4)) == len(hits)


def test_search_keeps_every_row_tied_at_the_cut():
    # one partition and one codeword: distinct rows share the one code, so
    # their scores tie exactly, and a cut at the first place keeps all four
    v = _unit_rows(np.eye(4) + 0.5)
    docs = {f"{name}:0:0": EmbeddingMatrix(rows=v[[i]]) for i, name in enumerate("dcba")}
    idx = build_index(docs, n_partitions=1, n_subspaces=2, n_codewords=1, seed=0)
    assert len(set(_one_row_scores(idx, v[3], nprobe=1).values())) == 1
    assert sorted(_one_row_search(idx, v[3], nprobe=1, topk=1)) == [0, 1, 2, 3]


def test_search_empty_index():
    idx = IvfPqIndex(
        coarse=np.zeros((1, 4), dtype=np.float32),
        codebooks=np.zeros((2, 1, 2), dtype=np.float32),
        part_offsets=np.zeros(2, dtype=np.int64),
        rows=np.zeros(0, dtype=np.uint32),
        codes=np.zeros((0, 2), dtype=np.uint8),
        doc_refs=np.zeros(0, dtype=np.uint32),
        doc_offsets=np.zeros(1, dtype=np.int64),
        doc_ids=[],
    )
    # only candidate_docs guards the empty index; the batched scan below it does not
    for n_rows in (1, 4):
        with pytest.raises(EmptyIndex):
            candidate_docs(idx, EmbeddingMatrix(rows=np.eye(n_rows, 4, dtype=np.float32)), 10, 1)


def test_search_recall_against_exact_scan():
    rng = np.random.default_rng(21)
    docs, centers = _random_corpus(
        rng, n_docs=500, tokens_per_doc=20, dim=32, n_clusters=64, noise=0.15
    )
    idx = build_index(docs, n_partitions=64, n_subspaces=16, n_codewords=256, seed=5)
    rows = np.vstack([m.rows for m in docs.values()])
    hits_total = 0
    for _ in range(10):
        raw = centers[rng.integers(64)][None] + 0.15 * rng.standard_normal((1, 32))
        q = _unit_rows(raw)[0]
        approx = set(_one_row_search(idx, q, nprobe=8, topk=100))
        exact = set(np.argsort(-(rows @ q), kind="stable")[:100].tolist())
        hits_total += len(approx & exact)
    assert hits_total / 10 >= 90


# -- candidate generation -----------------------------------------------------------


def test_candidates_collapse_to_single_doc():
    v = np.eye(4, dtype=np.float32)
    docs = {
        "one:0:0": EmbeddingMatrix(rows=v[:2]),
        "two:0:0": EmbeddingMatrix(rows=-v[:2]),
    }
    idx = build_index(docs, n_partitions=2, n_subspaces=2, n_codewords=4, seed=0)
    q = EmbeddingMatrix(rows=v[:2], is_query=True)
    cands = candidate_docs(idx, q, n_prime=2, nprobe=1)
    assert cands.dtype == np.int64 and cands.tolist() == [0]  # "one:0:0"


def test_candidates_saturation_returns_all_docs():
    rng = np.random.default_rng(8)
    docs, _ = _random_corpus(rng, n_docs=30, tokens_per_doc=4, dim=8)
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=16, seed=0)
    q = EmbeddingMatrix(rows=_unit_rows(rng.standard_normal((3, 8))), is_query=True)
    cands = candidate_docs(idx, q, n_prime=None, nprobe=4)
    assert sorted(cands.tolist()) == list(range(len(docs)))
    cands2 = candidate_docs(idx, q, n_prime=idx.n_embeddings, nprobe=4)
    assert sorted(cands2.tolist()) == list(range(len(docs)))


def test_candidates_toy_union_matches_brute_force():
    # three docs with hand-placed vectors; query rows pick specific winners
    e = np.eye(4, dtype=np.float32)
    docs = {
        "a:0:0": EmbeddingMatrix(rows=np.stack([e[0]])),
        "b:0:0": EmbeddingMatrix(rows=np.stack([e[1]])),
        "c:0:0": EmbeddingMatrix(rows=np.stack([e[2], e[3]])),
    }
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=4, seed=1)
    q = EmbeddingMatrix(rows=np.stack([e[0], e[2]]), is_query=True)
    # per row fetch = ceil(2/2) = 1: row0 -> embedding e0 (doc a), row1 -> e2 (doc c)
    cands = candidate_docs(idx, q, n_prime=2, nprobe=4)
    assert set(cands.tolist()) == {0, 2}  # docs a and c


@pytest.mark.parametrize("nprobe", [1, 3, 6])
def test_candidate_docs_on_repeated_rows_matches_the_flat_scan(nprobe):
    rng = np.random.default_rng(14)
    docs, table = _repeated_rows_corpus(rng)
    idx = build_index(docs, n_partitions=6, n_subspaces=4, n_codewords=16, seed=3)
    queries = [
        table[[0, 0, 1, 2, 0, 5]],  # frequent tokens, one of them three times
        table[rng.choice(40, size=9)],
        _unit_rows(rng.standard_normal((4, 16))),
    ]
    for rows in queries:
        q = EmbeddingMatrix(rows=rows, is_query=True)
        for n_prime in (1, 7, 50, None):
            want = candidate_docs_reference(idx, q, n_prime, nprobe)
            got = candidate_docs(idx, q, n_prime, nprobe)
            assert got.dtype == np.int64 and np.all(np.diff(got) > 0)  # a set, ascending
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("nprobe", [1, 3, 8])
def test_candidate_docs_without_repeats_equal_the_per_embedding_scan(nprobe):
    # each table row is one pack row, so counting distinct rows counts embeddings
    rng = np.random.default_rng(19)
    docs, _ = _random_corpus(rng, n_docs=60, tokens_per_doc=5, dim=16)
    docs["empty:0:0"] = EmbeddingMatrix(rows=np.zeros((0, 16), dtype=np.float32))
    idx = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=3)
    assert idx.rows.shape[0] == idx.n_embeddings
    for _ in range(4):
        q = EmbeddingMatrix(rows=_unit_rows(rng.standard_normal((5, 16))), is_query=True)
        for n_prime in (1, 7, 50, None):
            want = candidate_docs_per_embedding(idx, q, n_prime, nprobe)
            assert candidate_docs(idx, q, n_prime, nprobe).tolist() == want.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_docs_on_repeated_rows_hold_the_per_embedding_scans(seed):
    # a budget of distinct rows reaches at least the documents a budget of
    # embeddings reached; rows drawn from a continuous distribution do not
    # tie at the cut
    rng = np.random.default_rng(seed)
    docs, table = _repeated_rows_corpus(rng, n_docs=80, vocab=60)
    idx = build_index(docs, n_partitions=6, n_subspaces=8, n_codewords=64, seed=seed)
    assert idx.rows.shape[0] < idx.n_embeddings
    grew = 0
    for _ in range(6):
        q = EmbeddingMatrix(rows=_unit_rows(rng.standard_normal((4, 16))), is_query=True)
        for n_prime, nprobe in ((1, 2), (7, 3), (50, 6), (None, 1)):
            got = set(candidate_docs(idx, q, n_prime, nprobe).tolist())
            was = set(candidate_docs_per_embedding(idx, q, n_prime, nprobe).tolist())
            assert got >= was
            grew += got > was
    assert grew  # and a repeated row's other documents come in


@pytest.mark.parametrize("n_prime", [0, -1, -5, -100])
def test_candidates_reject_count_below_one(n_prime):
    rng = np.random.default_rng(8)
    docs, _ = _random_corpus(rng, n_docs=30, tokens_per_doc=4, dim=8)
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=16, seed=0)
    q = EmbeddingMatrix(rows=_unit_rows(rng.standard_normal((3, 8))), is_query=True)
    with pytest.raises(ValueError, match="candidate count"):
        candidate_docs(idx, q, n_prime=n_prime, nprobe=4)


def test_monotone_recall_in_nprobe():
    rng = np.random.default_rng(13)
    docs, centers = _random_corpus(rng, n_docs=400, tokens_per_doc=10, dim=16, n_clusters=32)
    idx = build_index(docs, n_partitions=32, n_subspaces=8, n_codewords=64, seed=3)
    rows = np.vstack([m.rows for m in docs.values()])
    doc_of_row = []
    for doc_id, m in docs.items():
        doc_of_row.extend([doc_id] * m.n_rows)

    queries = [
        EmbeddingMatrix(rows=_unit_rows(rng.standard_normal((4, 16))), is_query=True)
        for _ in range(15)
    ]

    def exact_top_docs(q, k=10):
        scores = {}
        for doc_id, m in docs.items():
            s = float((m.rows @ q.rows.T).max(axis=0).sum())
            scores[doc_id] = s
        return [d for d, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]

    recalls = []
    for nprobe in (1, 2, 4, 8, 16, 32):
        total = 0.0
        for q in queries:
            cands = {idx.doc_ids[i] for i in candidate_docs(idx, q, n_prime=100, nprobe=nprobe)}
            gold = exact_top_docs(q)
            total += len(cands & set(gold)) / len(gold)
        recalls.append(total / len(queries))
    for a, b in zip(recalls, recalls[1:]):
        assert b >= a - 1e-9
    assert recalls[-1] >= recalls[0]


# -- serialization ------------------------------------------------------------------


def test_index_roundtrip_identical_search(tmp_path):
    rng = np.random.default_rng(17)
    docs, _ = _random_corpus(rng, n_docs=50, tokens_per_doc=5, dim=16)
    pack = PackedCorpus.from_matrices(docs)
    idx = build_index(pack, n_partitions=8, n_subspaces=4, n_codewords=32, seed=6)
    p = tmp_path / "idx.fbli"
    _write(p, _fbli_pieces(idx))
    back = load_index(p, pack)
    assert back.doc_offsets is pack.offsets and back.doc_ids is pack.ids
    q = _unit_rows(rng.standard_normal((1, 16)))[0]
    assert _one_row_search(idx, q, nprobe=8, topk=20) == _one_row_search(
        back, q, nprobe=8, topk=20
    )
    assert _one_row_scores(idx, q, nprobe=8) == _one_row_scores(back, q, nprobe=8)
    # byte-identical re-serialization
    p2 = tmp_path / "idx2.fbli"
    _write(p2, _fbli_pieces(back))
    assert p.read_bytes() == p2.read_bytes()


def _saved_index(tmp_path, docs=None):
    if docs is None:
        docs, _ = _random_corpus(np.random.default_rng(23), n_docs=20, tokens_per_doc=4, dim=8)
    pack = PackedCorpus.from_matrices(docs)
    idx = build_index(pack, n_partitions=4, n_subspaces=2, n_codewords=8, seed=0)
    p = tmp_path / "idx.fbli"
    _write(p, _fbli_pieces(idx))
    return idx, pack, p, bytearray(p.read_bytes())


def _fbli_layout(idx):
    """Byte offsets of part_offsets, rows and codes in FBLI v5."""
    p_count, d = idx.n_partitions, idx.dim
    part = 4 + 28 + p_count * d * 4 + idx.n_codewords * d * 4
    rows = part + (p_count + 1) * 8
    return part, rows, rows + idx.rows.shape[0] * 4


def _put_i8(raw, at, value):
    raw[at : at + 8] = int(value).to_bytes(8, "little", signed=True)


def test_fbli_ends_with_the_codes(tmp_path):
    idx, _, _, raw = _saved_index(tmp_path)
    *_, codes = _fbli_layout(idx)
    assert bytes(raw[codes:]) == idx.codes.tobytes()  # no document table follows


def test_load_index_rejects_list_id_out_of_range(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    _, rows, _ = _fbli_layout(idx)
    raw[rows : rows + 4] = idx.rows.shape[0].to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="inverted-list rows"):
        load_index(p, pack)


def test_load_index_rejects_a_row_listed_twice(tmp_path):
    docs, _ = _repeated_rows_corpus(np.random.default_rng(5))
    idx, pack, p, raw = _saved_index(tmp_path, docs)
    _, rows, _ = _fbli_layout(idx)
    raw[rows + 4 : rows + 8] = raw[rows : rows + 4]  # the first entry's row, twice
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="inverted-list rows"):
        load_index(p, pack)


def test_load_index_rejects_code_out_of_range(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    *_, codes = _fbli_layout(idx)
    raw[codes] = idx.n_codewords
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="codebook size"):
        load_index(p, pack)


def test_load_index_rejects_partition_counts_off_total(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    part, *_ = _fbli_layout(idx)
    _put_i8(raw, part + idx.n_partitions * 8, idx.rows.shape[0] - 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="partition offsets"):
        load_index(p, pack)


def test_load_index_rejects_doc_offsets_off_total(tmp_path):
    # a pack whose offsets end short of the index's embeddings is not its
    # pack: without repeats its table is shorter than the index's list
    idx, pack, p, _ = _saved_index(tmp_path)
    shorter = pack.prefix(len(pack) - 1)
    assert shorter.table.shape[0] < idx.rows.shape[0]
    with pytest.raises(FormatError, match=f"indexes {idx.rows.shape[0]} table rows"):
        load_index(p, shorter)
    wider = PackedCorpus(
        np.zeros((idx.rows.shape[0], 16), np.float32), pack.refs, pack.offsets, pack.ids
    )
    with pytest.raises(FormatError, match="of dim 16"):
        load_index(p, wider)


def test_load_index_rejects_version_1_naming_the_fix(tmp_path):
    _, pack, p, raw = _saved_index(tmp_path)
    # v2 held its own copy of the document table, v3 one code per embedding,
    # v4 runs of pack rows
    for version in (1, 2, 3, 4):
        raw[4:8] = version.to_bytes(4, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version}.*re-run `fbl index`"):
            load_index(p, pack)


def test_index_bad_magic(tmp_path):
    p = tmp_path / "x.fbli"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError) as exc:
        load_index(p, PackedCorpus.from_matrices({}))
    assert "x.fbli" in str(exc.value)


def test_k1_codebooks_degenerate_to_coarse_ranking():
    # with K=1 and M=dim, ADC adds the same constant to every entry, so
    # search order inside/across partitions follows the coarse term alone
    rng = np.random.default_rng(31)
    docs, _ = _random_corpus(rng, n_docs=40, tokens_per_doc=3, dim=8)
    idx = build_index(docs, n_partitions=6, n_subspaces=8, n_codewords=1, seed=2)
    q = _unit_rows(rng.standard_normal((1, 8)))[0]
    scores = _one_row_scores(idx, q, nprobe=6)
    coarse_sims = idx.coarse @ q
    shift = float(sum(idx.codebooks[s, 0] @ q[s : s + 1] for s in range(8)))
    # every embedding's score equals its partition's coarse sim plus the shift
    by_part = {}
    for p in range(6):
        ids, _ = partition(idx, p)
        for e in ids:
            by_part[int(e)] = p
    assert len(scores) == idx.rows.shape[0]
    for emb_id, score in scores.items():
        assert score == pytest.approx(coarse_sims[by_part[emb_id]] + shift, abs=1e-5)
