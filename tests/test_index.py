import numpy as np
import pytest
from conftest import (
    assign_nearest_reference,
    doc_of,
    kmeans_pp_init_reference,
    partition,
    reconstruct,
)

from fbl import _kernels
from fbl import index as index_module
from fbl.embed import EmbeddingMatrix, PackedCorpus
from fbl.errors import EmptyIndex, FormatError, InsufficientData
from fbl.index import (
    IvfPqIndex,
    _batched_row_search,
    _kmeans_pp_init,
    build_index,
    candidate_docs,
    kmeans,
    load_index,
    save_index,
)


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
        res = kmeans(pts, k=12, max_iters=30, seed=seed)
        assert len(res.distortions) >= 1
        for a, b in zip(res.distortions, res.distortions[1:]):
            assert b <= a + 1e-12


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
    got = _kmeans_pp_init(pts, k, np.random.default_rng(3))
    ref = kmeans_pp_init_reference(pts, k, np.random.default_rng(3))
    assert got.tobytes() == ref.tobytes()
    if case == "fewer_distinct_than_k":
        assert len(np.unique(got, axis=0)) == 5


def test_build_index_is_bit_identical_with_the_reference_kernels(monkeypatch):
    docs, _ = _random_corpus(np.random.default_rng(12), 1100, 8, 16)  # 8800 rows: two chunks
    args = dict(n_partitions=24, n_subspaces=4, n_codewords=32, seed=4, max_iters=4)
    fast = build_index(docs, **args)
    monkeypatch.setattr(index_module, "_kmeans_pp_init", kmeans_pp_init_reference)
    monkeypatch.setattr(_kernels, "assign_nearest", assign_nearest_reference)
    ref = build_index(docs, **args)
    for name in ("coarse", "codebooks", "part_offsets", "flat_ids", "flat_codes", "doc_offsets"):
        assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name


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
    docs = {"a:0:0": _mat(np.ones((2, 4)))}
    with pytest.raises(InsufficientData):
        build_index(docs, n_partitions=3, n_subspaces=2)


def test_build_rejects_bad_subspaces():
    docs = {"a:0:0": _mat(np.ones((4, 6)))}
    with pytest.raises(ValueError):
        build_index(docs, n_partitions=2, n_subspaces=4)


def test_build_deterministic_serialization(tmp_path):
    rng = np.random.default_rng(3)
    docs, _ = _random_corpus(rng, n_docs=40, tokens_per_doc=6, dim=16)
    idx1 = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=7)
    idx2 = build_index(docs, n_partitions=8, n_subspaces=4, n_codewords=16, seed=7)
    p1, p2 = tmp_path / "a.fbli", tmp_path / "b.fbli"
    save_index(idx1, p1)
    save_index(idx2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_registry_bijection():
    rng = np.random.default_rng(4)
    docs, _ = _random_corpus(rng, n_docs=25, tokens_per_doc=5, dim=8)
    idx = build_index(docs, n_partitions=4, n_subspaces=2, n_codewords=16, seed=1)
    pairs = {doc_of(idx, e) for e in range(idx.n_embeddings)}
    assert len(pairs) == idx.n_embeddings == 25 * 5
    assert idx.flat_ids.size == idx.n_embeddings
    lengths = np.diff(idx.part_offsets)
    assert lengths.sum() == idx.n_embeddings


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


def _one_row_search(idx, query_vec, nprobe, topk):
    """A one-row query through the batched candidate path, as (id, score) pairs."""
    q_rows = np.ascontiguousarray(query_vec, dtype=np.float32)[None, :]
    ids, scores = _batched_row_search(idx, q_rows, nprobe, topk)
    return [(int(i), float(s)) for i, s in zip(ids, scores)]


def test_search_lossless_limit_matches_exact_argmax():
    docs, centers = _centroid_aligned_corpus(dim=8, n_centers=4, reps=6)
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    all_rows = np.vstack([docs[doc_of(idx, e)[0]].rows[doc_of(idx, e)[1]] for e in range(idx.n_embeddings)])
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = _unit_rows(rng.standard_normal((1, 8)))[0]
        hits = _one_row_search(idx, q, nprobe=idx.n_partitions, topk=1)
        exact_scores = all_rows @ q
        best = float(exact_scores.max())
        assert hits[0][1] == pytest.approx(best, abs=1e-5)
        assert exact_scores[hits[0][0]] == pytest.approx(best, abs=1e-5)


def test_search_topk_saturation_returns_all_sorted():
    docs, _ = _centroid_aligned_corpus()
    idx = build_index(docs, n_partitions=4, n_subspaces=4, n_codewords=4, seed=0)
    q = np.ones(8, dtype=np.float32) / np.sqrt(8)
    hits = _one_row_search(idx, q, nprobe=4, topk=10_000)
    assert len(hits) == idx.n_embeddings
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)


def test_search_tie_break_by_embedding_id():
    # two identical vectors in different docs tie exactly
    v = np.zeros(4, dtype=np.float32)
    v[0] = 1.0
    docs = {
        "a:0:0": EmbeddingMatrix(rows=np.stack([v, v])),
        "b:0:0": EmbeddingMatrix(rows=np.stack([v, v])),
    }
    idx = build_index(docs, n_partitions=1, n_subspaces=2, n_codewords=2, seed=0)
    hits = _one_row_search(idx, v, nprobe=1, topk=4)
    assert [h[0] for h in hits] == [0, 1, 2, 3]


def test_search_empty_index():
    idx = IvfPqIndex(
        coarse=np.zeros((1, 4), dtype=np.float32),
        codebooks=np.zeros((2, 1, 2), dtype=np.float32),
        part_offsets=np.zeros(2, dtype=np.int64),
        flat_ids=np.zeros(0, dtype=np.uint64),
        flat_codes=np.zeros((0, 2), dtype=np.uint8),
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
        approx = {e for e, _ in _one_row_search(idx, q, nprobe=8, topk=100)}
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
    save_index(idx, p)
    back = load_index(p, pack)
    assert back.doc_offsets is pack.offsets and back.doc_ids is pack.ids
    q = _unit_rows(rng.standard_normal((1, 16)))[0]
    assert _one_row_search(idx, q, nprobe=8, topk=20) == _one_row_search(
        back, q, nprobe=8, topk=20
    )
    # byte-identical re-serialization
    p2 = tmp_path / "idx2.fbli"
    save_index(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def _saved_index(tmp_path):
    rng = np.random.default_rng(23)
    docs, _ = _random_corpus(rng, n_docs=20, tokens_per_doc=4, dim=8)
    pack = PackedCorpus.from_matrices(docs)
    idx = build_index(pack, n_partitions=4, n_subspaces=2, n_codewords=8, seed=0)
    p = tmp_path / "idx.fbli"
    save_index(idx, p)
    return idx, pack, p, bytearray(p.read_bytes())


def _fbli_layout(idx):
    """Byte offsets of part_offsets, flat_ids and flat_codes in FBLI v3."""
    p_count, d, n = idx.n_partitions, idx.dim, idx.n_embeddings
    part = 4 + 28 + p_count * d * 4 + idx.n_codewords * d * 4
    ids = part + (p_count + 1) * 8
    return part, ids, ids + n * 8


def _put_i8(raw, at, value):
    raw[at : at + 8] = int(value).to_bytes(8, "little", signed=True)


def test_fbli_ends_with_the_codes(tmp_path):
    idx, _, _, raw = _saved_index(tmp_path)
    _, _, codes = _fbli_layout(idx)
    assert bytes(raw[codes:]) == idx.flat_codes.tobytes()  # no document table follows


def test_load_index_rejects_list_id_out_of_range(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    _, ids, _ = _fbli_layout(idx)
    raw[ids : ids + 8] = idx.n_embeddings.to_bytes(8, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="inverted-list ids"):
        load_index(p, pack)


def test_load_index_rejects_code_out_of_range(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    _, _, codes = _fbli_layout(idx)
    raw[codes] = idx.n_codewords
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="codebook size"):
        load_index(p, pack)


def test_load_index_rejects_partition_counts_off_total(tmp_path):
    idx, pack, p, raw = _saved_index(tmp_path)
    part, _, _ = _fbli_layout(idx)
    _put_i8(raw, part + idx.n_partitions * 8, idx.n_embeddings - 1)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="partition offsets"):
        load_index(p, pack)


def test_load_index_rejects_doc_offsets_off_total(tmp_path):
    # a pack whose offsets end short of the index's embeddings is not its pack
    idx, pack, p, _ = _saved_index(tmp_path)
    shorter = PackedCorpus(pack.rows[:-4], pack.offsets[:-1], pack.ids[:-1])
    with pytest.raises(FormatError, match=f"indexes {idx.n_embeddings} embeddings"):
        load_index(p, shorter)
    wider = PackedCorpus(np.zeros((idx.n_embeddings, 16), np.float32), pack.offsets, pack.ids)
    with pytest.raises(FormatError, match="of dim 16"):
        load_index(p, wider)


def test_load_index_rejects_version_1_naming_the_fix(tmp_path):
    _, pack, p, raw = _saved_index(tmp_path)
    for version in (1, 2):  # v2 held its own copy of the document table
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
    hits = _one_row_search(idx, q, nprobe=6, topk=idx.n_embeddings)
    coarse_sims = idx.coarse @ q
    shift = float(sum(idx.codebooks[s, 0] @ q[s : s + 1] for s in range(8)))
    # every embedding's score equals its partition's coarse sim plus the shift
    by_part = {}
    for p in range(6):
        ids, _ = partition(idx, p)
        for e in ids:
            by_part[int(e)] = p
    for emb_id, score in hits:
        assert score == pytest.approx(coarse_sims[by_part[emb_id]] + shift, abs=1e-5)
