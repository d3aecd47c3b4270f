import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    repeated_row_docs,
    step_reference,
    train_projection_reference,
    write_unchecked_fble,
)
from fbl import _kernels, embed
from fbl.corpus import Triplet
from fbl.embed import (
    EmbeddingMatrix,
    FileEmbedder,
    LinearProjection,
    PackedCorpus,
    ReferenceHashEmbedder,
    TrainResult,
    TripletTrainConfig,
    _normalize_rows,
    embed_distinct,
    embed_sequence,
    gradient_of_loss,
    loss_from_raw,
    train_projection,
)
from fbl.encode import EncodedSequence
from fbl.errors import DimensionMismatch, FormatError, NonFiniteLoss
from fbl.pipeline import Config
from fbl.store import load_embedder, load_projection, read_matrix_file, write_matrix_file


def _seq(ids, limit):
    return EncodedSequence(ids=tuple(ids), limit=limit)


def test_hash_embedder_deterministic_across_instances():
    a = ReferenceHashEmbedder(d_in=16, seed=9)
    b = ReferenceHashEmbedder(d_in=16, seed=9)
    ids = [3, 1, 4, 1, 5]
    np.testing.assert_array_equal(a.embed_ids(ids), b.embed_ids(ids))
    # lookup order must not matter
    c = ReferenceHashEmbedder(d_in=16, seed=9)
    c.embed_ids([5])
    np.testing.assert_array_equal(a.embed_ids(ids), c.embed_ids(ids))
    d = ReferenceHashEmbedder(d_in=16, seed=10)
    assert not np.allclose(a.embed_ids(ids), d.embed_ids(ids))


def test_hash_embedder_rows_unit_norm():
    emb = ReferenceHashEmbedder(d_in=32, seed=0)
    rows = emb.embed_ids(list(range(20)))
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)


def test_fble_roundtrip(tmp_path):
    mat = np.arange(12, dtype=np.float32).reshape(3, 4)
    p = tmp_path / "m.fble"
    write_matrix_file(p, mat)
    back = read_matrix_file(p)
    np.testing.assert_array_equal(back, mat)


@pytest.mark.parametrize("value", [1e39, -1e200, np.inf, np.nan])
def test_fble_writer_refuses_a_value_float32_cannot_hold(tmp_path, value):
    # what LinearProjection and FileEmbedder reject never reaches a file
    p = tmp_path / "m.fble"
    mat = np.ones((2, 3))
    mat[1, 2] = value
    with pytest.raises(ValueError, match="finite float32"):
        write_matrix_file(p, mat)
    assert not p.exists() and list(tmp_path.iterdir()) == []


def test_fble_bad_magic(tmp_path):
    p = tmp_path / "m.fble"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        read_matrix_file(p)
    assert "m.fble" in str(exc.value)


def test_fble_rejects_bytes_past_the_payload(tmp_path):
    p = tmp_path / "m.fble"
    write_matrix_file(p, np.ones((2, 3), dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="past"):
        read_matrix_file(p)


def test_fble_of_another_version_names_the_file_but_no_session_rebuild(tmp_path):
    # an FBLE is also a user's input (--projection, --embedder file:), not only a session's
    p = tmp_path / "m.fble"
    write_matrix_file(p, np.ones((2, 3), dtype=np.float32))
    raw = p.read_bytes()
    p.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
    with pytest.raises(FormatError, match=r"m\.fble: format version 3") as exc:
        read_matrix_file(p)
    assert "fbl index" not in str(exc.value)


def test_fble_header_claiming_a_huge_payload_raises_format_error(tmp_path):
    # checked against the file's size; the header never sizes a read
    p = tmp_path / "m.fble"
    p.write_bytes(b"FBLE" + struct.pack("<III", 1, 0xFFFFFFFF, 0xFFFFFFFF) + b"\x00" * 8)
    with pytest.raises(FormatError, match="truncated payload"):
        read_matrix_file(p)


def test_projection_with_non_finite_weight_raises_format_error(tmp_path):
    p = tmp_path / "proj.fble"
    # a quiet NaN, and a signalling one, whose cast to float64 warns
    for bits in (0x7FC00000, 0x7F800001):
        weights = np.ones((4, 2), dtype=np.float32)
        weights.view(np.uint32)[1, 1] = bits
        write_unchecked_fble(p, weights)
        with pytest.raises(FormatError, match="proj.fble"):
            load_projection(p)


def test_file_embedder_range_check(tmp_path):
    p = tmp_path / "e.fble"
    write_matrix_file(p, np.eye(4, dtype=np.float32))
    emb = load_embedder(p)
    assert emb.d_in == 4
    np.testing.assert_array_equal(emb.embed_ids([2])[0], np.eye(4)[2])
    with pytest.raises(ValueError):
        emb.embed_ids([4])


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_file_embedder_keeps_its_stored_table_and_widens_only_the_rows_asked(tmp_path, dtype):
    # a table of float16 values is stored, loaded and kept at 2 bytes a value
    p = tmp_path / "e.fble"
    table = np.random.default_rng(2).standard_normal((6, 4)).astype(dtype)
    write_matrix_file(p, table)
    emb = load_embedder(p)
    assert emb.matrix.dtype == dtype and not emb.matrix.flags.writeable
    got = emb.embed_ids([5, 0, 5])
    want = table.astype(np.float64)[[5, 0, 5]]  # the rows a float64 copy of the table gave
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert emb.embed_ids([]).shape == (0, 4) and emb.embed_ids([]).dtype == np.float64


def test_file_embedder_rejects_a_non_finite_row_naming_it(tmp_path):
    p = tmp_path / "e.fble"
    # a quiet NaN, a signalling one (whose cast to float64 warns), and inf
    for bits in (0x7FC00000, 0x7F800001, 0x7F800000):
        table = np.eye(4, dtype=np.float32)
        table.view(np.uint32)[2, 1] = bits
        table.view(np.uint32)[3, 0] = bits
        write_unchecked_fble(p, table)
        with pytest.raises(FormatError, match=r"e\.fble: row 2 "):
            load_embedder(p)


def test_embed_sequence_identity_projection():
    emb = ReferenceHashEmbedder(d_in=8, seed=1)
    proj = LinearProjection(np.eye(8))
    seq = _seq([5, 6, 7], limit=6)
    mat = embed_sequence(seq, emb, proj)
    np.testing.assert_allclose(mat.rows, emb.embed_ids([5, 6, 7]).astype(np.float32), atol=1e-7)


def test_embed_sequence_unit_norm_rows():
    emb = ReferenceHashEmbedder(d_in=24, seed=2)
    proj = LinearProjection.seeded_init(24, 8, seed=3)
    seq = _seq(list(range(10)), limit=12)
    mat = embed_sequence(seq, emb, proj)
    np.testing.assert_allclose(np.linalg.norm(mat.rows, axis=1), 1.0, atol=1e-6)


def test_embed_sequence_dimension_mismatch():
    emb = ReferenceHashEmbedder(d_in=8, seed=1)
    proj = LinearProjection.seeded_init(16, 4, seed=0)
    with pytest.raises(DimensionMismatch):
        embed_sequence(_seq([1], limit=4), emb, proj)


def _embedders(tmp_path):
    table = np.random.default_rng(6).standard_normal((12, 8)).astype(np.float32)
    table[4] = 0.0  # a dead token: its rows stay zero
    table[7] = table[2]  # two ids, byte-equal rows
    write_matrix_file(tmp_path / "e.fble", table)
    return [ReferenceHashEmbedder(d_in=8, seed=3), load_embedder(tmp_path / "e.fble")]


def test_embedder_rows_depend_only_on_their_id(tmp_path):
    for emb in _embedders(tmp_path):
        for ids in ([], [7], [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], [4, 4, 0, 4]):
            unique, inverse = np.unique(np.asarray(ids, dtype=np.int64), return_inverse=True)
            got = emb.embed_ids(ids)
            assert got.shape == (len(ids), 8)
            np.testing.assert_array_equal(got, emb.embed_ids(unique.tolist())[inverse])


def test_embed_documents_equals_embedding_each_document(tmp_path):
    from fbl.pipeline import embed_documents

    rng = np.random.default_rng(2)
    # ids repeat within and across documents, and two documents are empty
    seqs = {f"d{i}": _seq(rng.integers(0, 12, size=n).tolist(), limit=40)
            for i, n in enumerate([5, 0, 31, 1, 0, 12, 37])}
    seqs["dead"] = _seq([4, 4], limit=4)  # every row zero under the file table
    # ids 2 and 7 have byte-equal rows under the file table: one table row
    seqs["twin2"], seqs["twin7"] = _seq([2, 2], limit=4), _seq([7], limit=4)
    proj = LinearProjection.seeded_init(8, 6, seed=1)
    for emb in _embedders(tmp_path):
        for docs in (seqs, {}):
            got = embed_documents(docs, emb, proj)
            # the table is each row of embed_sequence, rounded to a float16 value
            want = PackedCorpus.from_matrices(
                {doc_id: embed_sequence(seq, emb, proj).rows.astype(np.float16)
                 for doc_id, seq in docs.items()}
            )
            assert got.table.dtype == np.float32 and got.refs.dtype == want.refs.dtype
            assert got.table.tobytes() == want.table.tobytes()
            assert got.refs.tobytes() == want.refs.tobytes()
            assert got.offsets.tolist() == want.offsets.tolist()
            assert got.ids == want.ids == list(docs)
    # under the file table the dead document holds no row, and the twins one each,
    # the same table row
    got = embed_documents(seqs, emb, proj)
    assert got["dead"].n_rows == 0 and got["d1"].n_rows == 0
    twins = got.refs[got.offsets[-3] : got.offsets[-1]]
    assert twins.size == 2 and np.unique(twins).size == 1
    with pytest.raises(DimensionMismatch):
        embed_documents(seqs, emb, LinearProjection.seeded_init(16, 6, seed=1))


@pytest.fixture(scope="module")
def embedders(tmp_path_factory):
    return _embedders(tmp_path_factory.mktemp("embedders"))


def _projected(emb, proj, ids):
    """The reference rows: the ids' raw rows through one GEMM and one normalisation."""
    return _normalize_rows(emb.embed_ids(ids) @ proj.weights).astype(np.float32)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_memo_rows_equal_projecting_the_ids_whatever_the_fill_order(embedders, data):
    # one projection under three embedders, and a second projection under the
    # first; under the file table id 4 is dead and ids 2 and 7 are twins
    p, q = LinearProjection.seeded_init(8, 6, seed=1), LinearProjection.seeded_init(8, 6, seed=2)
    pairs = [(embedders[0], p), (embedders[1], p), (embedders[0], q),
             (ReferenceHashEmbedder(d_in=8, seed=4), p)]
    seqs = st.lists(st.lists(st.integers(0, 11), max_size=12), min_size=1, max_size=3)
    calls = data.draw(st.lists(st.tuples(st.sampled_from(range(4)), seqs), max_size=8))
    for k, batch in calls + [(k, [[0, 1, 3, 2, 7, 4]]) for k in range(4)]:
        emb, proj = pairs[k]
        if len(batch) == 1:
            got = [embed_sequence(_seq(batch[0], limit=12), emb, proj).rows]
        else:
            table, refs = embed_distinct(batch, emb, proj)
            got = [table[r] for r in refs]
        for ids, rows in zip(batch, got):
            assert rows.dtype == np.float32 and rows.shape == (len(ids), 6)
            assert rows.tobytes() == _projected(emb, proj, ids).tobytes()
            assert rows.tobytes() == b"".join(_projected(emb, proj, [i]).tobytes() for i in ids)
    # the four memos hold different rows for the same live ids
    rows = [embed_sequence(_seq([0, 1, 3], limit=3), emb, proj).rows.tobytes()
            for emb, proj in pairs]
    assert len(set(rows)) == 4


def test_the_memo_asks_the_embedder_only_for_the_ids_it_lacks(embedders):
    asked = []

    class Counting:
        d_in = 8

        def embed_ids(self, ids):
            asked.append(list(ids))
            return embedders[0].embed_ids(ids)

    emb, proj = Counting(), LinearProjection.seeded_init(8, 6, seed=1)
    embed_distinct([[3, 1, 3], [5]], emb, proj)
    embed_sequence(_seq([5, 1, 9, 9, 2], limit=5), emb, proj)
    embed_sequence(_seq([9, 3], limit=2), emb, proj)
    assert asked == [[1, 3, 5], [2, 9]]


class _Table(np.ndarray):
    """An ndarray subclass: ``np.asarray`` gives a view of it, not it."""


def test_projection_weights_and_file_tables_are_read_only():
    w = np.random.default_rng(0).standard_normal((8, 6))
    for make, held in ((LinearProjection, "weights"), (FileEmbedder, "matrix")):
        for given in (w, w[:, :4], w.view(_Table), w.tolist(), w.astype(np.float32)):
            arr = getattr(make(given), held)
            want = np.asarray(given, dtype=np.float64).copy()
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
            w[0, 0] += 1.0  # the caller's array was copied, not frozen or shared
            np.testing.assert_array_equal(arr, want)
    # an array that is already read-only is kept as it is, as each training step relies on
    w.flags.writeable = False
    assert LinearProjection(w).weights is w and FileEmbedder(w).matrix is w


def _ids(offsets):
    return [f"d{i}:0:0" for i in range(offsets.shape[0] - 1)]


@settings(max_examples=200, deadline=None)
@given(docs=repeated_row_docs())
def test_a_packed_document_is_its_distinct_rows_in_first_appearance_order(docs):
    table, refs, offsets = docs
    pack = PackedCorpus.from_table(table, refs, offsets, _ids(offsets))
    keys = {row.tobytes() for row in pack.table}
    assert len(keys) == pack.table.shape[0]  # byte-equal rows merged
    for i in range(len(pack)):
        got = pack.refs[pack.offsets[i] : pack.offsets[i + 1]]
        assert np.unique(got).size == got.size  # no (document, table row) pair twice
        want: list[bytes] = []
        for r in refs[offsets[i] : offsets[i + 1]]:
            if table[r].any() and table[r].tobytes() not in want:
                want.append(table[r].tobytes())
        assert [pack.table[j].tobytes() for j in got] == want


@settings(max_examples=200, deadline=None)
@given(docs=repeated_row_docs(), budget=st.sampled_from([1, 3, _kernels._ROW_BUDGET]),
       n_query=st.integers(1, 4))
def test_a_pack_with_repeats_in_a_document_scores_as_its_set_pack(docs, budget, n_query):
    table, refs, offsets = docs
    ids = _ids(offsets)
    pack = PackedCorpus.from_table(table, refs, offsets, ids)
    assume(pack.table.shape[0] < pack.n_rows)  # rows repeat across documents
    # the same documents, each live input row kept, repeats and all
    row_of = {row.tobytes(): j for j, row in enumerate(pack.table)}
    live = [[row_of[table[r].tobytes()] for r in refs[offsets[i] : offsets[i + 1]]
             if table[r].any()] for i in range(len(ids))]
    direct = PackedCorpus(pack.table, np.asarray(sum(live, []), dtype=np.uint32),
                          np.cumsum([0] + [len(x) for x in live], dtype=np.int64), ids)
    assert direct.n_rows >= pack.n_rows
    query = np.random.default_rng(n_query).standard_normal((n_query, table.shape[1]))
    query = (query / np.linalg.norm(query, axis=1, keepdims=True)).astype(np.float32)
    with mock.patch.object(_kernels, "_ROW_BUDGET", budget):
        want = _kernels.maxsim_packed(query, pack.table, pack.refs, pack.offsets[:-1],
                                      pack.offsets[1:])
        got = _kernels.maxsim_packed(query, direct.table, direct.refs, direct.offsets[:-1],
                                     direct.offsets[1:])
    assert got.tobytes() == want.tobytes()


def test_projection_rejects_widening():
    with pytest.raises(ValueError):
        LinearProjection(np.zeros((4, 8)))


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def triplet_loss(q, pos, neg, margin):
    """The training loss of unit rows: loss_from_raw through an identity projection."""
    eye = LinearProjection(np.eye(q.rows.shape[1]))
    return loss_from_raw(q.rows, pos.rows, neg.rows, eye, margin)


def test_triplet_loss_symmetric_case_gives_margin():
    q = EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32), is_query=True)
    d = EmbeddingMatrix(np.array([[0.0, 1.0]], dtype=np.float32))
    assert triplet_loss(q, d, d, margin=0.5) == pytest.approx(0.5, abs=1e-12)


def test_triplet_loss_satisfied_margin_is_zero():
    q = EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32), is_query=True)
    pos = EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32))
    neg = EmbeddingMatrix(np.array([[-1.0, 0.0]], dtype=np.float32))
    # scores 1 and -1; 0.5 - 1 + (-1) < 0
    assert triplet_loss(q, pos, neg, margin=0.5) == 0.0


def test_triplet_loss_hand_value():
    q = EmbeddingMatrix(np.array([[1.0, 0.0]], dtype=np.float32), is_query=True)
    pos = EmbeddingMatrix(np.array([[0.8, 0.6]], dtype=np.float32))
    neg = EmbeddingMatrix(np.array([[0.6, 0.8]], dtype=np.float32))
    # maxsim 0.8 vs 0.6 -> loss = 0.5 - 0.8 + 0.6 = 0.3
    assert triplet_loss(q, pos, neg, margin=0.5) == pytest.approx(0.3, abs=1e-7)


def _finite_difference(q, pos, neg, w, margin, step=1e-5):
    grad = np.zeros_like(w)
    for r in range(w.shape[0]):
        for c in range(w.shape[1]):
            wp = w.copy()
            wp[r, c] += step
            wm = w.copy()
            wm[r, c] -= step
            fp = loss_from_raw(q, pos, neg, LinearProjection(wp), margin)
            fm = loss_from_raw(q, pos, neg, LinearProjection(wm), margin)
            grad[r, c] = (fp - fm) / (2 * step)
    return grad


def test_gradient_zero_in_flat_region():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((3, 8))
    pos = q.copy()  # maxsim(q,pos) maximal
    neg = -q
    w = LinearProjection.seeded_init(8, 4, seed=1)
    # margin tiny -> hinge satisfied -> flat
    g = gradient_of_loss(q, pos, neg, w, margin=1e-6)
    assert np.all(g == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    failures = 0
    for case in range(20):
        q = rng.standard_normal((4, 8))
        pos = rng.standard_normal((5, 8))
        neg = rng.standard_normal((6, 8))
        w = rng.standard_normal((8, 4)) * 0.7
        proj = LinearProjection(w)
        margin = 5.0  # keep the hinge active so the gradient is informative
        analytic = gradient_of_loss(q, pos, neg, proj, margin)
        numeric = _finite_difference(q, pos, neg, w, margin)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        if rel > 1e-4:
            failures += 1
    assert failures == 0


def test_gradient_scaling_invariance_2d():
    # scaling W by c>0 leaves normalized rows unchanged, so the score part of
    # the gradient must be orthogonal to W in the radial sense:
    # d score(cW)/dc = <grad_W score, W> = 0 at c=1.
    rng = np.random.default_rng(7)
    q = rng.standard_normal((2, 2))
    pos = rng.standard_normal((2, 2))
    neg = rng.standard_normal((2, 2))
    w = rng.standard_normal((2, 2))
    proj = LinearProjection(w)
    g = gradient_of_loss(q, pos, neg, proj, margin=10.0)
    assert abs(float((g * w).sum())) < 1e-9


def _training_setup(n_bugs=6, d_in=16):
    """Separable toy set: positives share their token with the query, negatives
    are disjoint tokens."""
    emb = ReferenceHashEmbedder(d_in=d_in, seed=5)
    limit = 4
    queries = {}
    docs = {}
    triplets = []
    for i in range(n_bugs):
        q_tok = 100 + i
        n_tok = 200 + i
        queries[f"b{i}"] = _seq([q_tok], limit=limit)
        docs[f"p{i}"] = _seq([q_tok], limit=limit)
        docs[f"n{i}"] = _seq([n_tok], limit=limit)
        triplets.append(Triplet(bug_id=f"b{i}", positive_doc=f"p{i}", negative_doc=f"n{i}"))
    return triplets, queries, docs, emb


def test_train_zero_triplets_rejected():
    _, queries, docs, emb = _training_setup()
    with pytest.raises(ValueError):
        train_projection([], queries, docs, emb, TripletTrainConfig())


def test_train_zero_epochs_returns_seeded_init():
    triplets, queries, docs, emb = _training_setup()
    cfg = TripletTrainConfig(epochs=0, seed=33)
    result = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    expected = LinearProjection.seeded_init(emb.d_in, 8, seed=33)
    np.testing.assert_array_equal(result.projection.weights, expected.weights)
    assert result.epoch_losses == []


def test_train_reduces_loss_on_separable_set():
    triplets, queries, docs, emb = _training_setup()
    cfg = TripletTrainConfig(margin=1.5, learning_rate=0.2, epochs=4, batch_size=2, seed=2)
    result = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_train_deterministic():
    triplets, queries, docs, emb = _training_setup()
    cfg = TripletTrainConfig(learning_rate=0.1, epochs=2, batch_size=2, seed=4)
    r1 = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    r2 = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    np.testing.assert_array_equal(r1.projection.weights, r2.projection.weights)
    assert r1.epoch_losses == r2.epoch_losses


def test_config_validation():
    with pytest.raises(ValueError):
        TripletTrainConfig(margin=0.0)
    with pytest.raises(ValueError):
        TripletTrainConfig(learning_rate=-1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="margin"):
            TripletTrainConfig(margin=bad)
        with pytest.raises(ValueError, match="learning_rate"):
            TripletTrainConfig(learning_rate=bad)
    # the encoder's minima: a query needs 3 tokens, a document 4
    for name, least in [("query_limit", 3), ("doc_limit", 4)]:
        for bad in (least - 1, 0, -1):
            with pytest.raises(ValueError, match=name):
                Config(**{name: bad})
        assert getattr(Config(**{name: least}), name) == least
    # an unset document limit is the granularity's
    for granularity, limit in [("hunk", 256), ("file", 512), ("changeset", 512)]:
        assert Config(granularity=granularity).doc_limit == limit
        assert Config(granularity=granularity, doc_limit=100).doc_limit == 100


def test_maxsim_invariant_to_embedder_rescaling():
    # normalization absorbs any positive scale applied to raw embeddings
    from conftest import maxsim

    rng = np.random.default_rng(12)
    raw_q = rng.standard_normal((4, 8))
    raw_d = rng.standard_normal((6, 8))
    proj = LinearProjection.seeded_init(8, 4, seed=3)

    def embed_raw(raw):
        y = raw @ proj.weights
        n = np.linalg.norm(y, axis=1, keepdims=True)
        n[n == 0] = 1.0
        return EmbeddingMatrix(rows=(y / n).astype(np.float32))

    base = maxsim(embed_raw(raw_q), embed_raw(raw_d))
    scaled = maxsim(embed_raw(raw_q * 7.5), embed_raw(raw_d * 0.003))
    assert scaled == pytest.approx(base, abs=1e-5)


def test_triplet_loss_bounds():
    rng = np.random.default_rng(13)
    margin = 0.5
    for _ in range(50):
        nq = int(rng.integers(1, 5))
        q = EmbeddingMatrix(rows=_unit_mat(rng.standard_normal((nq, 6))), is_query=True)
        pos = EmbeddingMatrix(rows=_unit_mat(rng.standard_normal((3, 6))))
        neg = EmbeddingMatrix(rows=_unit_mat(rng.standard_normal((3, 6))))
        loss = triplet_loss(q, pos, neg, margin)
        assert 0.0 <= loss <= margin + 2 * nq + 1e-9


def _unit_mat(a):
    n = np.linalg.norm(a, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return (a / n).astype(np.float32)


def test_unscorable_positive_aborts_training(tmp_path):
    # a token table with an all-zero row makes its documents unscorable;
    # training must fail loudly rather than diverge silently, also when the
    # negative is unscorable too (a hinge of inf - inf, NaN)
    table = np.eye(4, dtype=np.float32)
    table[3] = 0.0
    p = tmp_path / "e.fble"
    write_matrix_file(p, table)
    emb = load_embedder(p)
    queries = {"b": _seq([0], limit=3)}
    trips = [Triplet(bug_id="b", positive_doc="pos", negative_doc="neg")]
    cfg = TripletTrainConfig(learning_rate=0.1, epochs=1, batch_size=1, seed=0)
    for neg_token, loss in [(2, float("inf")), (3, float("nan"))]:
        docs = {"pos": _seq([3], limit=3), "neg": _seq([neg_token], limit=3)}
        raw = [emb.embed_ids(s.ids) for s in (queries["b"], docs["pos"], docs["neg"])]
        proj = LinearProjection.seeded_init(4, 2, seed=0)
        np.testing.assert_equal(loss_from_raw(*raw, proj, cfg.margin), loss)
        with pytest.raises(NonFiniteLoss):
            train_projection(trips, queries, docs, emb, cfg, d_out=2)


def _mixed_setup():
    """Multi-token texts over 11 tokens: at a seeded init with margin 0.2,
    some hinges are open and some closed."""
    rng = np.random.default_rng(8)
    emb = ReferenceHashEmbedder(d_in=16, seed=5)
    queries, docs, triplets = {}, {}, []
    for i in range(7):
        q = rng.integers(1, 12, size=3).tolist()
        queries[f"b{i}"] = _seq(q, limit=4)
        docs[f"p{i}"] = _seq([q[0]] + rng.integers(1, 12, size=3).tolist(), limit=5)
        docs[f"n{i}"] = _seq(rng.integers(1, 12, size=4).tolist(), limit=5)
        triplets.append(Triplet(bug_id=f"b{i}", positive_doc=f"p{i}", negative_doc=f"n{i}"))
    return triplets, queries, docs, emb


def _init_losses(triplets, queries, docs, emb, seed, margin, d_out=8):
    """loss_from_raw of every triplet at the seeded init."""
    proj = LinearProjection.seeded_init(emb.d_in, d_out, seed)

    def raw(seq):
        return emb.embed_ids(seq.ids)

    return [loss_from_raw(raw(queries[t.bug_id]), raw(docs[t.positive_doc]),
                          raw(docs[t.negative_doc]), proj, margin) for t in triplets]


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("batch_size", [1, 3, 7])  # 3 leaves a final batch of one
def test_trained_weights_equal_sgd_over_every_triplet(seed, batch_size):
    triplets, queries, docs, emb = _mixed_setup()
    cfg = TripletTrainConfig(margin=0.2, learning_rate=0.5, epochs=3, batch_size=batch_size,
                             seed=seed)
    losses = _init_losses(triplets, queries, docs, emb, seed, cfg.margin)
    assert 0.0 in losses and max(losses) > 0.0  # closed and open hinges both occur
    result = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    expected = train_projection_reference(triplets, queries, docs, emb, cfg, d_out=8)
    # a step sums per distinct row first, so float64 bits may differ in the
    # last place; the float32 bytes that projection.fble stores may not
    stored = np.ascontiguousarray(result.projection.weights, dtype="<f4")
    assert stored.tobytes() == np.ascontiguousarray(expected, dtype="<f4").tobytes()
    np.testing.assert_allclose(result.projection.weights, expected, rtol=1e-12)


def test_distinct_row_step_equals_the_per_triplet_wrappers():
    triplets, queries, docs, emb = _mixed_setup()
    docs["empty"] = _seq([], limit=5)  # unscorable
    triplets = triplets + [Triplet("b0", "p1", "empty"), Triplet("b2", "empty", "n3")]
    names = list(queries) + list(docs)
    seqs = [s.ids for s in list(queries.values()) + list(docs.values())]
    ids, refs = embed._distinct_ids(seqs)
    assert len(ids) < sum(map(len, seqs))  # tokens repeat within and across texts
    raw, at = emb.embed_ids(ids), dict(zip(names, refs))
    proj = LinearProjection.seeded_init(emb.d_in, 8, seed=3)

    def per_triplet(t):
        mats = [emb.embed_ids(s.ids)
                for s in (queries[t.bug_id], docs[t.positive_doc], docs[t.negative_doc])]
        return (loss_from_raw(*mats, proj, 0.2), gradient_of_loss(*mats, proj, 0.2))

    # the mixed set with an unscorable negative (a closed hinge), then an
    # unscorable positive alone (an infinite loss with a finite gradient)
    for batch in (triplets[:-1], triplets[-1:]):
        expected = [per_triplet(t) for t in batch]
        rows = [(at[t.bug_id], at[t.positive_doc], at[t.negative_doc]) for t in batch]
        loss, grad = embed._step(raw, rows, proj.weights, 0.2)
        np.testing.assert_allclose(loss, sum(x for x, _ in expected), rtol=1e-12)
        np.testing.assert_allclose(grad, sum(g for _, g in expected), rtol=1e-12)
    assert [x for x, _ in expected] == [float("inf")] and np.isfinite(grad).all()
    assert per_triplet(triplets[-2])[0] == 0.0 and 0.0 in [per_triplet(t)[0] for t in triplets]


@pytest.mark.parametrize("seed", [1, 3])
def test_a_step_has_the_bits_of_the_step_over_every_used_row(seed):
    triplets, queries, docs, emb = _mixed_setup()
    docs["empty"] = _seq([], limit=5)  # unscorable
    triplets = triplets + [Triplet("b0", "p1", "empty"), Triplet("b2", "empty", "n3")]
    names = list(queries) + list(docs)
    ids, refs = embed._distinct_ids([s.ids for s in list(queries.values()) + list(docs.values())])
    raw, at = emb.embed_ids(ids), dict(zip(names, refs))
    rows = [(at[t.bug_id], at[t.positive_doc], at[t.negative_doc]) for t in triplets]
    w = LinearProjection.seeded_init(emb.d_in, 8, seed).weights
    closed = [r for r in rows if step_reference(raw, [r], w, 0.2)[0] == 0.0]
    assert 0 < len(closed) < len(rows)  # open and closed hinges both occur
    batches = [rows[i : i + size] for size in (1, 3, 7) for i in range(0, len(rows), size)]
    for batch in batches + [closed]:
        loss, grad = embed._step(raw, batch, w, 0.2)
        want_loss, want_grad = step_reference(raw, batch, w, 0.2)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()
    assert not embed._step(raw, closed, w, 0.2)[1].any()


def test_training_runs_no_loss_pass_outside_its_steps(monkeypatch):
    triplets, queries, docs, emb = _mixed_setup()

    def loss_pass(*args, **kwargs):
        raise AssertionError("a loss pass ran outside the training steps")

    monkeypatch.setattr(embed, "loss_from_raw", loss_pass)
    cfg = TripletTrainConfig(margin=0.2, learning_rate=0.5, epochs=2, batch_size=3, seed=1)
    result = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    assert len(result.epoch_losses) == 2


def test_epoch_loss_is_the_mean_of_its_steps_losses():
    # one epoch of one batch: every step sees the seeded init
    triplets, queries, docs, emb = _mixed_setup()
    cfg = TripletTrainConfig(margin=0.2, learning_rate=0.5, epochs=1, batch_size=7, seed=3)
    result = train_projection(triplets, queries, docs, emb, cfg, d_out=8)
    losses = _init_losses(triplets, queries, docs, emb, cfg.seed, cfg.margin)
    # the steps add their losses in the permutation's order
    assert result.epoch_losses == [pytest.approx(np.mean(losses), rel=1e-12)]
