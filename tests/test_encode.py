import random

import pytest

from conftest import decode, hunk_doc, make_hunk, random_hunk, ts
from fbl.corpus import BugReport

from fbl.encode import (
    CLS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    EncodedSequence,
    Strategy,
    Vocabulary,
    encode_document,
    encode_query,
    pretokenize,
    wordpiece_tokenize,
)
from fbl.errors import FormatError


def test_vocab_from_file_appends_missing_specials(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("alpha\nbeta\n[CLS]\n")
    v = Vocabulary.from_file(p)
    assert v.id_of("alpha") == 0 and v.id_of("beta") == 1 and v.id_of(CLS) == 2
    # the missing specials follow the file's tokens, in SPECIAL_TOKENS order
    assert v.id_to_token[3:] == [t for t in SPECIAL_TOKENS if t != CLS]
    for tok in SPECIAL_TOKENS:
        assert tok in v


def test_vocab_duplicate_rejected(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("alpha\nalpha\n")
    with pytest.raises(FormatError):
        Vocabulary.from_file(p)


def test_vocab_from_bytes_splits_lines_as_text_mode_reading_does(tmp_path):
    # \r and \r\n end lines; form feed and U+2028 do not; bad UTF-8 is replaced
    blob = b"a\r\nb\rc\x0cd\ne\xe2\x80\xa8f\ng\xffh\n\n\r\n"
    p = tmp_path / "vocab.txt"
    p.write_bytes(blob)
    with open(p, encoding="utf-8", errors="replace") as fh:
        want = [line.rstrip("\r\n") for line in fh][:-2]
    assert want == ["a", "b", "c\x0cd", "e\u2028f", "g\ufffdh"]
    assert Vocabulary.from_bytes(blob).id_to_token[: len(want)] == want
    assert Vocabulary.from_file(p).id_to_token == Vocabulary.from_bytes(blob).id_to_token


def test_vocab_save_load_roundtrip(tmp_path):
    v = Vocabulary.from_tokens(["x", "y"])
    p = tmp_path / "v.txt"
    p.write_text("".join(tok + "\n" for tok in v.id_to_token), encoding="utf-8")
    w = Vocabulary.from_file(p)
    assert w.token_to_id == v.token_to_id


def test_wordpiece_code_identifier_example(tiny_vocab):
    assert wordpiece_tokenize("ManagerServlet", tiny_vocab) == ["manager", "##servlet"]


def test_wordpiece_exact_match(tiny_vocab):
    assert wordpiece_tokenize("manager", tiny_vocab) == ["manager"]


def test_wordpiece_no_decomposition_is_single_unk(tiny_vocab):
    assert wordpiece_tokenize("zzz", tiny_vocab) == [UNK]


def test_wordpiece_greedy_longest_match():
    v = Vocabulary.from_tokens(["un", "##aff", "##able", "unaffable"])
    assert wordpiece_tokenize("unaffable", v) == ["unaffable"]
    v2 = Vocabulary.from_tokens(["un", "##a", "##aff", "##able", "##b", "##l", "##e"])
    assert wordpiece_tokenize("unaffable", v2) == ["un", "##aff", "##able"]


def test_pretokenize_punctuation_standalone():
    assert [s for s, _ in pretokenize("a.b(c)")] == ["a", ".", "b", "(", "c", ")"]


def test_pretokenize_snake_case_split():
    assert pretokenize("foo_bar") == [("foo", False), ("bar", True)]


def test_pretokenize_camel_and_digits():
    assert pretokenize("getHTMLValue2x") == [
        ("get", False),
        ("html", True),
        ("value", True),
        ("2", True),
        ("x", True),
    ]


def test_tokenize_prefix_stable(tiny_vocab):
    rng = random.Random(17)
    words = ["crash", "on", "save", "alpha", "zz9", "a_b", "MixedCase"]
    for _ in range(50):
        w = rng.choice(words)
        x = rng.choice(words)
        joint = wordpiece_tokenize(w + " " + x, tiny_vocab)
        assert joint == wordpiece_tokenize(w, tiny_vocab) + wordpiece_tokenize(x, tiny_vocab)


def _doc(golden_hunk):
    return hunk_doc("cs", golden_hunk)


def test_golden_arcl(golden_hunk, tiny_vocab):
    seq = encode_document(_doc(golden_hunk), Strategy.ARCL, tiny_vocab, limit=16)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[C]", "a", "[A]", "b", "c", "[R]", "d", "[SEP]"]
    assert len(seq.ids) == 9


def test_golden_arc(golden_hunk, tiny_vocab):
    seq = encode_document(_doc(golden_hunk), Strategy.ARC, tiny_vocab, limit=16)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[A]", "b", "c", "[R]", "d", "[C]", "a", "[SEP]"]


def test_golden_d(golden_hunk, tiny_vocab):
    seq = encode_document(_doc(golden_hunk), Strategy.D, tiny_vocab, limit=16)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[D]", "a", "b", "c", "d", "[SEP]"]


def test_arc_emits_markers_for_empty_groups(tiny_vocab):
    doc = hunk_doc("cs", make_hunk([("+", "a")]))
    seq = encode_document(doc, Strategy.ARC, tiny_vocab, limit=16)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[A]", "a", "[R]", "[C]", "[SEP]"]


def test_query_golden(tiny_vocab):
    report = BugReport("b1", "crash on save", "", opened_at=ts(1))
    seq = encode_query(report, tiny_vocab, limit=16)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[Q]", "crash", "on", "save", "[SEP]"]


def test_query_empty_report(tiny_vocab):
    report = BugReport("b1", "", "", opened_at=ts(1))
    seq = encode_query(report, tiny_vocab, limit=8)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[Q]", "[SEP]"]
    assert len(seq.ids) == 3


def test_query_truncation_keeps_sep(tiny_vocab):
    report = BugReport("b1", "crash on save " * 20, "", opened_at=ts(1))
    seq = encode_query(report, tiny_vocab, limit=10)
    assert len(seq.ids) == 10
    toks = decode(seq, tiny_vocab)
    assert toks[-1] == SEP
    assert toks.count(SEP) == 1


def test_limit_preconditions(tiny_vocab, golden_hunk):
    report = BugReport("b1", "x", "", opened_at=ts(1))
    with pytest.raises(ValueError):
        encode_query(report, tiny_vocab, limit=2)
    with pytest.raises(ValueError):
        encode_document(_doc(golden_hunk), Strategy.D, tiny_vocab, limit=3)


def test_a_limit_past_the_stream_keeps_exactly_the_stream(golden_hunk, tiny_vocab):
    seq = encode_document(_doc(golden_hunk), Strategy.ARCL, tiny_vocab, limit=10**6)
    assert decode(seq, tiny_vocab) == ["[CLS]", "[C]", "a", "[A]", "b", "c", "[R]", "d", "[SEP]"]
    assert len(seq.ids) == 9 and seq.limit == 10**6
    report = BugReport("b1", "crash on save", "", opened_at=ts(1))
    assert encode_query(report, tiny_vocab, limit=10**6).ids == encode_query(
        report, tiny_vocab, limit=16).ids
    rng = random.Random(7)
    for _ in range(30):
        doc = hunk_doc("cs", random_hunk(rng))
        for strat in Strategy:
            fits = encode_document(doc, strat, tiny_vocab, limit=256)
            assert len(fits.ids) < 256
            assert encode_document(doc, strat, tiny_vocab, limit=10**6).ids == fits.ids


def _invariants(seq: EncodedSequence, vocab: Vocabulary):
    toks = [vocab.id_to_token[i] for i in seq.ids]
    assert len(seq.ids) <= seq.limit
    assert toks[0] == CLS
    assert toks.count(SEP) == 1 and toks[-1] == SEP
    assert PAD not in toks


def test_sequence_invariants_random_hunks(tiny_vocab):
    rng = random.Random(3)
    for trial in range(100):
        doc = hunk_doc("cs", random_hunk(rng))
        for strat in Strategy:
            seq = encode_document(doc, strat, tiny_vocab, limit=rng.choice([8, 16, 32]))
            _invariants(seq, tiny_vocab)


def test_strategies_share_content_multiset_when_untruncated(tiny_vocab):
    rng = random.Random(5)
    markers = {"[A]", "[R]", "[C]", "[D]", CLS, SEP}
    for _ in range(60):
        doc = hunk_doc("cs", random_hunk(rng))
        seqs = {
            s: encode_document(doc, s, tiny_vocab, limit=128) for s in Strategy
        }
        content = {}
        for s, seq in seqs.items():
            toks = [t for t in decode(seq, tiny_vocab) if t not in markers]
            content[s] = sorted(toks)
        assert content[Strategy.D] == content[Strategy.ARC] == content[Strategy.ARCL]


def test_arcl_marker_count_equals_transitions(tiny_vocab):
    rng = random.Random(11)
    for _ in range(100):
        hunk = random_hunk(rng)
        doc = hunk_doc("cs", hunk)
        seq = encode_document(doc, Strategy.ARCL, tiny_vocab, limit=256)
        toks = decode(seq, tiny_vocab)
        n_markers = sum(1 for t in toks if t in ("[A]", "[R]", "[C]"))
        kinds = [l.kind for l in hunk.lines]
        transitions = sum(1 for a, b in zip(kinds, kinds[1:]) if a is not b)
        assert n_markers == transitions + 1
