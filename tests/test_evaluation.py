import itertools
import json

import pytest

from conftest import make_changeset, make_hunk, ts
from fbl.corpus import BugReport, GoldLink
from fbl.errors import DataError, EmptyGoldSet
from fbl.evaluation import (
    average_precision,
    categorize,
    class_name_of_path,
    gold_class_names,
    mean_average_precision,
    mean_precision_at_k,
    metrics_report,
    mrr,
    precision_at_k,
    qrels_from_links,
    read_run,
    reciprocal_rank,
)


def test_reciprocal_rank_basics():
    assert reciprocal_rank(["r", "x"], {"r"}) == 1.0
    assert reciprocal_rank(["a", "b", "c", "r"], {"r"}) == pytest.approx(0.25)
    assert reciprocal_rank(["a", "b"], {"r"}) == 0.0


def test_mrr_hand_values():
    results = {"b1": ["r1", "x"], "b2": ["x", "r2"]}
    qrels = {"b1": {"r1"}, "b2": {"r2"}}
    assert mrr(results, qrels) == pytest.approx(0.75, abs=1e-12)
    assert mrr({"b1": ["r1"], "b2": ["r2"]}, qrels) == pytest.approx(1.0)
    assert mrr({"b1": ["x", "y", "r1"]}, {"b1": {"r1"}}) == pytest.approx(1 / 3)


def test_mrr_counts_missing_bugs_as_zero():
    assert mrr({}, {"b1": {"r"}, "b2": {"r"}}) == 0.0


def test_average_precision_hand_values():
    assert average_precision(["r1", "r2"], {"r1", "r2"}) == pytest.approx(1.0)
    assert average_precision(["x", "r1"], {"r1"}) == pytest.approx(0.5)
    # relevant at ranks {1, 3}, |relevant| = 2 -> (1 + 2/3)/2
    assert average_precision(["r1", "x", "r2"], {"r1", "r2"}) == pytest.approx(
        (1 + 2 / 3) / 2, abs=1e-12
    )


def test_average_precision_unfound_items_dilute():
    assert average_precision(["r1"], {"r1", "ghost"}) == pytest.approx(0.5)


def test_map_hand_values():
    results = {"b1": ["r1", "r2"], "b2": ["x", "r3"]}
    qrels = {"b1": {"r1", "r2"}, "b2": {"r3"}}
    assert mean_average_precision(results, qrels) == pytest.approx((1.0 + 0.5) / 2)
    assert mean_average_precision({"b1": ["r1"]}, {"b1": {"r1"}}) == 1.0


def test_map_three_bug_fixture():
    results = {
        "b1": ["r", "x", "y"],          # AP = 1
        "b2": ["x", "r", "y"],          # AP = 1/2
        "b3": ["x", "y", "r1", "r2"],   # AP = (1/3 + 2/4)/2 = 5/12
    }
    qrels = {"b1": {"r"}, "b2": {"r"}, "b3": {"r1", "r2"}}
    expected = (1 + 0.5 + 5 / 12) / 3
    assert mean_average_precision(results, qrels) == pytest.approx(expected, abs=1e-12)


def test_precision_at_k_basics():
    # relevant at ranks {1, 3} with k=5 -> 2/5
    ranked = ["r1", "x", "r2", "y", "z"]
    assert precision_at_k(ranked, {"r1", "r2"}, 5) == pytest.approx(0.4)
    assert precision_at_k(["r"], {"r"}, 1) == 1.0
    assert precision_at_k(["x", "r"], {"r"}, 2) == pytest.approx(0.5)


def test_precision_at_k_short_list_pads():
    assert precision_at_k(["r"], {"r"}, 5) == pytest.approx(0.2)


def test_precision_times_k_non_decreasing():
    ranked = ["r1", "x", "r2", "y", "r3", "z"]
    rel = {"r1", "r2", "r3"}
    vals = [precision_at_k(ranked, rel, k) * k for k in range(1, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_metric_permutation_symmetry():
    results = {"b1": ["r1"], "b2": ["x", "r2"], "b3": ["y"]}
    qrels = {"b1": {"r1"}, "b2": {"r2"}, "b3": {"r3"}}
    base_mrr = mrr(results, qrels)
    base_map = mean_average_precision(results, qrels)
    for perm in itertools.permutations(qrels.items()):
        q = dict(perm)
        assert mrr(results, q) == pytest.approx(base_mrr)
        assert mean_average_precision(results, q) == pytest.approx(base_map)


def test_single_relevant_ap_equals_rr():
    ranked = ["a", "b", "r", "c"]
    assert average_precision(ranked, {"r"}) == reciprocal_rank(ranked, {"r"})


def test_class_name_extraction():
    assert class_name_of_path("org/apache/Catalina.java") == "Catalina"
    assert class_name_of_path("Plain") == "Plain"
    assert class_name_of_path("a/b/c/Thing.test.js") == "Thing.test"


def test_gold_class_names_union_over_links():
    cs1 = make_changeset("c1", [("src/Foo.java", [make_hunk([("+", "x")])])])
    cs2 = make_changeset("c2", [("src/Bar.java", [make_hunk([("+", "y")])])])
    names = gold_class_names(
        [GoldLink("b1", "c1"), GoldLink("b1", "c2")], {"c1": cs1, "c2": cs2}
    )
    assert names == {"b1": {"Foo", "Bar"}}


def _bug(text):
    return BugReport("b", text, "", opened_at=ts(1))


def test_categorize_not_localized():
    assert categorize(_bug("the app crashes on save"), {"Manager", "Servlet"}) == "NL"


def test_categorize_fully_localized():
    bug = _bug("Manager fails; see Servlet.java too")
    assert categorize(bug, {"Manager", "Servlet"}) == "FL"


def test_categorize_partially_localized():
    bug = _bug("Manager fails")
    assert categorize(bug, {"Manager", "Servlet", "Handler"}) == "PL"


def test_categorize_word_boundaries_and_forms():
    # Name.java and pkg.Name count; substrings of longer identifiers do not
    assert categorize(_bug("error in Foo.java"), {"Foo"}) == "FL"
    assert categorize(_bug("see org.example.Foo"), {"Foo"}) == "FL"
    assert categorize(_bug("FooBar is fine"), {"Foo"}) == "NL"
    assert categorize(_bug("my_Foo is fine"), {"Foo"}) == "NL"
    assert categorize(_bug("lowercase foo here"), {"Foo"}) == "NL"  # case-sensitive


def test_categorize_empty_gold_set():
    with pytest.raises(EmptyGoldSet):
        categorize(_bug("x"), set())


def test_qrels_from_links():
    q = qrels_from_links([GoldLink("b1", "c1"), GoldLink("b1", "c2"), GoldLink("b2", "c3")])
    assert q == {"b1": {"c1", "c2"}, "b2": {"c3"}}


def test_read_run_jsonl_and_trec(tmp_path):
    j = tmp_path / "run.jsonl"
    rows = [
        {"bug_id": "b1", "rank": 2, "doc_id": "c2:0:0", "changeset_id": "c2", "score": 0.5},
        {"bug_id": "b1", "rank": 1, "doc_id": "c1:0:0", "changeset_id": "c1", "score": 0.9},
    ]
    j.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    run = read_run(j)
    assert run == {"b1": [("c1", 0.9), ("c2", 0.5)]}

    t = tmp_path / "run.trec"
    t.write_text("b1 Q0 c1:0:0 1 0.900000 tag\nb1 Q0 c2:0:0 2 0.500000 tag\n")
    run2 = read_run(t)
    assert run2 == {"b1": [("c1:0:0", 0.9), ("c2:0:0", 0.5)]}


def test_read_run_jsonl_needs_a_doc_id_only_without_a_changeset_id(tmp_path):
    j = tmp_path / "run.jsonl"
    rows = [
        {"bug_id": "b1", "rank": 1, "score": 2.0, "changeset_id": "fix_a"},
        {"bug_id": "b1", "rank": 2, "score": 1.0, "doc_id": "fix_b:0:0"},
    ]
    j.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert read_run(j) == {"b1": [("fix_a", 2.0), ("fix_b:0:0", 1.0)]}
    j.write_text(json.dumps({"bug_id": "b1", "rank": 1, "score": 2.0}) + "\n")
    with pytest.raises(DataError, match="missing field 'doc_id'"):
        read_run(j)


def test_metrics_report_structure():
    results = {"b1": ["c1", "x"], "b2": ["y", "c2"], "b3": ["z"]}
    qrels = {"b1": {"c1"}, "b2": {"c2"}, "b3": {"c3"}}
    cats = {"b1": "FL", "b2": "PL", "b3": "NL"}
    rep = metrics_report(results, qrels, cats)
    assert rep["overall"]["bugs"] == 3
    assert rep["overall"]["mrr"] == pytest.approx((1 + 0.5 + 0) / 3)
    assert set(rep["categories"]) == {"FL", "PL", "NL", "NL+PL"}
    assert rep["categories"]["NL+PL"]["bugs"] == 2
    assert rep["categories"]["PL"]["mrr"] == pytest.approx(0.5)
    for block in rep["categories"].values():
        for key in ("mrr", "map", "p@1", "p@3", "p@5"):
            assert 0.0 <= block[key] <= 1.0
