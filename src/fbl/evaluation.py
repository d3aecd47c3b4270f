"""Ranked-retrieval metrics and bug-report categorization.

Metrics follow standard IR conventions: a relevant item absent from the
returned ranking contributes 0 to both reciprocal rank and average
precision. All metrics land in [0, 1].

Bug reports are bucketed by how many gold class names they mention:
none -> not localized, all -> fully localized, otherwise partially
localized. Matching is case-sensitive on word boundaries, which also
covers ``Name.java`` and ``pkg.Name`` spellings.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import BugReport, Changeset, GoldLink, parse_json_line, read_lines
from .errors import DataError, EmptyGoldSet

CATEGORY_NOT_LOCALIZED = "NL"
CATEGORY_PARTIALLY_LOCALIZED = "PL"
CATEGORY_FULLY_LOCALIZED = "FL"


def reciprocal_rank(ranked_ids: Sequence[str], relevant: set[str]) -> float:
    for rank, doc_id in enumerate(ranked_ids, start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


def average_precision(ranked_ids: Sequence[str], relevant: set[str]) -> float:
    if not relevant:
        return 0.0
    found = 0
    acc = 0.0
    for rank, doc_id in enumerate(ranked_ids, start=1):
        if doc_id in relevant:
            found += 1
            acc += found / rank
    return acc / len(relevant)


def precision_at_k(ranked_ids: Sequence[str], relevant: set[str], k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = sum(1 for doc_id in ranked_ids[:k] if doc_id in relevant)
    return hits / k


def _mean(per_bug, results, qrels) -> float:
    """per_bug(ranked ids, relevant ids) averaged over qrels' bugs, a missing run ranking nothing."""
    if not qrels:
        raise ValueError("qrels must contain at least one bug")
    return sum(per_bug(results.get(b, ()), rel) for b, rel in qrels.items()) / len(qrels)


def mrr(results: Mapping[str, Sequence[str]], qrels: Mapping[str, set[str]]) -> float:
    return _mean(reciprocal_rank, results, qrels)


def mean_average_precision(
    results: Mapping[str, Sequence[str]], qrels: Mapping[str, set[str]]
) -> float:
    return _mean(average_precision, results, qrels)


def mean_precision_at_k(
    results: Mapping[str, Sequence[str]], qrels: Mapping[str, set[str]], k: int
) -> float:
    return _mean(lambda ranked, rel: precision_at_k(ranked, rel, k), results, qrels)


# -- localization-hint categorization -------------------------------------------


def class_name_of_path(path: str) -> str:
    """Basename minus extension: ``org/x/Foo.java`` -> ``Foo``."""
    base = path.rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


def gold_class_names(
    links: Iterable[GoldLink], changesets: Mapping[str, Changeset]
) -> dict[str, set[str]]:
    """Per bug: simple class names of all files changed in its gold changesets."""
    out: dict[str, set[str]] = {}
    for link in links:
        cs = changesets.get(link.changeset_id)
        if cs is None:
            continue
        names = out.setdefault(link.bug_id, set())
        for fd in cs.files:
            name = class_name_of_path(fd.path)
            if name:
                names.add(name)
    return out


def categorize(report: BugReport, gold_names: set[str]) -> str:
    if not gold_names:
        raise EmptyGoldSet(f"bug {report.bug_id} has no gold class names")
    text = report.summary + " " + report.description
    mentioned = 0
    for name in gold_names:
        if re.search(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", text):
            mentioned += 1
    if mentioned == 0:
        return CATEGORY_NOT_LOCALIZED
    if mentioned == len(gold_names):
        return CATEGORY_FULLY_LOCALIZED
    return CATEGORY_PARTIALLY_LOCALIZED


# -- run/qrels files and the metrics report --------------------------------------


def qrels_from_links(links: Iterable[GoldLink]) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for link in links:
        out.setdefault(link.bug_id, set()).add(link.changeset_id)
    return out


def read_run(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a run file, JSONL or TREC format, into bug -> ranked (id, score)."""
    raw: dict[str, list[tuple[int, str, float]]] = {}
    for where, line in read_lines(Path(path)):
        try:
            if line.startswith("{"):
                obj = parse_json_line(where, line)
                bug_id, rank, score = obj["bug_id"], obj["rank"], obj["score"]
                doc_id = obj["changeset_id"] if "changeset_id" in obj else obj["doc_id"]
                if not (isinstance(bug_id, str) and isinstance(doc_id, str)):
                    raise DataError(f"{where}: a bug or document id is not a string")
            else:
                parts = line.split()
                if len(parts) < 6:
                    raise DataError(f"{where}: not a TREC run line")
                bug_id, _, doc_id, rank, score = parts[:5]
            # str() first, so a fractional or boolean rank fails instead of truncating
            raw.setdefault(bug_id, []).append((int(str(rank)), doc_id, float(score)))
        except KeyError as exc:
            raise DataError(f"{where}: missing field {exc}") from exc
        except (ValueError, TypeError) as exc:  # a rank or score of the wrong kind
            raise DataError(f"{where}: bad run line ({exc})") from exc
    out: dict[str, list[tuple[str, float]]] = {}
    for bug_id, rows in raw.items():
        rows.sort(key=lambda r: r[0])
        out[bug_id] = [(doc_id, score) for _, doc_id, score in rows]
    return out


def _block(results: Mapping[str, Sequence[str]], qrels: Mapping[str, set[str]]) -> dict:
    return {
        "bugs": len(qrels),
        "mrr": mrr(results, qrels),
        "map": mean_average_precision(results, qrels),
        "p@1": mean_precision_at_k(results, qrels, 1),
        "p@3": mean_precision_at_k(results, qrels, 3),
        "p@5": mean_precision_at_k(results, qrels, 5),
    }


def metrics_report(
    results: Mapping[str, Sequence[str]],
    qrels: Mapping[str, set[str]],
    categories: Mapping[str, str] | None = None,
) -> dict:
    """Overall metrics, plus per-category blocks when categories are given."""
    report = {"overall": _block(results, qrels)}
    if categories:
        groups: dict[str, dict[str, set[str]]] = {}
        for bug_id, rel in qrels.items():
            cat = categories.get(bug_id)
            if cat is None:
                continue
            groups.setdefault(cat, {})[bug_id] = rel
            if cat in (CATEGORY_NOT_LOCALIZED, CATEGORY_PARTIALLY_LOCALIZED):
                groups.setdefault("NL+PL", {})[bug_id] = rel
        report["categories"] = {
            cat: _block(results, sub) for cat, sub in sorted(groups.items()) if sub
        }
    return report
