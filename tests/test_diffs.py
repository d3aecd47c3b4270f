import random

import pytest

from conftest import make_changeset, make_hunk, random_hunk, render_unified_diff
from fbl.diffs import LineKind, parse_unified_diff
from fbl.errors import MalformedDiff

SIMPLE = """diff --git a/src/Main.java b/src/Main.java
index 1111111..2222222 100644
--- a/src/Main.java
+++ b/src/Main.java
@@ -10,2 +10,2 @@ void run() {
 int keep;
-return;
+int x = 0;
"""


def test_line_kinds_from_markers():
    cs = parse_unified_diff(SIMPLE, "c1", "msg")
    hunk = cs.files[0].hunks[0]
    assert [(l.kind, l.text) for l in hunk.lines] == [
        (LineKind.CONTEXT, "int keep;"),
        (LineKind.REMOVED, "return;"),
        (LineKind.ADDED, "int x = 0;"),
    ]


def test_header_fields():
    cs = parse_unified_diff(SIMPLE, "c1", "msg")
    assert cs.changeset_id == "c1"
    assert cs.log_message == "msg"
    assert cs.files[0].path == "src/Main.java"
    h = cs.files[0].hunks[0]
    assert (h.old_start, h.new_start) == (10, 10)


def test_empty_raw_gives_zero_files():
    cs = parse_unified_diff("", "empty", "")
    assert cs.files == ()


def test_multi_file_multi_hunk():
    raw = (
        "diff --git a/a.py b/a.py\n"
        "--- a/a.py\n+++ b/a.py\n"
        "@@ -1,1 +1,2 @@\n x\n+y\n"
        "@@ -9,1 +10,1 @@\n-z\n+w\n"
        "diff --git a/b.py b/b.py\n"
        "--- a/b.py\n+++ b/b.py\n"
        "@@ -1,0 +1,1 @@\n+new line\n"
    )
    cs = parse_unified_diff(raw, "c2", "")
    assert [f.path for f in cs.files] == ["a.py", "b.py"]
    assert [len(f.hunks) for f in cs.files] == [2, 1]


def test_binary_entry_yields_zero_hunks():
    raw = (
        "diff --git a/img.png b/img.png\n"
        "index 1111111..2222222 100644\n"
        "Binary files a/img.png and b/img.png differ\n"
        "diff --git a/a.py b/a.py\n"
        "--- a/a.py\n+++ b/a.py\n"
        "@@ -1,1 +1,1 @@\n-x\n+y\n"
    )
    cs = parse_unified_diff(raw, "c3", "")
    assert cs.files[0].path == "img.png"
    assert cs.files[0].hunks == ()
    assert len(cs.files[1].hunks) == 1


def test_pure_rename_yields_zero_hunks():
    raw = (
        "diff --git a/old.py b/new.py\n"
        "similarity index 100%\n"
        "rename from old.py\n"
        "rename to new.py\n"
    )
    cs = parse_unified_diff(raw, "c4", "")
    assert cs.files[0].path == "new.py"
    assert cs.files[0].hunks == ()


def test_no_newline_marker_dropped():
    raw = (
        "diff --git a/a.txt b/a.txt\n"
        "--- a/a.txt\n+++ b/a.txt\n"
        "@@ -1,1 +1,1 @@\n"
        "-old\n"
        "\\ No newline at end of file\n"
        "+new\n"
        "\\ No newline at end of file\n"
    )
    cs = parse_unified_diff(raw, "c5", "")
    assert [l.text for l in cs.files[0].hunks[0].lines] == ["old", "new"]


def test_bad_hunk_header_reports_line():
    raw = "diff --git a/a.py b/a.py\n--- a/a.py\n+++ b/a.py\n@@ bogus @@\n"
    with pytest.raises(MalformedDiff) as exc:
        parse_unified_diff(raw, "c6", "")
    assert exc.value.line_no == 4


def test_illegal_leading_character_reports_line():
    raw = (
        "diff --git a/a.py b/a.py\n--- a/a.py\n+++ b/a.py\n"
        "@@ -1,2 +1,2 @@\n x\n?bad\n"
    )
    with pytest.raises(MalformedDiff) as exc:
        parse_unified_diff(raw, "c7", "")
    assert exc.value.line_no == 6


def test_truncated_hunk_body_raises():
    raw = "diff --git a/a.py b/a.py\n--- a/a.py\n+++ b/a.py\n@@ -1,5 +1,5 @@\n x\n"
    with pytest.raises(MalformedDiff):
        parse_unified_diff(raw, "c8", "")


def test_bare_unified_diff_without_git_headers():
    raw = (
        "--- a/one.c\t2020-01-01\n"
        "+++ b/one.c\t2020-01-02\n"
        "@@ -1,1 +1,1 @@\n-a\n+b\n"
        "--- a/two.c\n"
        "+++ b/two.c\n"
        "@@ -1,1 +1,1 @@\n-c\n+d\n"
    )
    cs = parse_unified_diff(raw, "c9", "")
    assert [f.path for f in cs.files] == ["one.c", "two.c"]
    assert all(len(f.hunks) == 1 for f in cs.files)


def test_deleted_file_uses_old_path():
    raw = (
        "diff --git a/gone.py b/gone.py\n"
        "deleted file mode 100644\n"
        "--- a/gone.py\n"
        "+++ /dev/null\n"
        "@@ -1,2 +0,0 @@\n-x\n-y\n"
    )
    cs = parse_unified_diff(raw, "c10", "")
    assert cs.files[0].path == "gone.py"
    assert all(l.kind is LineKind.REMOVED for l in cs.files[0].hunks[0].lines)


def test_roundtrip_random_changesets():
    rng = random.Random(1234)
    for trial in range(50):
        n_files = rng.randint(0, 4)
        files = []
        for fi in range(n_files):
            hunks = [random_hunk(rng) for _ in range(rng.randint(1, 3))]
            files.append((f"dir{trial}/f{fi}.java", hunks))
        cs = make_changeset(f"cs{trial}", files)
        rendered = render_unified_diff(cs)
        reparsed = parse_unified_diff(rendered, cs.changeset_id, cs.log_message,
                                      committed_at=cs.committed_at)
        assert reparsed == cs


def test_roundtrip_is_stable_text():
    rng = random.Random(7)
    cs = make_changeset("s1", [("p.java", [random_hunk(rng)])])
    once = render_unified_diff(cs)
    twice = render_unified_diff(parse_unified_diff(once, "s1", ""))
    assert once == twice


def test_line_totals_match_across_granularities():
    # sum of line counts over hunk documents == count in the changeset document
    from fbl.corpus import Granularity, explode

    rng = random.Random(99)
    cs = make_changeset(
        "tot", [(f"f{i}.java", [random_hunk(rng) for _ in range(2)]) for i in range(3)]
    )
    whole = explode(cs, Granularity.CHANGESET)[0]
    hunks = explode(cs, Granularity.HUNK)
    per_kind_whole = {k: 0 for k in LineKind}
    for l in whole.lines():
        per_kind_whole[l.kind] += 1
    per_kind_hunks = {k: 0 for k in LineKind}
    for d in hunks:
        for l in d.lines():
            per_kind_hunks[l.kind] += 1
    assert per_kind_whole == per_kind_hunks
