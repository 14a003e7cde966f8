"""Source anchors in the docs must land on what they name.

The prose docs cite code as ``src/<path>.py:<line>``. Each such anchor
must point at a ``def``, ``class`` or decorator line, so an edit that
shifts the code without updating the docs fails here instead of leaving
a reader on an unrelated line. Anchors must use the full path: a bare
``replica.py:N`` is ambiguous and escapes this check.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]
ANCHOR = re.compile(r"(src/[\w/]+\.py):(\d+)")
BARE_ANCHOR = re.compile(r"(?<![\w/])\w+\.py:\d+")
DEFINITION = re.compile(r"\s*(@|(async\s+)?def\s|class\s)")


def _anchors():
    for doc in DOCS:
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            for match in ANCHOR.finditer(line):
                yield f"{doc.relative_to(ROOT)}:{number}", match.group(1), int(
                    match.group(2)
                )


ANCHORS = list(_anchors())


def test_docs_cite_source_anchors():
    assert len(ANCHORS) >= 20


@pytest.mark.parametrize(
    "where, path, line", ANCHORS, ids=[f"{a[0]}->{a[1]}:{a[2]}" for a in ANCHORS]
)
def test_anchor_lands_on_a_definition(where, path, line):
    source = (ROOT / path).read_text().splitlines()
    assert line <= len(source), f"{where}: {path} has only {len(source)} lines"
    assert DEFINITION.match(source[line - 1]), (
        f"{where}: {path}:{line} is {source[line - 1].strip()!r}, "
        "not a def/class/decorator line"
    )


def test_no_bare_file_anchors():
    bare = [
        f"{doc.relative_to(ROOT)}: {match.group(0)}"
        for doc in DOCS
        for match in BARE_ANCHOR.finditer(doc.read_text())
    ]
    assert not bare, f"use full src/ paths for anchors: {bare}"
