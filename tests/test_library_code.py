"""Static checks on the library's own source.

Library code reports a failed check with an exception, never with
``assert``, and only the module that builds the lexicon index and the
one that scores on it read that index.
"""

import ast
from pathlib import Path

import lexid

SOURCES = sorted(Path(lexid.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statement():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert asserts == []


def test_only_lexicon_and_scoring_read_the_index():
    readers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_index"
    }
    assert readers == {"lexicon.py", "scoring.py"}
