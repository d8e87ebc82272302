"""Static checks on the library's own source.

Library code reports a failed check with an exception, never with
``assert``; only the module that builds the lexicon index and the one
that scores on it read that index, and the scoring module reads it, its
mode tables and the config's fields only where it compiles a scorer; and
the CLI and the evaluation both classify raw text through the one path
that counts it chunk by chunk.
"""

import ast
from pathlib import Path

import lexid
from lexid import ScoringConfig

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


def test_only_the_compiler_reads_modes_and_the_index():
    """Per-text scoring code looks up no mode, index or config field.

    Module-level code, which runs once on import, may read them too; the
    closures ``_compile`` returns may not.
    """
    path = next(path for path in SOURCES if path.name == "scoring.py")
    fields = set(ScoringConfig._fields)

    def is_read(node):
        if isinstance(node, ast.Name):
            return node.id in ("_TF", "_WEIGHT") and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and (
            node.attr == "_index"
            or (isinstance(node.value, ast.Name) and node.value.id == "cfg" and node.attr in fields)
        )

    readers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if function is not None and is_read(child):
                readers.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8"), str(path)), None)
    assert readers
    assert [(function, line) for function, line in readers if function != "_compile"] == []


def test_cli_and_evaluation_classify_raw_text():
    for name in ("cli.py", "evaluation.py"):
        path = next(path for path in SOURCES if path.name == name)
        names = set()
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert "normalize_text" not in names, name
        assert "_classify_text" in names, name
