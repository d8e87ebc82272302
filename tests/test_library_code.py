"""Static checks on the library's own source.

Library code reports a failed check with an exception, never with
``assert``; only the module that builds the lexicon index and the one
that scores on it read that index or the compiled functions the lexicon
keeps, and the scoring module reads the index, its
mode tables and the config's fields only where it compiles a scorer;
only the tokenizer finds letter runs; the CLI and the evaluation both
classify raw text through the one path that counts it chunk by chunk,
which compiles what it needs itself; and the evaluation calls that path
only where it counts the documents it is handed.
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
    for attr in ("_index", "_scorers"):
        readers = {
            path.name
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == attr
        }
        assert readers == {"lexicon.py", "scoring.py"}, attr


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


def test_only_the_tokenizer_finds_letter_runs():
    """``normalize._tokens`` is the one definition of a token.

    Only its body reads the letter-run pattern or splits runs with
    ``groupby``; the raw-text counter and ``normalize_text`` call it.
    """
    path = next(path for path in SOURCES if path.name == "normalize.py")
    readers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and (
                child.id == "_LETTER_RUN_RE"
                or (child.id == "groupby" and isinstance(node, ast.Call) and node.func is child)
            ):
                readers.append((function, child.id))
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8"), str(path)), None)
    assert sorted(readers) == [("_tokens", "_LETTER_RUN_RE"), ("_tokens", "groupby")]


def test_cli_and_evaluation_leave_compiling_to_the_raw_path():
    """``_classify_text`` compiles what it needs; its callers name no compiler."""
    for name in ("cli.py", "evaluation.py"):
        path = next(path for path in SOURCES if path.name == name)
        named = set()
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        assert named.isdisjoint({"_compiled", "_diacritic_re"}), name


def test_evaluation_classifies_only_in_its_tally():
    """Each process classifies the documents it is handed, and nothing else."""
    path = next(path for path in SOURCES if path.name == "evaluation.py")
    callers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "_classify_text"
            ):
                callers.append(function)
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8"), str(path)), None)
    assert callers == ["_tally"]
