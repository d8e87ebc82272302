"""Static checks on the library's own source.

Library code reports a failed check with an exception, never with
``assert``; only the module that builds the lexicon index and the one
that scores on it read that index or the compiled functions the lexicon
keeps, and the scoring module reads the index, its
mode tables and the config's fields only where it compiles a scorer;
only the tokenizer finds letter runs; the CLI and the evaluation both
classify raw text through the one path that counts it chunk by chunk,
which compiles what it needs itself; the evaluation calls that path
only where it counts the documents it is handed; the corpus loader
reads every line by one rule; no reader drops a byte-order mark only at
the start of its input, or from bytes; only the scoring module spells a
mode name; and no docstring holds a line break or a carriage return
where it means the escape sequence.
"""

import ast
import codecs
import re
from pathlib import Path

import lexid
from lexid import ScoringConfig
from lexid.scoring import TF_MODES, WEIGHT_MODES

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


def test_every_module_level_import_is_used():
    """Stands in for a linter's unused-import rule.

    Exempt are ``from __future__`` imports and the re-exports that
    ``__init__.py`` lists in ``__all__``.
    """
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            used.update(lexid.__all__)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno}: {bound}")
    assert SOURCES
    assert unused == []


def test_every_private_definition_is_used():
    """Stands in for a linter's dead-code rule.

    Each module-level private function or class is named somewhere in
    the library outside its own definition, so no helper lives on only
    for the tests.
    """
    definitions, references = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"), str(path))
        definitions.extend(
            (path, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                references.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                references.extend((path, node.lineno, alias.name) for alias in node.names)
    unused = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path, node in definitions
        if not any(
            name == node.name and (where != path or not node.lineno <= line <= node.end_lineno)
            for where, line, name in references
        )
    ]
    assert definitions
    assert unused == []


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

    Only its body reads the byte table that spaces out ASCII non-letters
    or the letter-run pattern, or splits runs with ``groupby``; the
    raw-text counter and ``normalize_text`` call it.
    """
    path = next(path for path in SOURCES if path.name == "normalize.py")
    readers = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and (
                child.id in ("_ASCII_NON_LETTER_TO_SPACE", "_LETTER_RUN_RE")
                or (child.id == "groupby" and isinstance(node, ast.Call) and node.func is child)
            ):
                readers.append((function, child.id))
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8"), str(path)), None)
    assert sorted(readers) == [
        ("_tokens", "_ASCII_NON_LETTER_TO_SPACE"),
        ("_tokens", "_LETTER_RUN_RE"),
        ("_tokens", "groupby"),
    ]


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
        assert named.isdisjoint({"_compiled", "_ascii_non_diacritics"}), name


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


def code_strings(path):
    """The string constants of the module at ``path`` that are not docstrings."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    docstrings = {
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value not in docstrings
    ]


def test_only_the_lexicon_module_names_the_word_list_files():
    """``lexicon._DICTIONARIES`` holds the on-disk layout; every other module reads it there.

    Docstrings, which describe the layout, may name the files too.
    """
    names = ("stopwords.txt", "diacritics.txt")
    found = [
        (path.name, name)
        for path in SOURCES
        for value in code_strings(path)
        for name in names
        if name in value
    ]
    assert sorted(found) == [("lexicon.py", "diacritics.txt"), ("lexicon.py", "stopwords.txt")]


def test_only_the_scoring_module_spells_a_mode_name():
    """``ScoringConfig`` holds the modes' defaults and ``scoring`` their tables.

    So another module passes on only the modes it was given, and a
    default is spelled once.  Docstrings may name the modes.
    """
    modes = set(TF_MODES + WEIGHT_MODES)
    spellers = {path.name for path in SOURCES for value in code_strings(path) if value in modes}
    assert spellers == {"scoring.py"}


def test_corpus_lines_are_read_by_one_rule():
    """``load_corpus`` reads ``line_no`` only inside the f-strings of its warnings.

    So no line is treated by its position, and a reader of a byte range,
    which cannot tell whether it starts at line 1, can share the rule.
    """
    path = next(path for path in SOURCES if path.name == "evaluation.py")
    [function] = [
        node
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "load_corpus"
    ]

    def reads(node):
        return sorted(
            child.lineno
            for child in ast.walk(node)
            if isinstance(child, ast.Name) and child.id == "line_no"
            and isinstance(child.ctx, ast.Load)
        )

    def reads_under(kind):
        return sorted(
            line for node in ast.walk(function) if isinstance(node, kind) for line in reads(node)
        )

    assert reads_under(ast.Compare) == []
    assert reads_under(ast.JoinedStr) == reads(function) != []


def test_no_module_names_the_utf_8_sig_codec():
    """A byte-order mark is dropped at the start of any line, or separates tokens.

    The ``utf-8-sig`` codec drops one only at the start of its input,
    which would be a second rule.
    """

    def is_utf_8_sig(value):
        try:
            return codecs.lookup(value).name == "utf-8-sig"
        except (LookupError, ValueError):  # not a codec name, or one holding a NUL
            return False

    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and is_utf_8_sig(node.value)
    ]
    assert SOURCES
    assert found == []


def test_no_module_drops_a_mark_from_bytes():
    """A byte-order mark is dropped only from decoded text.

    Dropping it from bytes as well would state the rule a second time,
    and an invalid byte's offset must count the marks' bytes.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "BOM_UTF8")
        or (isinstance(node, ast.Name) and node.id == "BOM_UTF8")
        or (isinstance(node, ast.Constant) and isinstance(node.value, bytes)
            and codecs.BOM_UTF8 in node.value)
    ]
    assert SOURCES
    assert found == []


def test_no_docstring_holds_a_carriage_return_or_a_line_break_literal():
    """A docstring that names ``\\n`` or ``\\r`` spells the escape, as ``help()`` shows it.

    In a docstring that is not a raw string, ``\\n`` between double
    backticks is a real line break, and ``\\r`` a carriage return.
    """
    found = [
        f"{path.name}:{getattr(node, 'name', '<module>')}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path)))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        for doc in [ast.get_docstring(node, clean=False) or ""]
        if "\r" in doc or re.search(r"``[\r\n]+``", doc)
    ]
    assert SOURCES
    assert found == []
