import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lexid
from lexid import PRESETS, classify, demo_lexicon_dir, load_lexicon, normalize_text, preset_config
from lexid.cli import main

from test_evaluation import fork_with_failures, hostile_json_line, raising
from test_lexicon import NOT_UTF8, write_lexicon_dir

DEMO = str(demo_lexicon_dir())
SRC = str(Path(lexid.__file__).resolve().parents[1])


@pytest.fixture()
def ab_dir(tmp_path):
    root = tmp_path / "ab"
    write_lexicon_dir(root, {"a": (["le", "la"], ["é"]), "b": (["el", "la"], ["ñ"])})
    return str(root)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def preset_flags(name):
    cfg = PRESETS[name]
    return [
        "--p", repr(cfg.p),
        "--tf", cfg.tf_mode,
        "--weight", cfg.weight_mode,
        "--fallback" if cfg.stopword_fallback else "--no-fallback",
    ]


class TestDetect:
    def test_single_text(self, capsys, ab_dir):
        code, out, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "le café"])
        assert code == 0
        assert out == "a\n"

    def test_empty_text_is_undetermined_not_an_error(self, capsys, ab_dir):
        code, out, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", ""])
        assert code == 0
        assert out == "und\n"

    def test_scores_json_reveals_tie(self, capsys, tmp_path):
        root = tmp_path / "dia"
        write_lexicon_dir(
            root,
            {
                "es": ([], ["á", "é", "í", "ó", "ú", "ñ", "ü"]),
                "it": ([], ["à", "á", "è", "é", "ì", "í", "ò", "ó", "ù", "ú"]),
            },
        )
        code, out, _ = run(
            capsys,
            ["detect", "--lexicon", str(root), "--preset", "test9", "--scores", "allí estaré"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["language"] == "und"
        assert payload["reason"] == "tie"
        assert payload["scores"]["es"] == payload["scores"]["it"] > 0

    def test_demo_lexicon_real_sentences(self, capsys):
        for text, expected in [
            ("le café est déjà froid", "fr"),
            ("și acum mergem până la școală", "ro"),
            ("não gosto de ficar em casa", "pt"),
        ]:
            code, out, _ = run(capsys, ["detect", "--lexicon", DEMO, "--preset", "test9", text])
            assert (code, out) == (0, expected + "\n")

    def test_env_var_default(self, capsys, monkeypatch, ab_dir):
        monkeypatch.setenv("LID_LEXICON", ab_dir)
        code, out, _ = run(capsys, ["detect", "--preset", "test9", "le café"])
        assert (code, out) == (0, "a\n")

    def test_stdin_line_discipline(self, capsys, monkeypatch, ab_dir):
        stdin = io.TextIOWrapper(io.BytesIO("le café\n\nel ñu\nzzz\nla le\n".encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "--stdin"])
        assert code == 0
        assert out.splitlines() == ["a", "und", "b", "und", "a"]

    def test_stdin_reader_closing_early_is_quiet(self, tmp_path, ab_dir):
        # Far more output than a pipe holds, so the CLI is still writing
        # when the reader goes away after the first line.
        lines = tmp_path / "lines.txt"
        lines.write_text("le café\n" * 100_000, encoding="utf-8")
        argv = ["detect", "--stdin", "--lexicon", ab_dir, "--preset", "test3"]
        with open(lines, "rb") as stdin, subprocess.Popen(
            [sys.executable, "-m", "lexid.cli", *argv],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        ) as proc:
            assert proc.stdout.readline() == b"a\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        assert stderr == b""

    def test_file_input(self, capsys, tmp_path, ab_dir):
        src = tmp_path / "lines.txt"
        src.write_text("le café\nel ñandú\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "--file", str(src)]
        )
        assert (code, out) == (0, "a\nb\n")

    @pytest.mark.parametrize(
        ("interpreter_flags", "stdio_encoding"),
        [(["-X", "utf8"], None), ([], "utf-8"), ([], "latin-1")],
        ids=["utf8-mode", "utf-8", "latin-1"],
    )
    def test_file_and_stdin_agree_on_invalid_utf8(
        self, tmp_path, ab_dir, interpreter_flags, stdio_encoding
    ):
        # Only the diacritic of the last line decides its verdict.
        data = b"le caf\xc3\xa9\n\xff el \xc3\xb1u\nla l\xffe\nzzz\nla ni\xc3\xb1o\n"
        src = tmp_path / "lines.txt"
        src.write_bytes(data)
        argv = [sys.executable, *interpreter_flags, "-m", "lexid.cli", "detect"]
        argv += ["--lexicon", ab_dir, "--preset", "test9"]
        env = {**os.environ, "PYTHONPATH": SRC}
        env.pop("PYTHONIOENCODING", None)
        if stdio_encoding:
            env["PYTHONIOENCODING"] = stdio_encoding
        by_file = subprocess.run(argv + ["--file", str(src)], capture_output=True, env=env)
        by_stdin = subprocess.run(argv + ["--stdin"], input=data, capture_output=True, env=env)
        assert (by_file.returncode, by_stdin.returncode) == (0, 0)
        assert by_file.stdout == by_stdin.stdout == b"a\nb\nund\nund\nb\n"

    def test_file_and_stdin_agree_on_byte_order_mark(self, tmp_path):
        # A URL right after a kept U+FEFF would not be dropped, and its
        # "le" would score fr and it.
        plain = "http://x.co/le el\nle café\n".encode()
        argv = [sys.executable, "-m", "lexid.cli", "detect", "--scores"]
        argv += ["--lexicon", DEMO, "--preset", "test9"]
        env = {**os.environ, "PYTHONPATH": SRC}
        outputs = []
        for data in (plain, b"\xef\xbb\xbf" + plain):
            src = tmp_path / "lines.txt"
            src.write_bytes(data)
            by_file = subprocess.run(argv + ["--file", str(src)], capture_output=True, env=env)
            by_stdin = subprocess.run(argv + ["--stdin"], input=data, capture_output=True, env=env)
            assert (by_file.returncode, by_stdin.returncode) == (0, 0)
            outputs += [by_file.stdout, by_stdin.stdout]
        assert len(set(outputs)) == 1
        first = json.loads(outputs[0].splitlines()[0])
        assert first["scores"]["fr"] == first["scores"]["it"] == 0.0

    def test_file_and_stdin_split_lines_only_at_newline(self, tmp_path):
        data = "le café\rel niño\n".encode()
        src = tmp_path / "lines.txt"
        src.write_bytes(data)
        argv = [sys.executable, "-X", "utf8", "-m", "lexid.cli", "detect"]
        argv += ["--lexicon", DEMO, "--preset", "test9"]
        env = {**os.environ, "PYTHONPATH": SRC}
        by_file = subprocess.run(argv + ["--file", str(src)], capture_output=True, env=env)
        by_stdin = subprocess.run(argv + ["--stdin"], input=data, capture_output=True, env=env)
        assert (by_file.returncode, by_stdin.returncode) == (0, 0)
        assert by_file.stdout == by_stdin.stdout == b"es\n"

    def test_non_ascii_code_on_an_ascii_stdout(self, tmp_path):
        root = tmp_path / "lex"
        write_lexicon_dir(root, {"a": (["le"], ["é"]), "ελ": (["το"], ["ά"])})
        done = subprocess.run(
            [sys.executable, "-m", "lexid.cli", "detect", "--lexicon", str(root),
             "--preset", "test9", "το σπίτι"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "ascii"},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "ελ\n".encode(), b"")

    @given(
        st.lists(
            st.one_of(st.text(max_size=8), st.sampled_from(["le ", " și", "é", "ñ", " de ", "-"])),
            max_size=8,
        ).map("".join)
    )
    def test_scores_agree_with_classify(self, demo_lex, text):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["detect", "--lexicon", DEMO, "--preset", "test9", "--scores", "--", text])
        assert code == 0
        line, end = out.getvalue().split("\n")
        assert end == ""
        verdict, scores = classify(normalize_text(text), demo_lex, preset_config("test9"))
        assert json.loads(line) == {
            "language": verdict.language or "und",
            "reason": verdict.reason,
            "scores": scores,
        }

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_equals_expanded_flags(self, capsys, ab_dir, name):
        texts = ["le café", "la", "el ñu económico", ""]
        for text in texts:
            base = ["detect", "--lexicon", ab_dir]
            code_a, out_a, _ = run(capsys, base + ["--preset", name, "--scores", text])
            code_b, out_b, _ = run(capsys, base + preset_flags(name) + ["--scores", text])
            assert (code_a, out_a) == (code_b, out_b)


def run_fresh(script):
    """Run ``script`` in a fresh ``python -S`` and return its stdout lines.

    -S keeps site-packages start-up hooks, which may import modules
    themselves, out of the checks.
    """
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_after_detect(argv, modules):
    """Run ``lexid.cli.main(argv)`` fresh; its stdout, then which of ``modules`` it loaded."""
    return run_fresh(
        "import sys, lexid, lexid.cli\n"
        f"lexid.cli.main({argv!r})\n"
        f"print([name for name in {modules!r} if name in sys.modules])\n"
    )


class TestStartup:
    ARGV = ["detect", "le café est déjà froid", "--preset", "test9", "--lexicon", DEMO]

    def test_detect_loads_no_pool_digest_csv_or_fractions(self):
        heavy = [
            "concurrent.futures.process", "multiprocessing", "hashlib", "_hashlib", "csv",
            "fractions",
        ]
        assert loaded_after_detect(self.ARGV, heavy) == ["fr", "[]"]

    @pytest.mark.parametrize(
        ("jobs", "absent"),
        [("1", ["multiprocessing", "concurrent.futures.process"]),
         ("2", ["concurrent.futures.process"])],
    )
    def test_evaluate_loads_no_executor(self, tmp_path, jobs, absent):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("fr\tle café est déjà froid\nes\tel niño está aquí\n", "utf-8")
        argv = ["evaluate", "--lexicon", DEMO, "--corpus", str(corpus), "--format", "tsv",
                "--preset", "test9", "--jobs", jobs]
        *report, loaded = loaded_after_detect(argv, absent)
        assert report[0].startswith("Documents: 2")
        assert loaded == "[]"

    def test_detect_loads_no_dataclasses_inspect_json_or_evaluation(self):
        heavy = ["dataclasses", "inspect", "json", "lexid.evaluation"]
        assert loaded_after_detect(self.ARGV, heavy) == ["fr", "[]"]

    def test_detect_scores_still_prints_json(self):
        *lines, loaded = loaded_after_detect([*self.ARGV, "--scores"], ["json"])
        assert loaded == "['json']"
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert (payload["language"], payload["reason"]) == ("fr", None)
        assert payload["scores"]["fr"] > 0

    def test_star_import_binds_every_public_name(self):
        lines = run_fresh(
            "import sys, lexid\n"
            "print('lexid.evaluation' in sys.modules)\n"
            "names = {}\n"
            "exec('from lexid import *', names)\n"
            "print(sorted(set(lexid.__all__) - names.keys()))\n"
            "print(names['evaluate'] is lexid.evaluation.evaluate)\n"
        )
        assert lines == ["False", "[]", "True"]

    def test_evaluation_names_resolve_to_the_module(self):
        import lexid.evaluation

        shared = [name for name in lexid.__all__ if hasattr(lexid.evaluation, name)]
        assert {"evaluate", "load_corpus", "emit_report", "EvaluationReport"} <= set(shared)
        for name in shared:
            assert getattr(lexid, name) is getattr(lexid.evaluation, name)
        assert lexid.evaluate is lexid.evaluation.evaluate

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'x'"):
            lexid.x
        assert not hasattr(lexid, "evaluation_report")


class TestDetectErrors:
    def test_two_input_sources(self, capsys, ab_dir):
        code, _, err = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "x", "--stdin"])
        assert code == 1
        assert "exactly one input source" in err

    def test_no_input_source(self, capsys, ab_dir):
        code, _, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9"])
        assert code == 1

    def test_preset_conflicts_with_flags(self, capsys, ab_dir):
        code, _, err = run(
            capsys,
            ["detect", "--lexicon", ab_dir, "--preset", "test9", "--p", "0.5", "x"],
        )
        assert code == 1
        assert "--preset" in err

    def test_missing_config(self, capsys, ab_dir):
        code, _, err = run(capsys, ["detect", "--lexicon", ab_dir, "x"])
        assert code == 1
        assert "--preset or --p" in err

    def test_p_out_of_range(self, capsys, ab_dir):
        code, _, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--p", "1.5", "x"])
        assert code == 1

    def test_missing_lexicon_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("LID_LEXICON", raising=False)
        code, _, err = run(capsys, ["detect", "--preset", "test9", "x"])
        assert code == 1
        assert "--lexicon" in err

    def test_unreadable_input_file(self, capsys, ab_dir, tmp_path):
        code, _, _ = run(
            capsys,
            ["detect", "--lexicon", ab_dir, "--preset", "test9", "--file", str(tmp_path / "no")],
        )
        assert code == 2

    def test_broken_lexicon(self, capsys, tmp_path):
        root = tmp_path / "bad"
        (root / "fr").mkdir(parents=True)
        (root / "fr" / "stopwords.txt").write_text("le\n", "utf-8")
        code, _, err = run(capsys, ["detect", "--lexicon", str(root), "--preset", "test9", "x"])
        assert code == 3
        assert "lexicon" in err

    def test_invalid_utf8_in_lexicon(self, capsys, ab_dir):
        with open(Path(ab_dir) / "a" / "stopwords.txt", "ab") as handle:
            handle.write(b"de\xff\n")
        code, out, err = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "x"])
        assert (code, out) == (3, "")
        assert "stopwords.txt:3: invalid UTF-8 at byte 3" in err

    @pytest.mark.parametrize("code", ["und", "unclassified"])
    def test_reserved_language_code(self, capsys, tmp_path, code):
        root = tmp_path / "lex"
        write_lexicon_dir(root, {"a": (["le"], ["é"]), code: (["el"], ["ñ"])})
        exit_code, out, err = run(
            capsys, ["detect", "--lexicon", str(root), "--preset", "test9", "el"]
        )
        assert (exit_code, out) == (3, "")
        assert f"{root}: language code {code!r} is reserved" in err

    @pytest.mark.parametrize("command", ["detect", "evaluate", "dict validate"])
    def test_language_code_that_is_not_utf8(self, capsys, tmp_path, command):
        root = tmp_path / "lex"
        try:
            write_lexicon_dir(root, {"a": (["le"], ["é"]), NOT_UTF8: (["el"], ["ñ"])})
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        corpus = tmp_path / "c.tsv"
        corpus.write_text("a\tle café\n", encoding="utf-8")
        argv = {
            "detect": ["detect", "--preset", "test9", "el"],
            "evaluate": ["evaluate", "--preset", "test9", "--corpus", str(corpus),
                         "--format", "tsv", "--report", "json"],
            "dict validate": ["dict", "validate"],
        }[command]
        code, out, err = run(capsys, argv + ["--lexicon", str(root)])
        assert (code, out) == (3, "")
        assert f"{root}: language code 'f\\udcffr' is not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["detect", "evaluate", "dict validate"])
    def test_language_code_with_surrounding_whitespace(self, capsys, tmp_path, command):
        root = tmp_path / "lex"
        try:
            write_lexicon_dir(root, {"a": (["le"], ["é"]), "fr ": (["el"], ["ñ"])})
        except OSError:
            pytest.skip("the file system refuses a name ending in a space")
        corpus = tmp_path / "c.tsv"
        corpus.write_text("fr\tel niño\n", encoding="utf-8")
        argv = {
            "detect": ["detect", "--preset", "test9", "el"],
            "evaluate": ["evaluate", "--preset", "test9", "--corpus", str(corpus),
                         "--format", "tsv", "--report", "json"],
            "dict validate": ["dict", "validate"],
        }[command]
        code, out, err = run(capsys, argv + ["--lexicon", str(root)])
        assert (code, out) == (3, "")
        assert f"{root}: language code 'fr ' has surrounding whitespace" in err

    @staticmethod
    def detect_file_under_limit(tmp_path, lexicon, line):
        """``lexid detect --file`` on one ``line``, in a child limited to 200 MiB."""
        resource = pytest.importorskip("resource")
        limit = 200 << 20
        src = tmp_path / "big.txt"
        src.write_text(line + "\n", encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "lexid.cli", "detect", "--lexicon", lexicon,
             "--preset", "test9", "--file", str(src)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=120,
        )

    def test_input_too_large_for_memory(self, tmp_path, ab_dir):
        # 4 million tokens and no whitespace to cut the line at: tokenizing
        # it needs more than the limit.
        done = self.detect_file_under_limit(tmp_path, ab_dir, "la,casa," * 2_000_000)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == b"lexid: i/o error: out of memory (input too large)\n"

    def test_huge_line_cut_at_whitespace_fits_in_memory(self, tmp_path, ab_dir):
        # The same 4 million tokens, separated by spaces: the line is counted
        # one chunk at a time.  "la" is a stop word of both languages: a tie.
        done = self.detect_file_under_limit(tmp_path, ab_dir, "la casa " * 2_000_000)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"und\n", b"")

    def test_unknown_preset(self, capsys, ab_dir):
        code, _, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test10", "x"])
        assert code == 1

    def test_single_language_lexicon(self, capsys, tmp_path):
        root = tmp_path / "single"
        write_lexicon_dir(root, {"fr": (["le"], ["é"])})
        code, out, err = run(
            capsys, ["detect", "--lexicon", str(root), "--preset", "test9", "le café"]
        )
        assert (code, out) == (3, "")
        assert "at least 2 languages" in err


class TestEvaluate:
    @pytest.fixture()
    def corpus_tsv(self, tmp_path):
        lines = [
            "a\tle café",
            "a\tla le",
            "a\tzzz",
            "b\tel ñu",
            "b\tel el la",
            "b\tle",
        ]
        path = tmp_path / "corpus.tsv"
        path.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")
        return str(path)

    def test_report_to_stdout_and_summary_to_stderr(self, capsys, ab_dir, corpus_tsv):
        code, out, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
             "--preset", "test9"],
        )
        assert code == 0
        assert "Per-language accuracy" in out
        assert "overall accuracy" in err

    def test_jobs_byte_identical(self, tmp_path, capsys, ab_dir, corpus_tsv):
        outputs = []
        for jobs, name in (("1", "r1.json"), ("8", "r8.json")):
            out_path = tmp_path / name
            code, _, _ = run(
                capsys,
                ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
                 "--preset", "test9", "--jobs", jobs, "--report", "json", "--out", str(out_path)],
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_worker_out_of_memory_exit_code(self, capsys, monkeypatch, ab_dir, corpus_tsv):
        fork_with_failures(monkeypatch, workers=raising(MemoryError()))
        code, out, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
             "--preset", "test9", "--jobs", "2"],
        )
        assert (code, out) == (2, "")
        assert err == "lexid: i/o error: out of memory (input too large)\n"
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_counts_exit_code(self, capsys, monkeypatch, ab_dir, corpus_tsv):
        fork_with_failures(monkeypatch, workers=lambda: os._exit(1))
        code, out, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
             "--preset", "test9", "--jobs", "2"],
        )
        assert (code, out) == (2, "")
        assert err == (
            "lexid: error: evaluation worker exited with code 1 before sending its counts\n"
        )
        assert multiprocessing.active_children() == []

    def test_preset_equals_flags(self, capsys, ab_dir, corpus_tsv):
        base = ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
                "--report", "csv"]
        _, out_a, _ = run(capsys, base + ["--preset", "test3"])
        _, out_b, _ = run(capsys, base + ["--p", "1", "--tf", "raw", "--weight", "unit",
                                          "--fallback"])
        assert out_a == out_b

    def test_malformed_corpus_exit_code(self, capsys, ab_dir, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tok\njunk\njunk\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "tsv",
             "--preset", "test3"],
        )
        assert code == 4
        assert "malformed" in err

    def test_invalid_utf8_below_threshold_is_skipped(self, capsys, caplog, ab_dir, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes("a\tle café\n".encode() * 10 + b"b\tel \xff\n")
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "tsv",
             "--preset", "test3"],
        )
        assert code == 0
        assert "over 10 documents" in err
        assert f"{path}:11: invalid UTF-8" in caplog.text

    def test_invalid_utf8_above_threshold_exit_code(self, capsys, ab_dir, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes("a\tle café\n".encode() * 8 + b"b\tel \xff\n" * 2)
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "tsv",
             "--preset", "test3"],
        )
        assert code == 4
        assert "2 of 10 lines malformed" in err

    @pytest.mark.parametrize("kind", ["deep", "digits"])
    def test_hostile_json_below_threshold_is_skipped(
        self, capsys, caplog, ab_dir, tmp_path, kind
    ):
        path = tmp_path / "hostile.jsonl"
        lines = [json.dumps({"label": "a", "text": "le café"})] * 10 + [hostile_json_line(kind)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "jsonl",
             "--preset", "test3"],
        )
        assert code == 0
        assert "over 10 documents" in err
        assert f"{path}:11: invalid JSON (" in caplog.text

    @pytest.mark.parametrize("kind", ["deep", "digits"])
    def test_hostile_json_above_threshold_exit_code(self, capsys, ab_dir, tmp_path, kind):
        path = tmp_path / "hostile.jsonl"
        lines = [json.dumps({"label": "a", "text": "le café"})] * 8 + [hostile_json_line(kind)] * 2
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "jsonl",
             "--preset", "test3"],
        )
        assert code == 4
        assert "2 of 10 lines malformed (more than 10%)" in err

    def test_gold_labels_are_case_insensitive(self, capsys, ab_dir, corpus_tsv, tmp_path):
        upper = tmp_path / "upper.tsv"
        upper.write_text(Path(corpus_tsv).read_text(encoding="utf-8").upper(), encoding="utf-8")
        base = ["evaluate", "--lexicon", ab_dir, "--format", "tsv", "--preset", "test9",
                "--report", "json"]
        code, out_upper, _ = run(capsys, base + ["--corpus", str(upper)])
        assert code == 0
        _, out_lower, _ = run(capsys, base + ["--corpus", corpus_tsv])
        assert out_upper == out_lower
        assert json.loads(out_upper)["confusion"].keys() == {"a", "b"}

    def test_missing_corpus_is_io_error(self, capsys, ab_dir, tmp_path):
        code, _, _ = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(tmp_path / "no.tsv"),
             "--format", "tsv", "--preset", "test3"],
        )
        assert code == 2

    def test_bad_jobs(self, capsys, ab_dir, corpus_tsv):
        code, _, _ = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
             "--preset", "test3", "--jobs", "0"],
        )
        assert code == 1

    def test_tsv_byte_order_mark_is_ignored(self, capsys, ab_dir, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + "a\tle café\nb\tel ñu\n".encode())
        code, out, _ = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "tsv",
             "--preset", "test9", "--report", "json"],
        )
        assert code == 0
        assert json.loads(out)["confusion"] == {
            "a": {"a": 1, "b": 0, "unclassified": 0},
            "b": {"a": 0, "b": 1, "unclassified": 0},
        }

    def test_jsonl_byte_order_mark_is_ignored(self, capsys, ab_dir, tmp_path):
        path = tmp_path / "bom.jsonl"
        lines = [{"label": "a", "text": "le café"}, {"label": "b", "text": "el ñu"}]
        path.write_bytes(
            b"\xef\xbb\xbf" + "".join(f"{json.dumps(l)}\n" for l in lines).encode()
        )
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "jsonl",
             "--preset", "test9"],
        )
        assert code == 0
        assert "overall accuracy 100.00% over 2 documents" in err

    def test_single_language_lexicon(self, capsys, tmp_path):
        root = tmp_path / "single"
        write_lexicon_dir(root, {"fr": (["le"], ["é"])})
        path = tmp_path / "fr.tsv"
        path.write_text("fr\tle café\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            ["evaluate", "--lexicon", str(root), "--corpus", str(path), "--format", "tsv",
             "--preset", "test9"],
        )
        assert (code, out) == (3, "")
        assert "at least 2 languages" in err

    def test_gold_label_outside_lexicon(self, capsys, ab_dir, tmp_path):
        path = tmp_path / "wrong.tsv"
        path.write_text("zz\tle café\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            ["evaluate", "--lexicon", ab_dir, "--corpus", str(path), "--format", "tsv",
             "--preset", "test3"],
        )
        assert code == 1
        assert "gold labels" in err


class TestDict:
    def test_strip(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("# header\nși\nvotre\ncœur\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["dict", "strip", "--in", str(src), "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == "si\nvotre\ncoeur\n"

    def test_strip_ignores_byte_order_mark(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes(b"\xef\xbb\xbf" + "și\nvotre\n".encode())
        out = tmp_path / "out.txt"
        code, _, _ = run(capsys, ["dict", "strip", "--in", str(src), "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == "si\nvotre\n"

    def test_strip_invalid_utf8(self, capsys, tmp_path):
        src = tmp_path / "in.txt"
        src.write_bytes("și\n".encode() + b"vo\xfftre\n")
        out = tmp_path / "out.txt"
        code, _, err = run(capsys, ["dict", "strip", "--in", str(src), "--out", str(out)])
        assert code == 3
        assert f"{src}:2: invalid UTF-8 at byte 3" in err

    def test_augment_idempotent(self, capsys, tmp_path):
        first = tmp_path / "aug1"
        second = tmp_path / "aug2"
        assert run(capsys, ["dict", "augment", "--lexicon", DEMO, "--out", str(first)])[0] == 0
        assert run(capsys, ["dict", "augment", "--lexicon", str(first), "--out", str(second)])[0] == 0
        for code in ("es", "fr", "it", "pt", "ro"):
            for name in ("stopwords.txt", "diacritics.txt"):
                assert (first / code / name).read_bytes() == (second / code / name).read_bytes()
        assert load_lexicon(first) == load_lexicon(second)

    def test_validate_demo_warnings_only(self, capsys):
        code, out, _ = run(capsys, ["dict", "validate", "--lexicon", DEMO])
        assert code == 0
        assert "4 of 5 languages" in out
        assert "error:" not in out

    def test_validate_single_language_fails(self, capsys, tmp_path):
        root = tmp_path / "single"
        write_lexicon_dir(root, {"fr": (["le"], ["é"])})
        code, out, _ = run(capsys, ["dict", "validate", "--lexicon", str(root)])
        assert code == 3
        assert "error:" in out

    def test_validate_reports_unnormalized_file_entries(self, capsys, tmp_path):
        root = tmp_path / "messy"
        write_lexicon_dir(root, {"fr": (["Le"], ["é"]), "it": (["di"], ["ì"])})
        code, out, _ = run(capsys, ["dict", "validate", "--lexicon", str(root)])
        assert code == 0
        assert "normalized 'Le'" in out

    def test_show_builtin_diacritics(self, capsys):
        code, out, _ = run(capsys, ["dict", "show-builtin-diacritics"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert "fr\tàâæçèéêëîïôœùûü" in lines
        assert "ro\tăâîșşțţ" in lines

    def test_show_builtin_diacritics_on_an_ascii_stdout(self, capsys):
        code, out, _ = run(capsys, ["dict", "show-builtin-diacritics"])
        done = subprocess.run(
            [sys.executable, "-m", "lexid.cli", "dict", "show-builtin-diacritics"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "ascii"},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")


class TestPresetsCommand:
    def test_lists_nine_presets(self, capsys):
        code, out, _ = run(capsys, ["presets"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("test1\t")

    def test_test9_shows_log_modes(self, capsys):
        _, out, _ = run(capsys, ["presets"])
        line9 = [l for l in out.splitlines() if l.startswith("test9")][0]
        assert "tf=log" in line9 and "weight=log_ratio" in line9 and "p=1/3" in line9

    def test_output_stable(self, capsys):
        _, first, _ = run(capsys, ["presets"])
        _, second, _ = run(capsys, ["presets"])
        assert first == second


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, [])[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 1


class TestClosedStreams:
    """With fd 0 or fd 1 closed at start, Python sets ``sys.stdin``/``sys.stdout`` to None."""

    @pytest.fixture()
    def corpus_tsv(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tle café\nb\tel ñu\n", encoding="utf-8")
        return str(path)

    def test_detect_stdin_closed(self, capsys, monkeypatch, ab_dir):
        monkeypatch.setattr(sys, "stdin", None)
        argv = ["detect", "--lexicon", ab_dir, "--preset", "test9", "--stdin"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "lexid: i/o error: stdin is closed\n"

    def test_detect_stdout_closed(self, capsys, monkeypatch, ab_dir):
        monkeypatch.setattr(sys, "stdout", None)
        code, _, err = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "le"])
        assert code == 2
        assert err == "lexid: i/o error: stdout is closed\n"

    def test_evaluate_stdout_closed(self, capsys, monkeypatch, ab_dir, corpus_tsv):
        monkeypatch.setattr(sys, "stdout", None)
        argv = ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
                "--preset", "test9"]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err == "lexid: i/o error: stdout is closed\n"

    def test_evaluate_to_file_needs_no_stdout(
        self, capsys, monkeypatch, ab_dir, corpus_tsv, tmp_path
    ):
        monkeypatch.setattr(sys, "stdout", None)
        out_path = tmp_path / "report.json"
        argv = ["evaluate", "--lexicon", ab_dir, "--corpus", corpus_tsv, "--format", "tsv",
                "--preset", "test9", "--report", "json", "--out", str(out_path)]
        code, _, err = run(capsys, argv)
        assert code == 0
        assert json.loads(out_path.read_text(encoding="utf-8"))["total_documents"] == 2
        assert "overall accuracy 100.00% over 2 documents" in err

    @pytest.mark.parametrize("argv", [["presets"], ["dict", "show-builtin-diacritics"]])
    def test_listing_stdout_closed(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", None)
        assert run(capsys, argv)[0] == 2

    def test_stdin_closed_does_not_matter_without_stdin(self, capsys, monkeypatch, ab_dir):
        monkeypatch.setattr(sys, "stdin", None)
        code, out, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test9", "le"])
        assert (code, out) == (0, "a\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_broken_pipe_leaks_no_descriptor(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = io.TextIOWrapper(io.FileIO(write_end, "w"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        before = len(os.listdir("/proc/self/fd"))
        assert main(["presets"]) == 0
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        stdout.close()
