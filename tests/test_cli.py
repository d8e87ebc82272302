import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lexid
from lexid import PRESETS, classify, demo_lexicon_dir, load_lexicon, normalize_text, preset_config
from lexid.cli import main

from test_lexicon import write_lexicon_dir

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
        monkeypatch.setattr("sys.stdin", io.StringIO("le café\n\nel ñu\nzzz\nla le\n"))
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

    def test_file_and_stdin_agree_on_invalid_utf8(self, tmp_path, ab_dir):
        data = b"le caf\xc3\xa9\n\xff el \xc3\xb1u\nla l\xffe\nzzz\n"
        src = tmp_path / "lines.txt"
        src.write_bytes(data)
        argv = [sys.executable, "-X", "utf8", "-m", "lexid.cli", "detect"]
        argv += ["--lexicon", ab_dir, "--preset", "test9"]
        env = {**os.environ, "PYTHONPATH": SRC}
        by_file = subprocess.run(argv + ["--file", str(src)], capture_output=True, env=env)
        by_stdin = subprocess.run(argv + ["--stdin"], input=data, capture_output=True, env=env)
        assert (by_file.returncode, by_stdin.returncode) == (0, 0)
        assert by_file.stdout == by_stdin.stdout == b"a\nb\nund\nund\n"

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

    def test_unknown_preset(self, capsys, ab_dir):
        code, _, _ = run(capsys, ["detect", "--lexicon", ab_dir, "--preset", "test10", "x"])
        assert code == 1


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
