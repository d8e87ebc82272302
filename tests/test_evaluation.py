import contextlib
import json
import logging
import multiprocessing
import os
import re
import signal
import sys
import time

import pytest

from lexid import (
    ConfusionMatrix,
    CorpusFormatError,
    EvaluationReport,
    LabeledDocument,
    LanguageLexicon,
    LexiconSet,
    UNCLASSIFIED,
    emit_report,
    evaluate,
    load_corpus,
    preset_config,
)

from _synth import make_corpus as synth_corpus


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def hostile_json_line(kind):
    """A JSONL line that ``json.loads`` rejects with more than a JSONDecodeError."""
    if kind == "deep":
        return "[" * 200_000 + "]" * 200_000
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    return '{"label": "a", "text": "x", "n": ' + "1" * (limit + 1) + "}"


class TestLoadCorpusTsv:
    def test_basic_line(self, tmp_path):
        docs = load_corpus(write(tmp_path / "c.tsv", "fr\tbonjour\n"), "tsv")
        assert docs == [LabeledDocument(gold="fr", text="bonjour", id=0)]

    def test_later_tabs_stay_in_text(self, tmp_path):
        docs = load_corpus(write(tmp_path / "c.tsv", "fr\tun\tdeux\n"), "tsv")
        assert docs[0].text == "un\tdeux"

    def test_line_without_tab_is_skipped_and_counted(self, tmp_path, caplog):
        content = "".join(f"fr\ttexte {i}\n" for i in range(20)) + "fr\n" + "it\n"
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(write(tmp_path / "c.tsv", content), "tsv")
        assert len(docs) == 20
        skipped = [r for r in caplog.records if "no tab separator" in r.getMessage()]
        assert len(skipped) == 2

    def test_empty_label_or_text_skipped(self, tmp_path, caplog):
        content = "fr\tbonjour\n\tmissing label\nfr\t   \n"
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(write(tmp_path / "c.tsv", content), "tsv")
        assert len(docs) == 1
        assert sum("empty label or text" in r.getMessage() for r in caplog.records) == 2

    def test_too_many_malformed_aborts(self, tmp_path):
        content = "fr\tok\n" + "junk\n" * 3
        with pytest.raises(CorpusFormatError, match="malformed"):
            load_corpus(write(tmp_path / "c.tsv", content), "tsv")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "absent.tsv", "tsv")

    def test_ids_are_sequential(self, tmp_path):
        content = "fr\tun\nit\tdue\nes\ttres\n"
        docs = load_corpus(write(tmp_path / "c.tsv", content), "tsv")
        assert [d.id for d in docs] == [0, 1, 2]

    def test_labels_are_lowercased(self, tmp_path):
        content = "FR\tun\n It \tdue\n"
        docs = load_corpus(write(tmp_path / "c.tsv", content), "tsv")
        assert [d.gold for d in docs] == ["fr", "it"]

    def test_invalid_utf8_line_is_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "c.tsv"
        good = "".join(f"fr\ttexte {i}\n" for i in range(10)).encode()
        path.write_bytes(b"fr\tcaf\xe9\n" + good + "it\tcittà\r\n".encode())
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(path, "tsv")
        assert [d.text for d in docs] == [f"texte {i}" for i in range(10)] + ["città"]
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"{path}:1: invalid UTF-8 at byte 7, skipped"]

    def test_byte_order_mark_alone_on_first_line_is_blank(self, tmp_path, caplog):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"\xef\xbb\xbf\r\nfr\tle\n")
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(path, "tsv")
        assert docs == [LabeledDocument(gold="fr", text="le", id=0)]
        assert caplog.records == []

    def test_invalid_utf8_offset_counts_the_byte_order_mark(self, tmp_path, caplog):
        path = tmp_path / "c.tsv"
        good = "".join(f"fr\ttexte {i}\n" for i in range(10)).encode()
        path.write_bytes(b"\xef\xbb\xbffr\tcaf\xe9\n" + good)
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(path, "tsv")
        assert len(docs) == 10
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [f"{path}:1: invalid UTF-8 at byte 10, skipped"]

    def test_too_many_invalid_utf8_lines_abort(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"fr\tok\n" + b"fr\t\xff\n" * 3)
        with pytest.raises(CorpusFormatError, match="3 of 4 lines malformed"):
            load_corpus(path, "tsv")


class TestLoadCorpusJsonl:
    def test_basic_object(self, tmp_path):
        docs = load_corpus(
            write(tmp_path / "c.jsonl", '{"label": "ro", "text": "și"}\n'), "jsonl"
        )
        assert docs == [LabeledDocument(gold="ro", text="și", id=0)]

    def test_malformed_objects_skipped(self, tmp_path, caplog):
        lines = [json.dumps({"label": "fr", "text": f"t{i}"}) for i in range(20)]
        lines.append("{broken")
        lines.append('{"label": 3, "text": "x"}')
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(write(tmp_path / "c.jsonl", "\n".join(lines) + "\n"), "jsonl")
        assert len(docs) == 20
        assert sum("skipped" in r.getMessage() for r in caplog.records) == 2

    @pytest.mark.parametrize("kind", ["deep", "digits"])
    def test_hostile_line_is_skipped_and_counted(self, tmp_path, caplog, kind):
        lines = [json.dumps({"label": "fr", "text": f"t{i}"}) for i in range(10)]
        lines.append(hostile_json_line(kind))
        path = write(tmp_path / "c.jsonl", "\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(path, "jsonl")
        assert len(docs) == 10
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(f"{path}:11: invalid JSON (")
        assert message.endswith("), skipped")
        assert "set_int_max_str_digits" not in message
        reason = {"deep": "nested too deeply", "digits": "number too long"}[kind]
        assert message == f"{path}:11: invalid JSON ({reason}), skipped"

    @pytest.mark.parametrize("kind", ["deep", "digits"])
    def test_too_many_hostile_lines_abort(self, tmp_path, kind):
        lines = [json.dumps({"label": "fr", "text": f"t{i}"}) for i in range(8)]
        lines += [hostile_json_line(kind)] * 2
        path = write(tmp_path / "c.jsonl", "\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"2 of 10 lines malformed \(more than 10%\)"):
            load_corpus(path, "jsonl")

    def test_byte_order_mark_alone_on_first_line_is_blank(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xef\xbb\xbf\n" + b'{"label": "ro", "text": "si"}\n')
        with caplog.at_level(logging.WARNING, logger="lexid.evaluation"):
            docs = load_corpus(path, "jsonl")
        assert docs == [LabeledDocument(gold="ro", text="si", id=0)]
        assert caplog.records == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_corpus(write(tmp_path / "c.x", "x"), "csv")


def make_corpus(pairs):
    return [
        LabeledDocument(gold=gold, text=text, id=i) for i, (gold, text) in enumerate(pairs)
    ]


def raising(exc):
    """An action that raises ``exc``."""

    def action():
        raise exc

    return action


@contextlib.contextmanager
def deadline(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fork_with_failures(monkeypatch, workers=None, own=None):
    """Make ``evaluate`` fork one worker, and call ``workers()`` before the
    worker counts its slice and ``own()`` before this process counts its own.

    A forked worker inherits the patched ``_tally`` whatever the default
    start method is.
    """
    import lexid.evaluation

    monkeypatch.setattr("multiprocessing.Process", multiprocessing.get_context("fork").Process)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    tally = lexid.evaluation._tally

    def failing(golds, texts, lex, cfg, start, stop):
        action = own if start == 0 else workers
        if action is not None:
            action()
        return tally(golds, texts, lex, cfg, start, stop)

    monkeypatch.setattr(lexid.evaluation, "_tally", failing)


class TestEvaluate:
    def test_all_correct(self, ab_lex):
        corpus = make_corpus([("a", "le le"), ("a", "le café"), ("b", "el el"), ("b", "el ñu")])
        report = evaluate(corpus, ab_lex, preset_config("test3"))
        assert report.overall_accuracy == 1.0
        assert report.per_language_accuracy == {"a": 1.0, "b": 1.0}
        assert all(v == 0 for row in report.matrix.counts.values() for k, v in row.items() if k == UNCLASSIFIED)

    def test_all_unclassified(self, demo_lex):
        corpus = make_corpus([("ro", "universitate facultate istorie")])
        report = evaluate(corpus, demo_lex, preset_config("test9"))
        assert report.unclassified_rate["ro"] == 1.0
        assert report.per_language_accuracy["ro"] == 0.0
        assert report.unclassified_reasons["ro"]["no_evidence"] == 1

    def test_hand_built_matrix(self, ab_lex):
        # ten documents hand-classified with the toy lexicon: "la" alone
        # ties, "el" wins b, "le" wins a, no-evidence text lands in
        # unclassified
        corpus = make_corpus(
            [
                ("a", "le monde"),      # a
                ("a", "la"),            # tie
                ("a", "el gato"),       # b
                ("a", "xyz"),           # no evidence
                ("a", "le le la"),      # a
                ("a", "le café"),       # a
                ("b", "el perro"),      # b
                ("b", "le"),            # a
                ("b", "el ñu"),         # b
                ("b", "la la"),         # tie
            ]
        )
        report = evaluate(corpus, ab_lex, preset_config("test3"))
        assert report.matrix.counts == {
            "a": {"a": 3, "b": 1, UNCLASSIFIED: 2},
            "b": {"a": 1, "b": 2, UNCLASSIFIED: 1},
        }
        assert report.unclassified_reasons["a"] == {"no_evidence": 1, "tie": 1}
        assert report.unclassified_reasons["b"] == {"no_evidence": 0, "tie": 1}
        assert report.overall_accuracy == pytest.approx(5 / 10)

    def test_row_conservation_and_rates(self, ab_lex):
        corpus = make_corpus(
            [("a", t) for t in ("le", "la", "el", "zz", "le le")]
            + [("b", t) for t in ("el", "el ñu", "le")]
        )
        report = evaluate(corpus, ab_lex, preset_config("test4"))
        for gold, expected_total in (("a", 5), ("b", 3)):
            row_total = report.matrix.row_total(gold)
            assert row_total == expected_total
            correct = report.matrix.counts[gold][gold]
            unclassified = report.matrix.counts[gold][UNCLASSIFIED]
            misclassified = row_total - correct - unclassified
            total_rate = (
                report.per_language_accuracy[gold]
                + report.unclassified_rate[gold]
                + misclassified / row_total
            )
            assert total_rate == pytest.approx(1.0, abs=1e-9)

    def test_gold_label_missing_from_lexicon(self, ab_lex):
        corpus = make_corpus([("zz", "le")])
        with pytest.raises(ValueError, match="gold labels not in lexicon: zz"):
            evaluate(corpus, ab_lex, preset_config("test3"))

    def test_parallelism_must_be_positive(self, ab_lex):
        with pytest.raises(ValueError, match="parallelism"):
            evaluate([], ab_lex, preset_config("test3"), parallelism=0)

    def test_parallel_equals_sequential(self, demo_lex):
        texts = [
            ("fr", "le café est déjà froid"),
            ("es", "la casa está muy lejos y el niño"),
            ("ro", "și acum mergem până la școală"),
            ("it", "però adesso è già in città"),
            ("pt", "não gosto de ficar em casa"),
            ("ro", "universitate facultate istorie"),
            ("es", "allí estaré"),
        ] * 8
        corpus = make_corpus(texts)
        sequential = evaluate(corpus, demo_lex, preset_config("test9"), parallelism=1)
        parallel = evaluate(corpus, demo_lex, preset_config("test9"), parallelism=4)
        assert parallel.unclassified_reasons["ro"]["no_evidence"] > 0
        assert parallel.unclassified_reasons["es"]["tie"] > 0
        assert sequential == parallel
        for fmt in ("table", "csv", "json"):
            assert emit_report(sequential, fmt) == emit_report(parallel, fmt)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_equal_sequential(self, demo_lex, monkeypatch):
        corpus, _ = synth_corpus(demo_lex, 20)
        cfg = preset_config("test9")
        sequential = evaluate(corpus, demo_lex, cfg, parallelism=1)
        spawn = multiprocessing.get_context("spawn")
        spawned = []

        def spawn_process(**kwargs):
            spawned.append(spawn.Process(**kwargs))
            return spawned[-1]

        monkeypatch.setattr("multiprocessing.Process", spawn_process)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        parallel = evaluate(corpus, demo_lex, cfg, parallelism=2)
        for fmt in ("table", "csv", "json"):
            assert emit_report(sequential, fmt) == emit_report(parallel, fmt)
        # The one worker really was a spawned process, and it finished.
        assert [(type(child), child.exitcode) for child in spawned] == [(spawn.Process, 0)]
        assert multiprocessing.active_children() == []

    def test_worker_exception_keeps_its_type(self, ab_lex, monkeypatch):
        fork_with_failures(monkeypatch, workers=raising(MemoryError()))
        corpus = make_corpus([("a", "le"), ("b", "el")] * 5)
        with pytest.raises(MemoryError):
            evaluate(corpus, ab_lex, preset_config("test3"), parallelism=2)
        assert multiprocessing.active_children() == []

    def test_worker_exit_without_counts(self, ab_lex, monkeypatch):
        fork_with_failures(monkeypatch, workers=lambda: os._exit(1))
        corpus = make_corpus([("a", "le"), ("b", "el")] * 5)
        with deadline(30), pytest.raises(RuntimeError, match="exited with code 1 before") as info:
            evaluate(corpus, ab_lex, preset_config("test3"), parallelism=2)
        assert info.value.__cause__ is None and info.value.__suppress_context__
        assert multiprocessing.active_children() == []

    def test_own_slice_failure_terminates_workers(self, ab_lex, monkeypatch):
        fork_with_failures(
            monkeypatch, workers=lambda: time.sleep(60), own=raising(ValueError("own slice"))
        )
        corpus = make_corpus([("a", "le"), ("b", "el")] * 5)
        # Without the terminate, joining the sleeping worker would take 60 s.
        with deadline(30), pytest.raises(ValueError, match="own slice"):
            evaluate(corpus, ab_lex, preset_config("test3"), parallelism=2)
        assert multiprocessing.active_children() == []

    def test_tallies_must_cover_the_corpus(self, ab_lex, monkeypatch):
        import lexid.evaluation

        tally = lexid.evaluation._tally

        def drop_first(golds, texts, lex, cfg, start, stop):
            return tally(golds, texts, lex, cfg, start + 1, stop)

        monkeypatch.setattr(lexid.evaluation, "_tally", drop_first)
        corpus = make_corpus([("a", "le"), ("b", "el")])
        with pytest.raises(RuntimeError, match="cover 1 of 2 documents"):
            evaluate(corpus, ab_lex, preset_config("test3"))

    @pytest.mark.parametrize(
        ("cpu_count", "jobs", "workers"),
        [(3, 100_000, 3), (3, 2, 2), (None, 100_000, None), (1, 100_000, None)],
    )
    def test_pool_is_capped_at_cpu_count(
        self, ab_lex, monkeypatch, cpu_count, jobs, workers
    ):
        # ``workers`` processes classify, this one included.
        started = []

        class InProcessChild:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                started.append(self)
                self.target(*self.args)

            def join(self):
                pass

            def terminate(self):
                pass

        corpus = make_corpus([("a", "le"), ("b", "el"), ("a", "zz")] * 10)
        serial = evaluate(corpus, ab_lex, preset_config("test3"))
        monkeypatch.setattr("multiprocessing.Process", InProcessChild)
        monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
        report = evaluate(corpus, ab_lex, preset_config("test3"), parallelism=jobs)
        assert len(started) == (workers or 1) - 1
        assert report == serial

    def test_empty_corpus(self, ab_lex):
        report = evaluate([], ab_lex, preset_config("test3"))
        assert report.overall_accuracy == 0.0
        assert report.per_language_accuracy == {}
        assert report.matrix.gold_labels == ()


def report_with_accuracy(correct=9409, total=10000):
    labels = ("fr", "it", UNCLASSIFIED)
    counts = {"fr": {"fr": correct, "it": total - correct - 591, UNCLASSIFIED: 591}}
    matrix = ConfusionMatrix(counts=counts, gold_labels=("fr",), predicted_labels=labels)
    return EvaluationReport(
        matrix=matrix,
        config_echo={
            "p": 1 / 3,
            "tf_mode": "log",
            "weight_mode": "log_ratio",
            "stopword_fallback": True,
            "languages": ["fr", "it"],
            "lexicon_fingerprint": "abc123",
        },
        unclassified_reasons={"fr": {"no_evidence": 500, "tie": 91}},
    )


class TestEmit:
    def test_table_formats_percentages(self):
        table = emit_report(report_with_accuracy(), "table").decode()
        assert "94.09%" in table
        assert "not classified" in table

    def test_table_empty_corpus(self, ab_lex):
        table = emit_report(evaluate([], ab_lex, preset_config("test3")), "table").decode()
        assert "No documents evaluated." in table

    def test_table_columns_sum_to_hundred(self, ab_lex):
        # awkward totals (7 documents over 3 outcomes) still add to 100.00
        corpus = make_corpus(
            [("a", t) for t in ("le", "le", "el", "la", "zz", "zz", "zz")]
            + [("b", "el")]
        )
        report = evaluate(corpus, ab_lex, preset_config("test3"))
        table = emit_report(report, "table").decode()
        lines = table.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("Confusion"))
        grid = [l for l in lines[start + 2 :] if l.strip()]
        columns = None
        for line in grid:
            cells = [float(m) for m in re.findall(r"(\d+\.\d{2})%", line)]
            if columns is None:
                columns = [[] for _ in cells]
            for idx, value in enumerate(cells):
                columns[idx].append(value)
        for column in columns:
            assert sum(column) == pytest.approx(100.0, abs=0.011)

    def test_csv_sections_and_rates(self, ab_lex):
        corpus = make_corpus([("a", "le"), ("a", "zz"), ("b", "el")])
        report = evaluate(corpus, ab_lex, preset_config("test3"))
        text = emit_report(report, "csv").decode()
        assert text.startswith("ACCURACY\n")
        assert "\nCONFUSION\n" in text
        confusion = text.split("\nCONFUSION\n", 1)[1].strip().splitlines()[1:]
        seen = {}
        for row in confusion:
            gold, predicted, count, rate = row.split(",")
            seen[(gold, predicted)] = (int(count), float(rate))
        assert seen[("a", "a")] == (1, 0.5)
        assert seen[("a", UNCLASSIFIED)] == (1, 0.5)
        assert seen[("b", "b")] == (1, 1.0)

    def test_csv_rates_roundtrip_exactly(self):
        text = emit_report(report_with_accuracy(correct=3333), "csv").decode()
        for line in text.splitlines():
            if line.startswith("fr,") and line.count(",") == 7:
                accuracy = float(line.split(",")[5])
                assert accuracy == 3333 / 10000

    def test_json_roundtrip(self, ab_lex):
        corpus = make_corpus([("a", "le"), ("a", "la"), ("b", "el"), ("b", "qq")])
        report = evaluate(corpus, ab_lex, preset_config("test7"))
        payload = json.loads(emit_report(report, "json").decode())
        assert payload["confusion"] == {
            gold: dict(row) for gold, row in report.matrix.counts.items()
        }
        assert payload["overall_accuracy"] == report.overall_accuracy
        assert payload["config"]["lexicon_fingerprint"] == ab_lex.fingerprint()
        assert payload["unclassified_reasons"] == report.unclassified_reasons

    def test_json_empty_corpus(self, ab_lex):
        payload = json.loads(emit_report(evaluate([], ab_lex, preset_config("test3")), "json"))
        assert payload["total_documents"] == 0
        assert payload["per_language_accuracy"] == {}

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="report format"):
            emit_report(report_with_accuracy(), "xml")
