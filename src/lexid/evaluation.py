"""Corpus evaluation: accuracy tables and confusion matrices.

Runs a configured classifier over a labeled corpus and counts the
outcome into a confusion matrix with a single ``unclassified`` bucket.
Those counts are the report's only stored outcome: per-language
accuracy, unclassified and misclassified rates and overall accuracy are
all derived from them.  Classification of the documents is
embarrassingly parallel: at most ``parallelism`` processes, this one
included, are each handed one contiguous slice of the corpus and only
that, and each slice yields a count per ``(gold, predicted, reason)``.
The counts are summed, and integer sums do not depend on their order,
so any ``parallelism`` value produces a report byte-identical to the
sequential one.  Each document is classified from its raw text through
the path ``lexid detect`` uses, which holds one chunk of a long text at
a time, so the corpus itself is the bulk of the memory.  The records
are named tuples.  :mod:`lexid` imports this module on first use of one
of its names, :mod:`multiprocessing` is imported only when
:func:`evaluate` starts workers, :mod:`csv` only when a CSV report is
written, and :mod:`logging` only when a corpus line is skipped.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from collections import Counter, namedtuple
from pathlib import Path

from .lexicon import UNCLASSIFIED, LexiconSet, _warn
from .scoring import NO_EVIDENCE, TIE, ScoringConfig, _classify_text

#: Parsing aborts when more than this fraction of lines is malformed.
MAX_MALFORMED_FRACTION = 0.10


class CorpusFormatError(ValueError):
    """Raised when a corpus file is unusable (too many malformed lines)."""


class LabeledDocument(namedtuple("LabeledDocument", "gold text id")):
    """One corpus entry: gold language, raw text, stable ordinal id."""

    __slots__ = ()


class ConfusionMatrix(namedtuple("ConfusionMatrix", "counts gold_labels predicted_labels")):
    """Gold-major counts: ``counts[gold][predicted-or-unclassified]``.

    ``gold_labels`` lists the gold languages present in the corpus and
    ``predicted_labels`` every column, both tuples in lexicon order with
    ``unclassified`` last.  Each gold row sums to that language's
    document count.
    """

    __slots__ = ()

    def row_total(self, gold: str) -> int:
        return sum(self.counts[gold].values())


class EvaluationReport(namedtuple("EvaluationReport", "matrix config_echo unclassified_reasons")):
    """Confusion counts plus the configuration that made them.

    ``config_echo`` is a dict of the configuration, the language codes
    and the lexicon fingerprint.  ``unclassified_reasons[gold]`` splits
    the ``unclassified`` column by reason.  The rates are derived from
    ``matrix``.
    """

    __slots__ = ()

    @property
    def per_language_accuracy(self) -> dict[str, float]:
        return {gold: correct / n for gold, n, correct, _, _ in _outcomes(self.matrix)}

    @property
    def unclassified_rate(self) -> dict[str, float]:
        return {
            gold: unclassified / n for gold, n, _, _, unclassified in _outcomes(self.matrix)
        }

    @property
    def total_documents(self) -> int:
        return sum(n for _, n, _, _, _ in _outcomes(self.matrix))

    @property
    def overall_accuracy(self) -> float:
        total = self.total_documents
        correct = sum(correct for _, _, correct, _, _ in _outcomes(self.matrix))
        return correct / total if total else 0.0


def _outcomes(matrix: ConfusionMatrix):
    """Yield ``(gold, documents, correct, misclassified, unclassified)`` per gold row."""
    for gold in matrix.gold_labels:
        documents = matrix.row_total(gold)
        correct = matrix.counts[gold][gold]
        unclassified = matrix.counts[gold][UNCLASSIFIED]
        yield gold, documents, correct, documents - correct - unclassified, unclassified


def load_corpus(path: str | Path, format: str) -> list[LabeledDocument]:
    r"""Read a labeled corpus file.

    ``tsv`` lines are ``label<TAB>text`` (tabs after the first stay in
    the text); ``jsonl`` lines are objects with string fields ``label``
    and ``text``.  Lines end at ``\n``; every ``\r`` a line ends with is
    dropped, and a run of byte-order marks at the start of any line is
    ignored, so concatenated files load and a line holding only marks is
    blank.  Labels are trimmed and lowercased, as
    :func:`~lexid.lexicon.load_lexicon` lowercases language directory
    names, so ``FR`` and ``fr`` name one language.  Lines that are not
    valid UTF-8 or are structurally malformed, JSON that nests deeper
    than the recursion limit or holds an integer longer than the
    interpreter's digit limit included, are counted as malformed and,
    like lines with an empty label or text, skipped with a logged
    ``path:line`` warning; when malformed lines exceed 10% of the
    non-blank lines, :class:`CorpusFormatError` is raised.
    """
    parse = {"tsv": _parse_tsv, "jsonl": _parse_jsonl}.get(format)
    if parse is None:
        raise ValueError(f"unknown corpus format {format!r}")
    documents: list[LabeledDocument] = []
    malformed = parsed = 0
    with open(path, "rb") as handle:
        for line_no, data in enumerate(handle, 1):
            try:
                # Decoding first keeps an invalid byte's offset counting the marks' bytes.
                line = _decode(data.rstrip(b"\r\n")).lstrip("\ufeff")
                if not line:
                    continue
                label, text = parse(line)
            except ValueError as exc:  # its message says why the line is malformed
                _warn(f"{path}:{line_no}: {exc}, skipped", logger=__name__)
                malformed += 1
                continue
            parsed += 1
            label = sys.intern(label.strip().lower())
            if not label or not text.strip():
                _warn(f"{path}:{line_no}: empty label or text, skipped", logger=__name__)
                continue
            documents.append(LabeledDocument(gold=label, text=text, id=len(documents)))
    total = malformed + parsed
    if total and malformed / total > MAX_MALFORMED_FRACTION:
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed"
            f" (more than {MAX_MALFORMED_FRACTION:.0%})"
        )
    return documents


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid UTF-8 at byte {exc.start + 1}") from None


def _parse_tsv(line: str) -> tuple[str, str]:
    label, sep, text = line.partition("\t")
    if not sep:
        raise ValueError("no tab separator")
    return label, text


def _parse_jsonl(line: str) -> tuple[str, str]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ValueError("invalid JSON (number too long)") from None
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("label"), str)
        or not isinstance(obj.get("text"), str)
    ):
        raise ValueError("object lacks string label/text")
    return obj["label"], obj["text"]


def _tally(documents: list[LabeledDocument], lex: LexiconSet, cfg: ScoringConfig) -> Counter:
    """Count ``(gold, predicted, reason)`` over ``documents``."""
    tally = Counter()
    for gold, text, _ in documents:
        verdict, _ = _classify_text(text, lex, cfg)
        tally[gold, verdict.language or UNCLASSIFIED, verdict.reason] += 1
    return tally


def _tally_to(sender, *args) -> None:
    """Send ``_tally(*args)``, or the exception it raised, through ``sender``."""
    try:
        result = _tally(*args)
    except Exception as exc:
        result = exc
    sender.send(result)


def evaluate(
    corpus: list[LabeledDocument],
    lex: LexiconSet,
    cfg: ScoringConfig,
    parallelism: int = 1,
) -> EvaluationReport:
    """Classify every document and aggregate the confusion counts.

    Every gold label must name a language of ``lex``.  Both
    non-classification reasons land in the single ``unclassified``
    bucket; the per-reason split is kept separately in the report.
    ``parallelism`` workers, capped at the CPU count, each classify one
    contiguous slice of the corpus into ``(gold, predicted, reason)``
    counts, which this process sums.  This process classifies the first
    slice; each other slice goes to a process that receives only it,
    ``lex`` and ``cfg`` (inherited if forked, else pickled).  A worker's
    exception is raised here with its own type, a worker that exits
    without sending its counts raises :class:`RuntimeError`, and no
    worker outlives the call.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    present = {doc.gold for doc in corpus}
    unknown = present - set(lex.codes)
    if unknown:
        raise ValueError(f"gold labels not in lexicon: {', '.join(map(repr, sorted(unknown)))}")

    workers = min(parallelism, os.cpu_count() or 1, len(corpus))
    if workers < 2:
        tally = _tally(corpus, lex, cfg)
    else:
        import multiprocessing

        size = math.ceil(len(corpus) / workers)
        children = []
        try:
            for start in range(size, len(corpus), size):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(
                    target=_tally_to, args=(sender, corpus[start : start + size], lex, cfg)
                )
                child.start()
                sender.close()
                children.append((child, receiver))
            tally = _tally(corpus[:size], lex, cfg)
            for child, receiver in children:
                try:
                    result = receiver.recv()
                except EOFError:
                    child.join()
                    raise RuntimeError(
                        f"evaluation worker exited with code {child.exitcode}"
                        " before sending its counts"
                    ) from None
                if isinstance(result, Exception):
                    raise result
                tally += result
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receiver in children:
                child.join()
                receiver.close()

    covered = sum(tally.values())
    if covered != len(corpus):
        raise RuntimeError(f"tallies cover {covered} of {len(corpus)} documents")
    gold_labels = tuple(code for code in lex.codes if code in present)
    predicted_labels = (*lex.codes, UNCLASSIFIED)
    counts = {gold: {label: 0 for label in predicted_labels} for gold in gold_labels}
    reasons = {gold: {NO_EVIDENCE: 0, TIE: 0} for gold in gold_labels}
    for (gold, predicted, reason), n in tally.items():
        counts[gold][predicted] += n
        if reason is not None:
            reasons[gold][reason] += n

    return EvaluationReport(
        matrix=ConfusionMatrix(
            counts=counts, gold_labels=gold_labels, predicted_labels=predicted_labels
        ),
        config_echo={
            **cfg._asdict(),
            "languages": list(lex.codes),
            "lexicon_fingerprint": lex.fingerprint(),
        },
        unclassified_reasons=reasons,
    )


def emit_report(report: EvaluationReport, format: str) -> bytes:
    """Serialize a report as a UTF-8 byte stream.

    ``table`` is a human-readable grid with percentages (two decimals)
    and a column-normalized confusion grid; ``csv`` carries ACCURACY and
    CONFUSION sections with raw counts and exact rates; ``json`` is the
    full report, round-trippable without loss.
    """
    emit = {"table": _emit_table, "csv": _emit_csv, "json": _emit_json}.get(format)
    if emit is None:
        raise ValueError(f"unknown report format {format!r}")
    return emit(report).encode("utf-8")


def _column_percentages(values: list[int], total: int) -> list[float]:
    """Percentages in hundredths that sum to exactly 100.00.

    Largest-remainder rounding over basis points, so a column of a
    column-normalized grid never drifts from 100% by more than display
    resolution.
    """
    exact = [value * 10000 / total for value in values]
    floors = [math.floor(x) for x in exact]
    shortfall = 10000 - sum(floors)
    order = sorted(range(len(values)), key=lambda i: (floors[i] - exact[i], i))
    for i in order[:shortfall]:
        floors[i] += 1
    return [f / 100.0 for f in floors]


def _config_line(echo: dict) -> str:
    return (
        f"Config: p={echo['p']:.6g} tf={echo['tf_mode']} weight={echo['weight_mode']} "
        f"fallback={'on' if echo['stopword_fallback'] else 'off'}"
    )


def _emit_table(report: EvaluationReport) -> str:
    echo = report.config_echo
    lines = [
        f"Documents: {report.total_documents}"
        f"    Overall accuracy: {report.overall_accuracy * 100:.2f}%",
        _config_line(echo),
        f"Lexicon: {len(echo['languages'])} languages"
        f" ({', '.join(echo['languages'])}) fingerprint {echo['lexicon_fingerprint']}",
        "",
    ]
    if not report.total_documents:
        lines.append("No documents evaluated.")
        lines.append("")
        return "\n".join(lines)

    matrix = report.matrix
    golds = matrix.gold_labels
    lines.append("Per-language accuracy")
    width = max(len("language"), *(len(g) for g in golds))
    lines.append(f"  {'language':<{width}}  {'accuracy':>9}  {'unclassified':>13}")
    for gold, n, correct, _, unclassified in _outcomes(matrix):
        lines.append(
            f"  {gold:<{width}}"
            f"  {correct / n * 100:>8.2f}%"
            f"  {unclassified / n * 100:>12.2f}%"
        )
    lines.append("")

    # Confusion grid in predicted-rows x gold-columns orientation; each
    # column is normalized by its gold total and sums to 100.00%.
    rows = matrix.predicted_labels
    row_names = ["not classified" if row == UNCLASSIFIED else row for row in rows]
    per_column = {
        gold: _column_percentages(
            [matrix.counts[gold][row] for row in rows], matrix.row_total(gold)
        )
        for gold in golds
    }
    name_width = max(len("predicted"), *map(len, row_names))
    cell_width = max(8, *(len(g) for g in golds))
    lines.append("Confusion (% of each gold language's documents; columns are gold)")
    header = f"  {'predicted':<{name_width}}"
    for gold in golds:
        header += f"  {gold:>{cell_width}}"
    lines.append(header)
    for i, name in enumerate(row_names):
        line = f"  {name:<{name_width}}"
        for gold in golds:
            line += f"  {per_column[gold][i]:>{cell_width - 1}.2f}%"
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def _emit_csv(report: EvaluationReport) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    matrix = report.matrix
    writer.writerow(["ACCURACY"])
    writer.writerow(
        [
            "language",
            "documents",
            "correct",
            "misclassified",
            "unclassified",
            "accuracy",
            "misclassified_rate",
            "unclassified_rate",
        ]
    )
    # The overall row sums the language rows.  It stays out of any dict
    # keyed by language, since a lexicon may name a language "overall".
    totals = [0, 0, 0, 0]
    for gold, *figures in _outcomes(matrix):
        totals = [total + figure for total, figure in zip(totals, figures)]
        writer.writerow(_accuracy_row(gold, *figures))
    writer.writerow(_accuracy_row("overall", *totals))
    writer.writerow(["CONFUSION"])
    writer.writerow(["gold", "predicted", "count", "rate"])
    for gold in matrix.gold_labels:
        row_total = matrix.row_total(gold)
        for predicted in matrix.predicted_labels:
            count = matrix.counts[gold][predicted]
            writer.writerow([gold, predicted, count, repr(count / row_total)])
    return buffer.getvalue()


def _accuracy_row(label: str, documents: int, *counts: int) -> list:
    """``label, documents, correct, misclassified, unclassified`` and their rates."""
    rates = (repr(count / documents if documents else 0.0) for count in counts)
    return [label, documents, *counts, *rates]


def _emit_json(report: EvaluationReport) -> str:
    matrix = report.matrix
    payload = {
        "total_documents": report.total_documents,
        "overall_accuracy": report.overall_accuracy,
        "per_language_accuracy": report.per_language_accuracy,
        "unclassified_rate": report.unclassified_rate,
        "misclassified_rate": {
            gold: misclassified / n for gold, n, _, misclassified, _ in _outcomes(matrix)
        },
        "confusion": {gold: dict(matrix.counts[gold]) for gold in matrix.gold_labels},
        "unclassified_reasons": report.unclassified_reasons,
        "config": report.config_echo,
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
