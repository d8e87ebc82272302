"""Corpus evaluation: accuracy tables and confusion matrices.

Runs a configured classifier over a labeled corpus and aggregates the
outcome into per-language accuracy, unclassified rates and a confusion
matrix with a single ``unclassified`` bucket.  Classification of the
documents is embarrassingly parallel; aggregation is an ordered reduce
keyed by document id, so any ``parallelism`` value produces a report
byte-identical to the sequential one.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .lexicon import LexiconSet
from .normalize import normalize_text
from .scoring import NO_EVIDENCE, TIE, ScoringConfig, classify

logger = logging.getLogger(__name__)

#: Predicted-label bucket for documents no language won.
UNCLASSIFIED = "unclassified"

#: Parsing aborts when more than this fraction of lines is malformed.
MAX_MALFORMED_FRACTION = 0.10


class CorpusFormatError(ValueError):
    """Raised when a corpus file is unusable (too many malformed lines)."""


@dataclass(frozen=True)
class LabeledDocument:
    """One corpus entry: gold language, raw text, stable ordinal id."""

    gold: str
    text: str
    id: int


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold-major counts: ``counts[gold][predicted-or-unclassified]``.

    ``gold_labels`` lists the gold languages present in the corpus and
    ``predicted_labels`` every column, both in lexicon order with
    ``unclassified`` last.  Each gold row sums to that language's
    document count.
    """

    counts: dict[str, dict[str, int]]
    gold_labels: tuple[str, ...]
    predicted_labels: tuple[str, ...]

    def row_total(self, gold: str) -> int:
        return sum(self.counts[gold].values())


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregated evaluation outcome plus the configuration that made it."""

    per_language_accuracy: dict[str, float]
    unclassified_rate: dict[str, float]
    overall_accuracy: float
    matrix: ConfusionMatrix
    config_echo: dict
    unclassified_reasons: dict[str, dict[str, int]]
    total_documents: int


def load_corpus(path: str | Path, format: str) -> list[LabeledDocument]:
    """Read a labeled corpus file.

    ``tsv`` lines are ``label<TAB>text`` (tabs after the first stay in
    the text); ``jsonl`` lines are objects with string fields ``label``
    and ``text``.  Lines end at ``\n``; a ``\r`` before it is dropped.
    Labels are trimmed and lowercased, as
    :func:`~lexid.lexicon.load_lexicon` lowercases language directory
    names, so ``FR`` and ``fr`` name one language.  Lines that are not
    valid UTF-8 or are structurally malformed are counted as malformed
    and, like lines with an empty label or text, skipped with a logged
    ``path:line`` warning; when malformed lines exceed 10% of the
    non-blank lines, :class:`CorpusFormatError` is raised.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown corpus format {format!r}")
    documents: list[LabeledDocument] = []
    malformed = 0
    total = 0
    with open(path, "rb") as handle:
        for line_no, data in enumerate(handle, 1):
            data = data.rstrip(b"\r\n")
            if not data:
                continue
            total += 1
            try:
                line = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                logger.warning(
                    "%s:%d: invalid UTF-8 at byte %d, skipped", path, line_no, exc.start + 1
                )
                malformed += 1
                continue
            parsed = _parse_line(line, format, path, line_no)
            if parsed is None:
                malformed += 1
                continue
            label, text = parsed
            if not label.strip() or not text.strip():
                logger.warning("%s:%d: empty label or text, skipped", path, line_no)
                continue
            documents.append(
                LabeledDocument(gold=label.lower(), text=text, id=len(documents))
            )
    if total and malformed / total > MAX_MALFORMED_FRACTION:
        raise CorpusFormatError(
            f"{path}: {malformed} of {total} lines malformed (more than 10%)"
        )
    return documents


def _parse_line(line: str, format: str, path, line_no: int) -> tuple[str, str] | None:
    if format == "tsv":
        label, sep, text = line.partition("\t")
        if not sep:
            logger.warning("%s:%d: no tab separator, skipped", path, line_no)
            return None
        return label.strip(), text
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        logger.warning("%s:%d: invalid JSON (%s), skipped", path, line_no, exc.msg)
        return None
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("label"), str)
        or not isinstance(obj.get("text"), str)
    ):
        logger.warning("%s:%d: object lacks string label/text, skipped", path, line_no)
        return None
    return obj["label"].strip(), obj["text"]


def _classify_chunk(task: tuple[list[LabeledDocument], LexiconSet, ScoringConfig]):
    documents, lex, cfg = task
    results = []
    for doc in documents:
        verdict, _ = classify(normalize_text(doc.text), lex, cfg)
        results.append((doc.id, verdict.language or UNCLASSIFIED, verdict.reason))
    return results


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
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    unknown = {doc.gold for doc in corpus} - set(lex.codes)
    if unknown:
        raise ValueError(f"gold labels not in lexicon: {', '.join(sorted(unknown))}")

    # Chunks are contiguous corpus slices and pool.map preserves their
    # order, so the merged results follow document order no matter how
    # many workers ran or when they finished.
    if parallelism == 1 or len(corpus) < 2:
        results = _classify_chunk((corpus, lex, cfg))
    else:
        chunk_size = math.ceil(len(corpus) / parallelism)
        chunks = [corpus[i : i + chunk_size] for i in range(0, len(corpus), chunk_size)]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = []
            for part in pool.map(_classify_chunk, ((c, lex, cfg) for c in chunks)):
                results.extend(part)

    present = {doc.gold for doc in corpus}
    gold_labels = tuple(code for code in lex.codes if code in present)
    predicted_labels = (*lex.codes, UNCLASSIFIED)
    counts = {gold: {label: 0 for label in predicted_labels} for gold in gold_labels}
    reasons = {gold: {NO_EVIDENCE: 0, TIE: 0} for gold in gold_labels}
    for doc, (doc_id, predicted, reason) in zip(corpus, results):
        if doc.id != doc_id:
            raise RuntimeError(f"result for document {doc_id} arrived in place of {doc.id}")
        counts[doc.gold][predicted] += 1
        if reason is not None:
            reasons[doc.gold][reason] += 1

    matrix = ConfusionMatrix(
        counts=counts, gold_labels=gold_labels, predicted_labels=predicted_labels
    )
    accuracy = {g: counts[g][g] / matrix.row_total(g) for g in gold_labels}
    unclassified_rate = {
        g: counts[g][UNCLASSIFIED] / matrix.row_total(g) for g in gold_labels
    }
    correct = sum(counts[g][g] for g in gold_labels)
    overall = correct / len(corpus) if corpus else 0.0
    config_echo = {
        "p": cfg.p,
        "tf_mode": cfg.tf_mode,
        "weight_mode": cfg.weight_mode,
        "stopword_fallback": cfg.stopword_fallback,
        "languages": list(lex.codes),
        "lexicon_fingerprint": lex.fingerprint(),
    }
    return EvaluationReport(
        per_language_accuracy=accuracy,
        unclassified_rate=unclassified_rate,
        overall_accuracy=overall,
        matrix=matrix,
        config_echo=config_echo,
        unclassified_reasons=reasons,
        total_documents=len(corpus),
    )


def emit_report(report: EvaluationReport, format: str) -> bytes:
    """Serialize a report as a UTF-8 byte stream.

    ``table`` is a human-readable grid with percentages (two decimals)
    and a column-normalized confusion grid; ``csv`` carries ACCURACY and
    CONFUSION sections with raw counts and exact rates; ``json`` is the
    full report, round-trippable without loss.
    """
    if format == "table":
        text = _emit_table(report)
    elif format == "csv":
        text = _emit_csv(report)
    elif format == "json":
        text = _emit_json(report)
    else:
        raise ValueError(f"unknown report format {format!r}")
    return text.encode("utf-8")


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
    for gold in golds:
        lines.append(
            f"  {gold:<{width}}"
            f"  {report.per_language_accuracy[gold] * 100:>8.2f}%"
            f"  {report.unclassified_rate[gold] * 100:>12.2f}%"
        )
    lines.append("")

    # Confusion grid in predicted-rows x gold-columns orientation; each
    # column is normalized by its gold total and sums to 100.00%.
    rows = [*(label for label in matrix.predicted_labels if label != UNCLASSIFIED)]
    row_names = {label: label for label in rows}
    rows.append(UNCLASSIFIED)
    row_names[UNCLASSIFIED] = "not classified"
    per_column = {
        gold: _column_percentages(
            [matrix.counts[gold][row] for row in rows], matrix.row_total(gold)
        )
        for gold in golds
    }
    name_width = max(len("predicted"), *(len(row_names[r]) for r in rows))
    cell_width = max(8, *(len(g) for g in golds))
    lines.append("Confusion (% of each gold language's documents; columns are gold)")
    header = f"  {'predicted':<{name_width}}"
    for gold in golds:
        header += f"  {gold:>{cell_width}}"
    lines.append(header)
    for i, row in enumerate(rows):
        line = f"  {row_names[row]:<{name_width}}"
        for gold in golds:
            line += f"  {per_column[gold][i]:>{cell_width - 1}.2f}%"
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def _emit_csv(report: EvaluationReport) -> str:
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
    total_correct = 0
    total_misclassified = 0
    total_unclassified = 0
    for gold in matrix.gold_labels:
        row_total = matrix.row_total(gold)
        correct = matrix.counts[gold][gold]
        unclassified = matrix.counts[gold][UNCLASSIFIED]
        misclassified = row_total - correct - unclassified
        total_correct += correct
        total_misclassified += misclassified
        total_unclassified += unclassified
        writer.writerow(
            [
                gold,
                row_total,
                correct,
                misclassified,
                unclassified,
                repr(correct / row_total),
                repr(misclassified / row_total),
                repr(unclassified / row_total),
            ]
        )
    total = report.total_documents
    writer.writerow(
        [
            "overall",
            total,
            total_correct,
            total_misclassified,
            total_unclassified,
            repr(report.overall_accuracy),
            repr(total_misclassified / total if total else 0.0),
            repr(total_unclassified / total if total else 0.0),
        ]
    )
    writer.writerow(["CONFUSION"])
    writer.writerow(["gold", "predicted", "count", "rate"])
    for gold in matrix.gold_labels:
        row_total = matrix.row_total(gold)
        for predicted in matrix.predicted_labels:
            count = matrix.counts[gold][predicted]
            writer.writerow([gold, predicted, count, repr(count / row_total)])
    return buffer.getvalue()


def _emit_json(report: EvaluationReport) -> str:
    matrix = report.matrix
    payload = {
        "total_documents": report.total_documents,
        "overall_accuracy": report.overall_accuracy,
        "per_language_accuracy": report.per_language_accuracy,
        "unclassified_rate": report.unclassified_rate,
        "misclassified_rate": {
            gold: (
                matrix.row_total(gold)
                - matrix.counts[gold][gold]
                - matrix.counts[gold][UNCLASSIFIED]
            )
            / matrix.row_total(gold)
            for gold in matrix.gold_labels
        },
        "confusion": {gold: dict(matrix.counts[gold]) for gold in matrix.gold_labels},
        "unclassified_reasons": report.unclassified_reasons,
        "config": report.config_echo,
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
