"""The exit-code contract under hostile input, driven in process.

Each case hands ``lexid.cli.main`` bytes drawn from a fixed alphabet of
hostile pieces at one I/O boundary, with fixed seeds, and checks that no
exception escapes ``main``, that the exit code is one its boundary
documents, that stderr holds no traceback and only ``lexid:`` and
``WARNING:`` lines (and ``evaluate``'s summary line), and that stdout
decodes as UTF-8 with ``surrogateescape``.  stdout starts as an ASCII
text stream, as under a hostile locale, and stdin as a byte stream.
Every second run that wrote to stderr is repeated with a stderr whose
every write fails, which must leave its exit code as it was.
:func:`sweep` runs the same cases for any seed and count, for a larger
run outside the test suite.
"""

import codecs
import contextlib
import errno
import io
import itertools
import json
import logging
import os
import random
import re
import shutil
import sys

import pytest

from lexid import demo_lexicon_dir, load_lexicon, preset_config
from lexid.cli import main
from lexid.evaluation import emit_report, evaluate, load_corpus

#: Byte-order marks, a lone ``\r``, NUL, invalid and overlong UTF-8, encoded
#: surrogates, U+2028, U+0085, JSON fragments and hostile JSON, a 5,000-digit
#: number, ``Σ``, URLs and emoji, among words of the demo languages.
PIECES = (
    codecs.BOM_UTF8, codecs.BOM_UTF8 * 3, b"\r", b"\r\n", b"\x00", b"\xff", b"\x80",
    b"\xc0\xaf", b"\xe0\x80\xaf", b"\xf0\x80\x80\xaf", b"\xed\xa0\x80", b"\xed\xbf\xbf",
    " ".encode(), "\u0085".encode(), b"\x85", b"\t", b" ", b"  ", b"\n",
    b'{"label": "es", "text": ', b'"text": "', b'"', b"}", b"{", b"[" * 3000, b"]",
    b"\\ud800", b"\\u0000", b"\\", b"null", b"1e999", b"1" * 5000,
    "Σ".encode(), "ΑΣ.".encode(), b"https://example.org/la?q=el", b"www.le.fr",
    "😀".encode(), "👍🏽".encode(), b"#", b"# comment", b"ES", b"FR",
    b"le", b"la", b"el", b"de", "café".encode(), "niño".encode(), "și".encode(), "não".encode(),
)
#: Whole lines that are hostile as JSON: nesting past the recursion limit, an integer
#: past the digit limit, wrong types, an escaped lone surrogate and a repeated key.
HOSTILE_JSON = (
    b"[" * 3000 + b"]" * 3000,
    b'{"label": "es", "text": "la", "n": ' + b"1" * 5000 + b"}",
    b'{"label": 1, "text": "la"}', b'{"label": "es"}', b"[]", b"null", b'"es"',
    b'{"label": "es", "text": "\\ud800 la"}', b'{"label": "es", "text": "la", "label": "fr"}',
)
#: Gold labels: the demo codes in any case and spacing, and some it lacks.
LABELS = (b"es", b"fr", b"it", b"pt", b"ro", b"ES", b" fr ", codecs.BOM_UTF8 + b"it", b"", b"xx")
WORDS = (b"le", b"la", b"el", b"de", "café".encode(), "niño".encode(), "și".encode(), b"que")

DEMO = demo_lexicon_dir()
WORD_LISTS = sorted(path.relative_to(DEMO) for path in DEMO.glob("*/*.txt"))
PRESET = ["--preset", "test9"]

#: The exit codes each boundary documents for input it cannot use.
EXITS = {
    "detect": {0},
    "evaluate": {0, 1, 4},  # 1 for a gold label outside the lexicon, 4 for too many bad lines
    "strip": {0, 3},
    "word list": {0, 3},
}
VERDICTS = {"es", "fr", "it", "pt", "ro", "und"}
SUMMARY = re.compile(r"overall accuracy \d+\.\d\d% over \d+ documents")


def noise(rng, size=8):
    return b"".join(rng.choice(PIECES) for _ in range(rng.randint(0, size)))


def text(rng):
    """Mostly words, so that some texts are classified, with hostile pieces between."""
    return b" ".join(rng.choice(WORDS) if rng.random() < 0.6 else noise(rng, 3)
                     for _ in range(rng.randint(0, 6)))


def corpus(rng, format):
    """Lines of hostile text, most of them well formed, so that every exit code occurs."""
    lines = []
    for _ in range(rng.randint(0, 12)):
        label = rng.choice(LABELS[:-1]) if rng.random() < 0.97 else LABELS[-1]
        words = text(rng)
        if rng.random() < 0.9:
            words = words.replace(b"\n", b" ")
        if rng.random() < 0.03:
            lines.append(noise(rng))
        elif rng.random() < 0.03:
            lines.append(rng.choice(HOSTILE_JSON))
        elif format == "tsv":
            lines.append(label + b"\t" + words)
        elif rng.random() < 0.1:
            lines.append(b'{"label": "' + label + b'", "text": "' + words + b'"}')
        else:
            # Undecodable bytes become lone surrogates, escaped as \udcxx.
            record = {"label": label.decode("utf-8"), "text": os.fsdecode(words)}
            lines.append(json.dumps(record, ensure_ascii=rng.random() < 0.7).encode(
                "utf-8", "surrogateescape"))
    return b"\n".join(lines) + rng.choice((b"", b"\n", b"\r\n"))


class UnwritableStderr(io.StringIO):
    """A stderr whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def drive(argv, stdin=b"", stderr=None):
    """``main(argv)`` with ``stdin`` as its stdin; its exit code, stdout bytes and stderr.

    ``stderr`` is a fresh ``io.StringIO`` unless given.
    """
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="ascii")  # main makes it UTF-8
    stderr = io.StringIO() if stderr is None else stderr
    root = logging.getLogger()
    # With no root handler, a warning is written to this stderr.
    saved, root.handlers = root.handlers, []
    saved_stdin, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        stdout.flush()
    finally:
        root.handlers = saved
        sys.stdin = saved_stdin
    return code, out.getvalue(), stderr.getvalue()


def problems(boundary, code, out, err):
    """What breaks the contract in one run of ``boundary``."""
    found = []
    if code not in EXITS[boundary]:
        found.append(f"exit {code}")
    lines = err.split("\n")
    if lines.pop() != "":
        found.append("stderr does not end with a line end")
    if boundary == "evaluate" and code == 0 and not (lines and SUMMARY.fullmatch(lines.pop())):
        found.append("no summary line")
    if "Traceback" in err or not all(l.startswith(("lexid:", "WARNING:")) for l in lines):
        found.append(f"stderr {err[:300]!r}")
    out.decode("utf-8", "surrogateescape")
    return found


def detect_labels(out, lines):
    """Whether ``detect`` printed ``lines`` lines, each a demo language or ``und``."""
    labels = out.decode("utf-8").split("\n")
    return labels.pop() == "" and len(labels) == lines and set(labels) <= VERDICTS


def cases(seed, count, tmp_path, drive=drive):
    """``count`` runs of each boundary on inputs seeded by ``seed``, with no more than two jobs.

    Yields ``(boundary, input, code, stdout, stderr, right)``, where
    ``right`` is whether the output was the one expected where one is.
    Each run goes through ``drive``.
    """
    rng = random.Random(seed)
    lexicon = tmp_path / "lexicon"
    shutil.copytree(DEMO, lexicon)
    detect = ["detect", "--lexicon", str(DEMO), *PRESET]
    for _ in range(count):
        data = text(rng)
        code, out, err = drive([*detect, "--", data.decode("utf-8", "surrogateescape")])
        yield "detect", data, code, out, err, detect_labels(out, 1)
        data = b"\n".join(text(rng) for _ in range(rng.randint(0, 4)))
        code, out, err = drive([*detect, "--stdin"], stdin=data)
        # Lines end only at \n, and a last line may lack it.
        lines = data.count(b"\n") + (data[-1:] not in (b"", b"\n"))
        yield "detect", data, code, out, err, detect_labels(out, lines)
        (tmp_path / "lines.txt").write_bytes(data)
        file_run = drive([*detect, "--file", str(tmp_path / "lines.txt")])
        yield "detect", data, *file_run, file_run[1:] == (out, err)

        for format in ("tsv", "jsonl"):
            data = corpus(rng, format)
            (tmp_path / "corpus").write_bytes(data)
            argv = ["evaluate", "--lexicon", str(DEMO), *PRESET, "--format", format,
                    "--corpus", str(tmp_path / "corpus"), "--report", rng.choice(("table", "json"))]
            # A second job forks a worker, so only one run in eight takes it.
            jobs = "2" if rng.random() < 0.125 else "1"
            yield "evaluate", data, *drive([*argv, "--jobs", jobs]), True

        data = noise(rng)
        (tmp_path / "words.txt").write_bytes(data)
        argv = ["dict", "strip", "--in", str(tmp_path / "words.txt"),
                "--out", str(tmp_path / "out.txt")]
        yield "strip", data, *drive(argv), True

        # Hostile lines appended to one word list of a copy of the demo lexicon.
        target = lexicon / rng.choice(WORD_LISTS)
        original = target.read_bytes()
        data = rng.choice((b"", b"\n")) + noise(rng)
        target.write_bytes(original + data)
        runs = (
            ["detect", "--lexicon", str(lexicon), *PRESET, "--", "la casa"],
            ["dict", "validate", "--lexicon", str(lexicon)],
            ["dict", "augment", "--lexicon", str(lexicon), "--out", str(tmp_path / "augmented")],
        )
        for argv in runs:
            yield "word list", data, *drive(argv), True
        target.write_bytes(original)


def sweep(seed, count, tmp_path):
    """Every failing case of :func:`cases`, and a count of runs per boundary and exit code.

    Every second run that wrote to stderr runs again with an
    :class:`UnwritableStderr`, and fails if that changes its exit code.  A
    run that wrote nothing there has no write to lose, and half the others
    reach every kind of stderr line in about half the time.
    """
    failures, exits, unwritable, written = [], {}, [], itertools.count()

    def drive_twice(argv, stdin=b""):
        run = drive(argv, stdin)
        if run[2] and next(written) % 2 == 0:
            unwritable.append(drive(argv, stdin, UnwritableStderr())[0])
        return run

    for boundary, data, code, out, err, right in cases(seed, count, tmp_path, drive_twice):
        exits[boundary, code] = exits.get((boundary, code), 0) + 1
        found = problems(boundary, code, out, err) + ([] if right else ["unexpected output"])
        found += [f"exit {other} with an unwritable stderr" for other in unwritable if other != code]
        unwritable.clear()
        if found:
            failures.append((boundary, data[:200], found))
    return failures, exits


@pytest.mark.parametrize("seed", [5, 7])
def test_hostile_input_keeps_the_exit_code_contract(tmp_path, seed):
    failures, exits = sweep(seed, 40, tmp_path)
    assert failures == []
    # The cases reach every documented class but evaluate's rare exit 1.
    assert {(b, c) for b, c in exits} >= {("detect", 0), ("evaluate", 0), ("evaluate", 4),
                                         ("strip", 0), ("strip", 3), ("word list", 0),
                                         ("word list", 3)}


@pytest.fixture()
def corpus_tsv(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("es\tel niño y la casa\nfr\tle café est déjà froid\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("report", ["table", "csv", "json"])
def test_evaluate_writes_to_a_host_text_stdout(corpus_tsv, report):
    """A host that redirects stdout to an ``io.StringIO`` gets the report as text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["evaluate", "--lexicon", str(DEMO), *PRESET, "--format", "tsv",
            "--corpus", str(corpus_tsv), "--report", report]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    expected = evaluate(load_corpus(corpus_tsv, "tsv"), load_lexicon(DEMO), preset_config("test9"))
    assert (code, stdout.getvalue()) == (0, emit_report(expected, report).decode())
    assert stderr.getvalue() == "overall accuracy 100.00% over 2 documents\n"

