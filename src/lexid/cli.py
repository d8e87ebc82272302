"""Identify the Romance language of a text by its stop words and diacritics.

Exit codes: 0 success (a text no language won, printed as und, is not an
error), 1 usage error, 2 I/O error (a command started with the stdin or
stdout it needs closed, an input too large for memory, or an evaluate
worker that exited before sending its counts), 3 lexicon validation
failure, 4 corpus rejected for too many malformed lines.

detect --stdin and detect --file classify one text per line; input is
read as UTF-8 whatever the locale, and a line ends only at a line feed,
so a lone carriage return stays inside its line.  Results go to stdout,
in UTF-8 whatever the locale; warnings, errors and the evaluate summary
go to stderr, one line each, and a stderr that cannot be written changes
no exit code.  A reader that closes stdout early, as in
lexid detect --stdin | head -1, ends the run quietly with exit 0.
--lexicon defaults to the LID_LEXICON environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

from .lexicon import (
    DIACRITIC,
    STOPWORD,
    UNDETERMINED,
    LexiconError,
    _DICTIONARIES,
    _read_entries,
    _stderr,
    demo_lexicon_dir,
    load_lexicon,
)
from .scoring import PRESETS, TF_MODES, WEIGHT_MODES, ScoringConfig, _classify_text, preset_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_LEXICON = 3
EXIT_CORPUS = 4


class UsageError(Exception):
    """An argparse usage error, its message ready to print; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of argparse's exit(2)
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_lexicon_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        default=os.environ.get("LID_LEXICON"),
        help="lexicon directory (default: $LID_LEXICON)",
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scoring configuration")
    group.add_argument("--preset", choices=sorted(PRESETS), help="stock configuration")
    group.add_argument("--p", type=float, help="stop-word mixing coefficient in [0,1]")
    group.add_argument("--tf", choices=TF_MODES, help="term-frequency mode")
    group.add_argument("--weight", choices=WEIGHT_MODES, help="term-weighting mode")
    group.add_argument(
        "--fallback",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="score diacritic-free texts with stop words only (default: on)",
    )


def _resolve_config(args: argparse.Namespace) -> ScoringConfig:
    explicit = [
        flag
        for flag, value in (
            ("--p", args.p),
            ("--tf", args.tf),
            ("--weight", args.weight),
            ("--fallback/--no-fallback", args.fallback),
        )
        if value is not None
    ]
    if args.preset:
        if explicit:
            raise ValueError(f"--preset cannot be combined with {', '.join(explicit)}")
        return preset_config(args.preset)
    if args.p is None:
        raise ValueError("either --preset or --p is required")
    # Only the modes given, so that ScoringConfig alone holds their defaults.
    modes = {"tf_mode": args.tf, "weight_mode": args.weight}
    return ScoringConfig(
        p=args.p,
        stopword_fallback=True if args.fallback is None else args.fallback,
        **{field: mode for field, mode in modes.items() if mode is not None},
    )


def _std(name: str):
    """``sys.stdin`` or ``sys.stdout``, which is ``None`` if its fd was closed at start."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _require_lexicon(args: argparse.Namespace, warnings_to=None):
    if not args.lexicon:
        raise ValueError("--lexicon is required (or set LID_LEXICON)")
    return load_lexicon(args.lexicon, warnings_to)


def _cmd_detect(args: argparse.Namespace) -> int:
    sources = sum((args.text is not None, args.stdin, args.file is not None))
    if sources != 1:
        raise ValueError("exactly one input source (TEXT, --stdin or --file) is required")
    out = _std("stdout")
    lex = _require_lexicon(args)
    cfg = _resolve_config(args)
    if args.scores:
        import json

    # Both line sources decode as UTF-8 whatever the interpreter's stdio
    # settings.  A U+FEFF, a byte-order mark included, separates tokens, as
    # does an invalid byte, which becomes a lone surrogate; a lone \r stays
    # inside its line.
    decoding = {"encoding": "utf-8", "errors": "surrogateescape", "newline": "\n"}
    with contextlib.ExitStack() as stack:
        if args.stdin:
            try:
                stdin = _std("stdin").buffer
            except AttributeError:  # a host's text stream, as io.StringIO
                raise OSError("stdin is not a byte stream") from None
            lines = io.TextIOWrapper(stdin, **decoding)
            # Detaching hands the buffer back unclosed, so stdin stays open.
            stack.callback(lines.detach)
        elif args.file is not None:
            lines = stack.enter_context(open(args.file, **decoding))
        else:
            lines = [args.text]
        for line in lines:
            # A line's trailing \n is whitespace, which changes no count.
            verdict, values = _classify_text(line, lex, cfg)
            label = verdict.language or UNDETERMINED
            # One write per line: print writes the "\n" apart, which costs a
            # second system call per line when stdout is unbuffered.
            if args.scores:
                scores = dict(zip(lex.codes, values))
                record = {"language": label, "reason": verdict.reason, "scores": scores}
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
            else:
                out.write(label + "\n")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import CorpusFormatError, emit_report, evaluate, load_corpus

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    out = None if args.out else _std("stdout")
    lex = _require_lexicon(args)
    cfg = _resolve_config(args)
    try:
        corpus = load_corpus(args.corpus, args.format)
    except CorpusFormatError as exc:
        _stderr(f"lexid: corpus error: {exc}")
        return EXIT_CORPUS
    report = evaluate(corpus, lex, cfg, parallelism=args.jobs)
    payload = emit_report(report, args.report)
    if out is None:
        Path(args.out).write_bytes(payload)
    else:
        out.write(payload.decode("utf-8"))
        out.flush()  # the report reaches the stream before the summary line
    _stderr(
        f"overall accuracy {report.overall_accuracy * 100:.2f}%"
        f" over {report.total_documents} documents"
    )
    return EXIT_OK


def _cmd_dict(args: argparse.Namespace) -> int:
    from . import tooling

    if args.action == "strip":
        words = map(tooling.strip_diacritics, _read_entries(Path(args.in_path), STOPWORD))
        Path(args.out).write_text("".join(f"{w}\n" for w in words), encoding="utf-8")
        return EXIT_OK
    if args.action == "augment":
        lex = _require_lexicon(args)
        tooling.save_lexicon(tooling.augment_with_stripped_variants(lex), args.out)
        return EXIT_OK
    out = _std("stdout")
    if args.action == "validate":
        findings = []
        lex = _require_lexicon(args, warnings_to=findings)
        findings.extend(tooling.validate_lexicon(lex))
        for finding in findings:
            print(finding, file=out)
        if any(f.severity == "error" for f in findings):
            return EXIT_LEXICON
        return EXIT_OK
    # show-builtin-diacritics
    for lang_dir in sorted(p for p in demo_lexicon_dir().iterdir() if p.is_dir()):
        letters = "".join(_read_entries(lang_dir / _DICTIONARIES[DIACRITIC], DIACRITIC))
        print(f"{lang_dir.name}\t{letters}", file=out)
    return EXIT_OK


def _cmd_presets(args: argparse.Namespace) -> int:
    from fractions import Fraction

    out = _std("stdout")
    for name, cfg in PRESETS.items():
        p = Fraction(cfg.p).limit_denominator(1000)
        fallback = "on" if cfg.stopword_fallback else "off"
        print(
            f"{name}\tp={p}\ttf={cfg.tf_mode}\tweight={cfg.weight_mode}\tfallback={fallback}",
            file=out,
        )
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lexid", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser("detect", help="classify one text or a stream of lines")
    detect.add_argument("text", nargs="?", default=None, help="text to classify")
    detect.add_argument("--stdin", action="store_true", help="classify each stdin line")
    detect.add_argument("--file", help="classify each line of a file")
    detect.add_argument(
        "--scores", action="store_true", help="print per-language scores as JSON"
    )
    _add_lexicon_flag(detect)
    _add_config_flags(detect)
    detect.set_defaults(func=_cmd_detect)

    evaluate_cmd = commands.add_parser("evaluate", help="run over a labeled corpus")
    evaluate_cmd.add_argument("--corpus", required=True, help="corpus file path")
    evaluate_cmd.add_argument(
        "--format", required=True, choices=("tsv", "jsonl"), help="corpus file format"
    )
    evaluate_cmd.add_argument(
        "--report", choices=("table", "csv", "json"), default="table", help="report format"
    )
    evaluate_cmd.add_argument("--jobs", type=int, default=1, help="workers, at most the CPU count")
    evaluate_cmd.add_argument("--out", help="write the report to this file")
    _add_lexicon_flag(evaluate_cmd)
    _add_config_flags(evaluate_cmd)
    evaluate_cmd.set_defaults(func=_cmd_evaluate)

    dict_cmd = commands.add_parser("dict", help="lexicon tooling")
    actions = dict_cmd.add_subparsers(dest="action", required=True)
    strip = actions.add_parser("strip", help="fold accented characters in a word list")
    strip.add_argument("--in", dest="in_path", required=True, help="input word list")
    strip.add_argument("--out", required=True, help="output word list")
    augment = actions.add_parser(
        "augment", help="add accent-stripped stop-word variants to a lexicon"
    )
    _add_lexicon_flag(augment)
    augment.add_argument("--out", required=True, help="output lexicon directory")
    validate = actions.add_parser("validate", help="report lexicon weaknesses")
    _add_lexicon_flag(validate)
    actions.add_parser(
        "show-builtin-diacritics", help="print the diacritic sets of the shipped lexicon"
    )
    dict_cmd.set_defaults(func=_cmd_dict)

    presets = commands.add_parser("presets", help="list the stock configurations")
    presets.set_defaults(func=_cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Input bytes that did not decode, as in a lexicon path, go out unchanged.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send the output still buffered to devnull, so the flush at
        # interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except UsageError as exc:
        _stderr(str(exc))
        return EXIT_USAGE
    except LexiconError as exc:
        _stderr(f"lexid: lexicon error: {exc}")
        return EXIT_LEXICON
    except OSError as exc:
        _stderr(f"lexid: i/o error: {exc}")
        return EXIT_IO
    except MemoryError:
        _stderr("lexid: i/o error: out of memory (input too large)")
        return EXIT_IO
    except RuntimeError as exc:  # an evaluate worker exited before sending its counts
        _stderr(f"lexid: error: {exc}")
        return EXIT_IO
    except ValueError as exc:  # e.g. corpus gold labels outside the lexicon
        _stderr(f"lexid: error: {exc}")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
