"""Per-language stop-word and diacritic dictionaries.

A :class:`LexiconSet` bundles one :class:`LanguageLexicon` per language
together with a cross-language term index: for every term it records
which languages list it, which is what the specificity weighting in
:mod:`lexid.scoring` consumes.  Stop words and diacritics live in
separate index namespaces, so a one-letter stop word such as ``y`` never
collides with a diacritic character.

On disk a lexicon is a directory with one subdirectory per language::

    <root>/<lang>/stopwords.txt     one word per line
    <root>/<lang>/diacritics.txt    one character per line

Files are UTF-8, and lines end at ``\n``; surrounding whitespace is
trimmed, blank lines and lines starting with ``#`` are ignored.  A stop
word is one normalized token (:func:`lexid.normalize.normalize_text`)
and a diacritic one letter; both are lowercase and canonically composed
(NFC).  The loader normalizes each entry itself and warns about any it
had to change; :class:`LexiconSet` accepts only entries already in that
form.  The shipped ``data/demo`` lexicon holds the built-in diacritic
sets of the five supported languages.
"""

from __future__ import annotations

import hashlib
import logging
import unicodedata
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

from .normalize import _tokens

logger = logging.getLogger(__name__)

# Term-index namespaces.
STOPWORD = "stopword"
DIACRITIC = "diacritic"

# Accent-folding table used to derive plain-ASCII spellings of stop
# words.  œ/æ fold to their two-letter expansions; anything not listed
# passes through unchanged.
FOLDING_TABLE: dict[str, str] = {
    "à": "a", "â": "a", "á": "a", "ă": "a", "ã": "a",
    "æ": "ae",
    "ç": "c",
    "è": "e", "é": "e", "ê": "e", "ë": "e",
    "î": "i", "ï": "i", "ì": "i", "í": "i",
    "ô": "o", "ò": "o", "ó": "o", "õ": "o",
    "œ": "oe",
    "ù": "u", "û": "u", "ü": "u", "ú": "u",
    "ñ": "n",
    "ș": "s", "ş": "s",
    "ț": "t", "ţ": "t",
}


class LexiconError(ValueError):
    """Raised for structural problems in lexicon data or files."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by lexicon loading or validation."""

    severity: str  # "error" or "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


@dataclass(frozen=True)
class LanguageLexicon:
    """Stop words and diacritics of a single language.

    Stop words must be single, lowercase, NFC-composed word tokens;
    diacritics must be single lowercase, NFC-composed letters.  Construct
    through :class:`LexiconSet`, which enforces both.
    """

    stopwords: frozenset[str]
    diacritics: frozenset[str]


class LexiconSet:
    """An ordered set of language lexicons plus the cross-language index.

    Immutable after construction; safe to share between any number of
    concurrent scorers.
    """

    def __init__(self, languages: Mapping[str, LanguageLexicon]):
        if not languages:
            raise LexiconError("lexicon contains no languages")
        self._languages: dict[str, LanguageLexicon] = {}
        for code, lexicon in languages.items():
            if not code:
                raise LexiconError("empty language code")
            for kind, terms in ((STOPWORD, lexicon.stopwords), (DIACRITIC, lexicon.diacritics)):
                for term in terms:
                    if not _is_canonical(kind, term):
                        message = _NOT_CANONICAL[kind].format(term)
                        raise LexiconError(f"language {code!r}: {message}")
            self._languages[code] = lexicon

        index: dict[str, dict[str, set[str]]] = {STOPWORD: {}, DIACRITIC: {}}
        for code, lexicon in self._languages.items():
            for word in lexicon.stopwords:
                index[STOPWORD].setdefault(word, set()).add(code)
            for ch in lexicon.diacritics:
                index[DIACRITIC].setdefault(ch, set()).add(code)
        self._index: dict[str, dict[str, frozenset[str]]] = {
            kind: {term: frozenset(codes) for term, codes in terms.items()}
            for kind, terms in index.items()
        }
        self._all_diacritics = frozenset(self._index[DIACRITIC])

    @property
    def languages(self) -> dict[str, LanguageLexicon]:
        return self._languages

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(self._languages)

    @property
    def n_languages(self) -> int:
        return len(self._languages)

    @property
    def all_diacritics(self) -> frozenset[str]:
        """Union of every language's diacritic set."""
        return self._all_diacritics

    def term_index(self, kind: str) -> Mapping[str, frozenset[str]]:
        """Read-only ``term -> languages listing it`` map of one namespace."""
        return MappingProxyType(self._index[kind])

    def fingerprint(self) -> str:
        """Stable hex digest of the full lexicon content."""
        digest = hashlib.sha256()
        for code in sorted(self._languages):
            lexicon = self._languages[code]
            for word in sorted(lexicon.stopwords):
                digest.update(f"{code}\t{STOPWORD}\t{word}\n".encode())
            for ch in sorted(lexicon.diacritics):
                digest.update(f"{code}\t{DIACRITIC}\t{ch}\n".encode())
        return digest.hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LexiconSet):
            return NotImplemented
        return self._languages == other._languages

    def __repr__(self) -> str:
        return f"LexiconSet({', '.join(self.codes)})"


def _entry(kind: str, term: str) -> str:
    """The canonical form of one dictionary entry of ``kind``.

    A stop word becomes its single :func:`~lexid.normalize._tokens`
    token and a diacritic its lowercased NFC letter; a term without such
    a form raises :class:`LexiconError`.
    """
    if kind == STOPWORD:
        tokens = _tokens(term)
        if len(tokens) != 1:
            raise LexiconError(f"stop word {term!r} is not a single word")
        return tokens[0]
    letter = unicodedata.normalize("NFC", term.lower())
    if len(letter) != 1:
        raise LexiconError(f"multi-character diacritic {term!r}")
    if not letter.isalpha():
        raise LexiconError(f"diacritic {term!r} is not a letter")
    return letter


#: Why :class:`LexiconSet` rejects an entry :func:`_entry` would change or reject.
_NOT_CANONICAL = {
    STOPWORD: "stop word {!r} is not a single normalized token",
    DIACRITIC: "diacritic {!r} is not a single letter in lowercase NFC",
}


def _is_canonical(kind: str, term: str) -> bool:
    try:
        return _entry(kind, term) == term
    except LexiconError:
        return False


def strip_diacritics(term: str) -> str:
    """Replace accented characters with their ASCII base spelling."""
    return "".join(FOLDING_TABLE.get(ch, ch) for ch in term)


def augment_with_stripped_variants(lex: LexiconSet) -> LexiconSet:
    """Add the accent-stripped variant of every stop word, per language.

    Diacritic sets are untouched.  Idempotent: augmenting an augmented
    lexicon returns an equal one.
    """
    languages = {
        code: LanguageLexicon(
            stopwords=lexicon.stopwords | {strip_diacritics(w) for w in lexicon.stopwords},
            diacritics=lexicon.diacritics,
        )
        for code, lexicon in lex.languages.items()
    }
    return LexiconSet(languages)


def validate_lexicon(lex: LexiconSet) -> list[Finding]:
    """Diagnose lexicon weaknesses without rejecting the lexicon.

    Error findings mark lexicons unusable for classification (fewer than
    two languages).  Warnings flag stop words shared by (almost) every
    language, accented characters used in stop words that no diacritic
    set lists, and languages with empty diacritic sets.
    """
    findings: list[Finding] = []
    n_langs = lex.n_languages
    if n_langs < 2:
        findings.append(
            Finding("error", f"only {n_langs} language(s); classification needs at least 2")
        )

    for term, codes in sorted(lex.term_index(STOPWORD).items()):
        if n_langs >= 2 and len(codes) >= n_langs - 1:
            message = f"stop word {term!r} appears in {len(codes)} of {n_langs} languages"
            findings.append(Finding("warning", message))

    accented_in_use = {
        ch
        for lexicon in lex.languages.values()
        for word in lexicon.stopwords
        for ch in word
        if ch in FOLDING_TABLE
    }
    for ch in sorted(accented_in_use - lex.all_diacritics):
        findings.append(
            Finding("warning", f"character {ch!r} appears in stop words but in no diacritic set")
        )

    for code, lexicon in lex.languages.items():
        if not lexicon.diacritics:
            findings.append(Finding("warning", f"language {code!r} has an empty diacritic set"))

    return findings


def load_lexicon(root: str | Path, warnings_to: list[Finding] | None = None) -> LexiconSet:
    """Load and validate a lexicon directory.

    Languages are read in sorted directory order.  Structural problems
    (missing files, lines that are not valid UTF-8, multi-word stop-word
    lines, multi-character diacritic lines, duplicate codes, no languages
    at all) raise :class:`LexiconError` with file and line context.
    Entries the loader had to normalize are logged and, when
    ``warnings_to`` is given, also appended to it as :class:`Finding`
    objects.
    """
    root = Path(root)
    if not root.is_dir():
        raise LexiconError(f"lexicon root {root} is not a directory")

    languages: dict[str, LanguageLexicon] = {}
    for lang_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        code = lang_dir.name.lower()
        if code in languages:
            raise LexiconError(f"duplicate language code {code!r} under {root}")
        stopwords_path = lang_dir / "stopwords.txt"
        diacritics_path = lang_dir / "diacritics.txt"
        for path in (stopwords_path, diacritics_path):
            if not path.is_file():
                raise LexiconError(f"missing lexicon file {path}")
        languages[code] = LanguageLexicon(
            stopwords=_read_entries(stopwords_path, STOPWORD, warnings_to),
            diacritics=_read_entries(diacritics_path, DIACRITIC, warnings_to),
        )

    if not languages:
        raise LexiconError(f"no language directories under {root}")
    return LexiconSet(languages)


def _warn(message: str, warnings_to: list[Finding] | None) -> None:
    logger.warning("%s", message)
    if warnings_to is not None:
        warnings_to.append(Finding("warning", message))


def _iter_terms(path: Path):
    """``(line number, term)`` of every entry line of a word-list file."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line_no = data.count(b"\n", 0, line_start) + 1
        raise LexiconError(
            f"{path}:{line_no}: invalid UTF-8 at byte {exc.start - line_start + 1}"
        ) from None
    for line_no, line in enumerate(text.split("\n"), 1):
        term = line.strip()
        if term and not term.startswith("#"):
            yield line_no, term


def _read_entries(path: Path, kind: str, warnings_to: list[Finding] | None) -> frozenset[str]:
    entries = set()
    for line_no, term in _iter_terms(path):
        try:
            entry = _entry(kind, term)
        except LexiconError as exc:
            raise LexiconError(f"{path}:{line_no}: {exc}") from None
        if entry != term:
            _warn(f"{path}:{line_no}: normalized {term!r} to {entry!r}", warnings_to)
        entries.add(entry)
    return frozenset(entries)


def save_lexicon(lex: LexiconSet, root: str | Path) -> None:
    """Write ``lex`` in the directory layout :func:`load_lexicon` reads.

    Entries are written sorted, so saving equal lexicons produces
    byte-identical trees.
    """
    root = Path(root)
    for code in lex.codes:
        lang_dir = root / code
        lang_dir.mkdir(parents=True, exist_ok=True)
        lexicon = lex.languages[code]
        (lang_dir / "stopwords.txt").write_text(
            "".join(f"{w}\n" for w in sorted(lexicon.stopwords)), encoding="utf-8"
        )
        (lang_dir / "diacritics.txt").write_text(
            "".join(f"{c}\n" for c in sorted(lexicon.diacritics)), encoding="utf-8"
        )


def demo_lexicon_dir() -> Path:
    """Directory of the small sample lexicon shipped with the package.

    The sample covers es/fr/it/pt/ro with roughly 40 stop words each and
    the built-in diacritic sets, which ``lexid dict show-builtin-diacritics``
    prints.  The Romanian set lists both the comma-below letters and their
    legacy cedilla spellings, because both occur in real-world text.  The
    sample demonstrates the lexicon format and keeps the test suite
    self-contained; real deployments should supply full stop-word lists
    (several hundred words per language).
    """
    return Path(__file__).resolve().parent / "data" / "demo"
