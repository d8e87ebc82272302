"""Per-language stop-word and diacritic dictionaries.

A :class:`LexiconSet` bundles one :class:`LanguageLexicon` per language
together with a cross-language term index: for every term it records
the positions of the languages listing it, which is what the scoring in
:mod:`lexid.scoring` consumes.  Stop words and diacritics live in
separate index namespaces, so a one-letter stop word such as ``y`` never
collides with a diacritic character.

On disk a lexicon is a directory with one subdirectory per language::

    <root>/<lang>/stopwords.txt     one word per line
    <root>/<lang>/diacritics.txt    one character per line

Files are UTF-8, and lines end at ``\n``; a leading byte-order mark is
ignored, surrounding whitespace is trimmed, and blank lines and lines
starting with ``#`` are ignored.  A stop word is one normalized token
(:func:`lexid.normalize.normalize_text`) and a diacritic one letter;
both are lowercase and canonically composed (NFC).  The loader
normalizes each entry itself and warns about any it had to change;
:class:`LexiconSet` accepts only entries already in that form.  The
shipped ``data/demo`` lexicon holds the built-in diacritic sets of the
five supported languages.
"""

from __future__ import annotations

import logging
import os
import re
import unicodedata
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .normalize import _tokens

logger = logging.getLogger(__name__)

# Term-index namespaces.
STOPWORD = "stopword"
DIACRITIC = "diacritic"

# Labels for texts no language won; no language may use them as its code.
#: Predicted-label bucket of an evaluation report.
UNCLASSIFIED = "unclassified"
#: Printed by ``lexid detect`` (ISO 639 "undetermined").
UNDETERMINED = "und"

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


class Finding(namedtuple("Finding", "severity message")):
    """One diagnostic produced by lexicon loading or validation.

    ``severity`` is ``"error"`` or ``"warning"``.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


class LanguageLexicon(namedtuple("LanguageLexicon", "stopwords diacritics")):
    """Stop words and diacritics of a single language.

    Both fields are ``frozenset[str]``.  Stop words must be single,
    lowercase, NFC-composed word tokens; diacritics must be single
    lowercase, NFC-composed letters.  Construct through
    :class:`LexiconSet`, which enforces both.
    """

    __slots__ = ()


class LexiconSet:
    """An ordered set of language lexicons plus the cross-language index.

    Language codes must be non-empty lowercase UTF-8 text without
    surrounding whitespace, each one directory name (no ``/`` or NUL,
    not ``.`` or ``..``) so that saving and loading reproduces it, and
    may not be :data:`UNCLASSIFIED` or :data:`UNDETERMINED`, the labels
    of texts no language won.  The private ``_index`` maps each term of a namespace
    to the ascending positions, in :attr:`codes`, of the languages
    listing it; it is the only cross-language view.
    Immutable after construction, save what is stored on first use: the
    digest :meth:`fingerprint`, the diacritic pattern the raw-text path
    compiles, and one compiled function per config it has scored with,
    about 1.5 KB each, which :mod:`lexid.scoring` fills; a pickled copy
    holds none.  Safe to share between any number of concurrent scorers.
    """

    def __init__(self, languages: Mapping[str, LanguageLexicon]):
        if not languages:
            raise LexiconError("lexicon contains no languages")
        self._languages = dict(languages)
        self._codes = tuple(self._languages)
        index: dict[str, dict[str, tuple[int, ...]]] = {STOPWORD: {}, DIACRITIC: {}}
        for position, (code, lexicon) in enumerate(self._languages.items()):
            if not code:
                raise LexiconError("empty language code")
            if code in (UNCLASSIFIED, UNDETERMINED):
                raise LexiconError(f"language code {code!r} is reserved")
            if code != code.strip():
                raise LexiconError(f"language code {code!r} has surrounding whitespace")
            if code != code.lower():
                raise LexiconError(f"language code {code!r} is not lowercase")
            if "/" in code or os.sep in code or "\x00" in code or code in (".", ".."):
                raise LexiconError(f"language code {code!r} is not a single directory name")
            try:
                code.encode("utf-8")
            except UnicodeEncodeError:
                raise LexiconError(f"language code {code!r} is not UTF-8 text") from None
            own = (position,)
            for kind, terms in ((STOPWORD, lexicon.stopwords), (DIACRITIC, lexicon.diacritics)):
                kind_index = index[kind]
                for term in terms:
                    if not _is_canonical(kind, term):
                        message = _NOT_CANONICAL[kind].format(term)
                        raise LexiconError(f"language {code!r}: {message}")
                    # Languages are walked in order, so each tuple stays ascending.
                    positions = kind_index.get(term)
                    kind_index[term] = own if positions is None else positions + own
        self._index = index
        self._all_diacritics = frozenset(index[DIACRITIC])
        self._fingerprint: str | None = None
        self._scorers: dict = {}  # config -> compiled function; filled by lexid.scoring._compiled

    @property
    def languages(self) -> Mapping[str, LanguageLexicon]:
        """Read-only ``code -> LanguageLexicon`` map, in lexicon order."""
        return MappingProxyType(self._languages)

    @property
    def codes(self) -> tuple[str, ...]:
        return self._codes

    @property
    def n_languages(self) -> int:
        return len(self._codes)

    @property
    def all_diacritics(self) -> frozenset[str]:
        """Union of every language's diacritic set."""
        return self._all_diacritics

    def fingerprint(self) -> str:
        """Stable hex digest of the full lexicon content, computed on first use."""
        if self._fingerprint is None:
            import hashlib  # loads OpenSSL; only evaluation reports need the digest

            digest = hashlib.sha256()
            for code in sorted(self._languages):
                lexicon = self._languages[code]
                for word in sorted(lexicon.stopwords):
                    digest.update(f"{code}\t{STOPWORD}\t{word}\n".encode())
                for ch in sorted(lexicon.diacritics):
                    digest.update(f"{code}\t{DIACRITIC}\t{ch}\n".encode())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    @cached_property
    def _diacritic_re(self) -> re.Pattern:
        """A pattern matching any one diacritic of any language, compiled on first use.

        Only the raw-text path counts with it.  :func:`~lexid.scoring.classify`
        never builds it, so a program that loads a lexicon and classifies
        one normalized text, as ``bench/run.py`` times in ``setup_s``,
        does not pay for it.
        """
        letters = "".join(map(re.escape, sorted(self._all_diacritics)))
        return re.compile(f"[{letters}]" if letters else "(?!)")

    def __getstate__(self) -> dict:
        # Compiled functions are closures, which cannot be pickled; a copy compiles its own.
        return {**self.__dict__, "_scorers": {}}

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
    if _is_canonical(kind, term):
        return term
    if kind == STOPWORD:
        tokens, _ = _tokens(term)
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
    """Whether ``term`` is already its own :func:`_entry` of ``kind``."""
    return (
        term.isalpha()
        and (kind == STOPWORD or len(term) == 1)
        and unicodedata.normalize("NFC", term.lower()) == term
    )


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
    two languages).  Warnings flag stop words listed by at least two
    languages and all but at most one, accented characters used in stop
    words that no diacritic set lists, and languages with empty
    diacritic sets.
    """
    findings: list[Finding] = []
    n_langs = lex.n_languages
    if n_langs < 2:
        findings.append(
            Finding("error", f"only {n_langs} language(s); classification needs at least 2")
        )

    for term, positions in sorted(lex._index[STOPWORD].items()):
        if len(positions) >= max(2, n_langs - 1):
            message = f"stop word {term!r} appears in {len(positions)} of {n_langs} languages"
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
    lines, multi-character diacritic lines, duplicate or reserved codes,
    codes with surrounding whitespace, no languages at all) raise
    :class:`LexiconError` with file and line context.
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
    try:
        return LexiconSet(languages)
    except LexiconError as exc:
        raise LexiconError(f"{root}: {exc}") from None


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
    for line_no, line in enumerate(text.removeprefix("\ufeff").split("\n"), 1):
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
