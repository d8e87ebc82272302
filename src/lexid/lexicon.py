r"""Per-language stop-word and diacritic dictionaries: their file format and term index.

A :class:`LexiconSet` bundles one :class:`LanguageLexicon` per language
together with a cross-language term index: for every term it records
the positions of the languages listing it, which is what the scoring in
:mod:`lexid.scoring` consumes.  Stop words and diacritics live in
separate index namespaces, so a one-letter stop word such as ``y`` never
collides with a diacritic character.

On disk a lexicon is a directory with one subdirectory per language.
Every reader and writer takes each dictionary's namespace and file
name, in :class:`LanguageLexicon` field order, from ``_DICTIONARIES``::

    <root>/<lang>/stopwords.txt     one word per line
    <root>/<lang>/diacritics.txt    one character per line

Files are UTF-8, and lines end at ``\n``; as in a corpus, a run of
byte-order marks at the start of any line is ignored, surrounding
whitespace is trimmed, and blank lines and lines starting with ``#`` are
ignored.  A stop word is one normalized token
(:func:`lexid.normalize.normalize_text`) and a diacritic one letter;
both are lowercase and canonically composed (NFC).  :func:`_entry` is
the one normalizer of an entry and :func:`_all_canonical` the one check
of that form.  :func:`_read_entries`, the one word-list reader, checks a
file in bulk and walks only a file that fails, to normalize its entries
and warn about each it changed; :class:`LexiconSet` rejects a set that
fails, naming its least bad term.  The shipped ``data/demo`` lexicon
holds the built-in diacritic sets of the five supported languages.  The
tools that curate lexicons (accent folding, augmentation, validation,
saving) are in :mod:`lexid.tooling`.
"""

from __future__ import annotations

import os
import re
import unicodedata
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .normalize import _tokens

# Term-index namespaces.
STOPWORD = "stopword"
DIACRITIC = "diacritic"

#: Each dictionary's namespace and file name, in :class:`LanguageLexicon` field order.
_DICTIONARIES = {STOPWORD: "stopwords.txt", DIACRITIC: "diacritics.txt"}

# Labels for texts no language won; no language may use them as its code.
#: Predicted-label bucket of an evaluation report.
UNCLASSIFIED = "unclassified"
#: Printed by ``lexid detect`` (ISO 639 "undetermined").
UNDETERMINED = "und"


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
    :class:`LexiconSet`, which makes each field a frozenset and checks it.
    """

    __slots__ = ()


class LexiconSet:
    """An ordered set of language lexicons plus the cross-language index.

    Language codes must be non-empty lowercase UTF-8 text without
    surrounding whitespace, each one directory name (no ``/`` or NUL,
    not ``.`` or ``..``) so that saving and loading reproduces it, and
    may not be :data:`UNCLASSIFIED` or :data:`UNDETERMINED`, the labels
    of texts no language won.  Each language's two sets are checked in
    bulk, in ``_DICTIONARIES`` order; only a set that fails is walked, to
    name its least bad term, the same one under any hash seed.  The
    private ``_index`` maps each term of a namespace to the ascending
    positions, in :attr:`codes`, of the languages listing it; it is the
    only cross-language view.
    Immutable after construction, save what is stored on first use: the
    digest :meth:`fingerprint`, the diacritic pattern the raw-text path
    compiles, and the compiled functions of the last 16 configs it has
    scored with (``scoring._KEPT_CONFIGS``), about 1.5 KB each, which
    :mod:`lexid.scoring` fills; a pickled copy holds none.  Safe to
    share between any number of concurrent scorers.
    """

    def __init__(self, languages: Mapping[str, LanguageLexicon]):
        if not languages:
            raise LexiconError("lexicon contains no languages")
        self._languages: dict[str, LanguageLexicon] = {}
        index: dict[str, dict[str, tuple[int, ...]]] = {kind: {} for kind in _DICTIONARIES}
        for position, (code, lexicon) in enumerate(languages.items()):
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
            # Frozensets, so that the bulk check and the walk see the same terms.
            lexicon = self._languages[code] = LanguageLexicon._make(map(frozenset, lexicon))
            own = (position,)
            for kind, terms in zip(_DICTIONARIES, lexicon):
                if not _all_canonical(kind, terms):
                    bad = min(term for term in terms if not _all_canonical(kind, (term,)))
                    message = _NOT_CANONICAL[kind].format(bad)
                    raise LexiconError(f"language {code!r}: {message}")
                kind_index = index[kind]
                # Languages are walked in order, so each tuple stays ascending.
                for term in terms:
                    kind_index[term] = kind_index.get(term, ()) + own
        self._codes = tuple(self._languages)
        self._index = index
        self._all_diacritics = frozenset(index[DIACRITIC])
        self._fingerprint: str | None = None
        self._scorers: dict = {}  # recent config -> compiled function; see lexid.scoring._compiled

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
                for kind, terms in zip(_DICTIONARIES, self._languages[code]):
                    for term in sorted(terms):
                        digest.update(f"{code}\t{kind}\t{term}\n".encode())
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


def _all_canonical(kind: str, terms) -> bool:
    r"""Whether every term is its own :func:`_entry` of ``kind``, in a few whole-list passes.

    A term is its own entry exactly when it is all letters, one letter
    for a diacritic, and equal to its lowercased NFC form.  Once the
    joined terms are all letters, no term holds a ``\n``; and a ``\n``
    neither composes nor is cased or case-ignorable, so lowering and
    composing the ``\n``-joined lines at once equals doing it term by term.
    """
    letters = "".join(terms)
    if "" in terms or not letters.isalpha() or (kind == DIACRITIC and len(letters) != len(terms)):
        return not terms
    lines = "\n".join(terms)
    return unicodedata.normalize("NFC", lines.lower()) == lines


def load_lexicon(root: str | Path, warnings_to: list[Finding] | None = None) -> LexiconSet:
    """Load and validate a lexicon directory.

    Languages are read in sorted directory order.  Structural problems
    (missing files, lines that are not valid UTF-8, multi-word stop-word
    lines, multi-character diacritic lines, duplicate or reserved codes,
    codes with surrounding whitespace, no languages at all) raise
    :class:`LexiconError` with file and line context.  Each file is read
    once and checked in bulk; only a file that fails is walked line by
    line, to name the lines to normalize or reject.
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
        paths = {kind: lang_dir / name for kind, name in _DICTIONARIES.items()}
        for path in paths.values():
            if not path.is_file():
                raise LexiconError(f"missing lexicon file {path}")
        entries = (_read_entries(path, kind, warnings_to) for kind, path in paths.items())
        languages[code] = LanguageLexicon._make(entries)

    if not languages:
        raise LexiconError(f"no language directories under {root}")
    try:
        return LexiconSet(languages)
    except LexiconError as exc:
        raise LexiconError(f"{root}: {exc}") from None


#: ``logging.basicConfig`` arguments that :func:`_warn` applies once,
#: before its first record; ``lexid.cli.main`` sets them while it runs.
_log_config: dict | None = None


def _warn(message: str, warnings_to: list[Finding] | None = None, logger: str = __name__) -> None:
    """Log ``message`` as a warning of ``logger``, importing :mod:`logging` on first use."""
    global _log_config
    import logging

    if _log_config is not None:
        logging.basicConfig(**_log_config)
        _log_config = None
    logging.getLogger(logger).warning("%s", message)
    if warnings_to is not None:
        warnings_to.append(Finding("warning", message))


def _read_text(path: Path) -> str:
    """The text of a word-list file, without the run of byte-order marks at the start of any line.

    Decoding first keeps an invalid byte's offset counting the marks' bytes, as in a corpus.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line_no = data.count(b"\n", 0, line_start) + 1
        raise LexiconError(
            f"{path}:{line_no}: invalid UTF-8 at byte {exc.start - line_start + 1}"
        ) from None
    # One pass; a replace per mark would copy the text once per mark of a run.
    return "\n".join(part.lstrip("\ufeff") for part in text.split("\n\ufeff"))


def _read_entries(path: Path, kind: str, warnings_to: list[Finding] | None = None) -> list[str]:
    """The :func:`_entry` of each entry line, in file order; errors and warnings name path:line.

    Only a file that fails the bulk check is walked line by line, and
    :func:`_entry` runs only on a line that fails it alone, which it changes or rejects.
    """
    text = _read_text(path)
    terms = filter(None, map(str.strip, text.split("\n")))
    terms = [term for term in terms if term[0] != "#"] if "#" in text else list(terms)
    if _all_canonical(kind, terms):
        return terms
    entries = []
    for line_no, line in enumerate(text.split("\n"), 1):
        term = line.strip()
        if not term or term[0] == "#":
            continue
        if not _all_canonical(kind, (term,)):
            try:
                entry = _entry(kind, term)
            except LexiconError as exc:
                raise LexiconError(f"{path}:{line_no}: {exc}") from None
            _warn(f"{path}:{line_no}: normalized {term!r} to {entry!r}", warnings_to)
            term = entry
        entries.append(term)
    return entries


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
