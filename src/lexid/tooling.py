"""Lexicon curation: accent folding, augmentation, validation and saving.

Classification needs none of it: only ``lexid dict`` and the first use
of one of these names through the ``lexid`` package load this module.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .lexicon import Finding, LanguageLexicon, LexiconSet, _DICTIONARIES

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

    listed_by = Counter(w for lexicon in lex.languages.values() for w in lexicon.stopwords)
    for term, count in sorted(listed_by.items()):
        if count >= max(2, n_langs - 1):
            message = f"stop word {term!r} appears in {count} of {n_langs} languages"
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


def save_lexicon(lex: LexiconSet, root: str | Path) -> None:
    """Write ``lex`` in the directory layout :func:`~lexid.lexicon.load_lexicon` reads.

    Entries are written sorted, so saving equal lexicons produces
    byte-identical trees.
    """
    root = Path(root)
    for code, lexicon in lex.languages.items():
        lang_dir = root / code
        lang_dir.mkdir(parents=True, exist_ok=True)
        for name, terms in zip(_DICTIONARIES.values(), lexicon):
            lines = "".join(f"{term}\n" for term in sorted(terms))
            (lang_dir / name).write_text(lines, encoding="utf-8")
