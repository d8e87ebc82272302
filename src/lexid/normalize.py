"""Text canonicalization for dictionary-based language scoring.

Raw UTF-8 text is reduced to lowercase, canonically composed (NFC) word
tokens that contain only Unicode letters.  Whitespace-separated chunks
that look like URLs are dropped whole, leading ``#``/``@`` sigils are
stripped, and every other non-letter character acts as a token
separator: digits, punctuation, symbols, ``_`` and non-letter numerics
such as ``²`` and ``½`` alike.  The result also carries character and
token occurrence counts so scoring can look up term frequencies in
constant time.

A URL chunk always contains ``://`` or ``www.``, so only a text holding
one of them has its URL chunks removed, with one substitution; every text
then goes through the same single letter-run ``findall``.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

# A URL chunk: at a whitespace boundary, any ``#``/``@`` sigils, then an
# RFC-3986 scheme or "www.", and the rest of the chunk up to whitespace.
# Removing one cannot join two letter runs, since whitespace or the text's
# edge stays on either side of it.
_URL_RE = re.compile(r"(?<!\S)[#@]*(?:[a-z][a-z0-9+.-]*://|www\.)\S*")
# A run of word characters that are neither decimal digits nor "_".  That
# class is every ``str.isalpha`` character plus non-letter numerics such
# as "²" and "½", which ``_tokens`` splits out again.
_LETTER_RUN_RE = re.compile(r"[^\W\d_]+")


@dataclass(frozen=True)
class NormalizedText:
    """Canonical form of one document.

    ``tokens`` keeps the original word order; ``char_freq`` counts every
    character over all tokens; ``token_freq`` counts whole tokens.
    Instances are immutable and safe to share across threads or
    processes; treat the count dicts as read-only.
    """

    tokens: tuple[str, ...]
    char_freq: dict[str, int]
    token_freq: dict[str, int]


def _tokens(raw: str) -> tuple[list[str], str]:
    """The letter tokens of ``raw`` in order, and their concatenation.

    These are steps 1-3 of :func:`normalize_text`.
    """
    lowered = unicodedata.normalize("NFC", raw.lower())
    if "://" in lowered or "www." in lowered:
        lowered = _URL_RE.sub("", lowered)
    tokens = _LETTER_RUN_RE.findall(lowered)
    joined = "".join(tokens)
    if joined.isalpha():
        return tokens, joined
    # Some run holds a non-letter numeric: split just those runs on it.
    letters: list[str] = []
    for run in tokens:
        if run.isalpha():
            letters.append(run)
        else:
            letters.extend(
                "".join(part) for is_alpha, part in groupby(run, str.isalpha) if is_alpha
            )
    return letters, "".join(letters)


def normalize_text(raw: str) -> NormalizedText:
    """Convert raw text into its canonical token representation.

    Processing steps, in order:

    1. lowercase, then compose to NFC so decomposed accents (base letter
       plus combining mark) compare equal to their single-codepoint form;
    2. drop every whitespace-separated chunk that, after leading
       ``#``/``@`` sigils, starts with a URL scheme (``scheme://``) or
       ``www.``, then collect the maximal runs of letters in what is left;
    3. split any run holding a non-letter numeric (``²``, ``½``, ...) on
       it, so that only letters remain: digits, ``_``, punctuation,
       symbols and the sigils themselves all separate tokens.

    Empty or all-noise input yields an empty ``NormalizedText``; this
    function never raises.
    """
    tokens, joined = _tokens(raw)
    return NormalizedText(
        tokens=tuple(tokens),
        char_freq=dict(Counter(joined)),
        token_freq=dict(Counter(tokens)),
    )
