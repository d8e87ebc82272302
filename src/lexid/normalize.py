"""Text canonicalization for dictionary-based language scoring.

Raw UTF-8 text is reduced to lowercase, canonically composed (NFC) word
tokens that contain only Unicode letters, in one regular-expression pass
over the whole text.  Whitespace-separated chunks that look like URLs
are dropped whole, leading ``#``/``@`` sigils are stripped, and every
other non-letter character acts as a token separator: digits,
punctuation, symbols, ``_`` and non-letter numerics such as ``²`` and
``½`` alike.  The result also carries character and token occurrence
counts so scoring can look up term frequencies in constant time.

A URL chunk always contains ``://`` or ``www.``, so a text holding
neither (most tweets and almost every article) is tokenized with the
letter-run pattern alone; that pass finds the same runs as the full
pattern, whose URL alternative could never match there.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

# Tried in this order at every position of the lowered text:
#   1. a URL chunk: at a whitespace boundary, any ``#``/``@`` sigils,
#      then an RFC-3986 scheme or "www."; it consumes the rest of the
#      chunk and captures nothing;
#   2. a captured run of word characters that are neither decimal
#      digits nor "_".  That class is every ``str.isalpha`` character
#      plus non-letter numerics such as "²" and "½", which
#      ``_tokens`` splits out again.
_TOKEN_RE = re.compile(r"(?<!\S)[#@]*(?:[a-z][a-z0-9+.-]*://|www\.)\S*|([^\W\d_]+)")
# Alternative 2 alone, for texts that hold no URL marker.
_LETTER_RUN_RE = re.compile(r"[^\W\d_]+")


@dataclass(frozen=True)
class NormalizedText:
    """Canonical form of one document.

    ``tokens`` keeps the original word order; ``char_freq`` counts every
    character over all tokens; ``token_freq`` counts whole tokens.
    ``raw_length`` is the character count of the unprocessed input and is
    kept for diagnostics only.  Instances are immutable and safe to share
    across threads or processes; treat the count dicts as read-only.
    """

    tokens: tuple[str, ...]
    char_freq: dict[str, int]
    token_freq: dict[str, int]
    # Diagnostics only; texts that normalize identically compare equal
    # even when their raw lengths differ.
    raw_length: int = field(compare=False)


def _tokens(raw: str) -> tuple[list[str], str]:
    """The letter tokens of ``raw`` in order, and their concatenation.

    These are steps 1-3 of :func:`normalize_text`.
    """
    lowered = unicodedata.normalize("NFC", raw.lower())
    if "://" in lowered or "www." in lowered:
        tokens = [run for run in _TOKEN_RE.findall(lowered) if run]
    else:
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
    2. in one left-to-right pass, drop every whitespace-separated chunk
       that, after leading ``#``/``@`` sigils, starts with a URL scheme
       (``scheme://``) or ``www.``, and collect the maximal runs of
       letters everywhere else;
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
        raw_length=len(raw),
    )
