"""Text canonicalization for dictionary-based language scoring.

Raw UTF-8 text is reduced to lowercase, canonically composed (NFC) word
tokens that contain only Unicode letters.  Chunks that look like URLs
are dropped whole; a chunk ends at whitespace or at U+FEFF, the
byte-order mark that concatenated files can leave mid-text.  Leading
``#``/``@`` sigils are stripped, and every other non-letter character
acts as a token separator: digits, punctuation, symbols, ``_`` and
non-letter numerics such as ``²`` and ``½`` alike.  The result also carries character and
token occurrence counts so scoring can look up term frequencies in
constant time.  A :class:`NormalizedText` is a named tuple.

A URL chunk always contains ``://`` or ``www.``, so only a text holding
one of them has its URL chunks removed, with one substitution; every text
then goes through the same single letter-run ``findall``.

``lexid evaluate`` and ``lexid detect`` build no :class:`NormalizedText`:
:func:`_term_counts` counts a text's tokens and only the lexicon's
diacritics, one whitespace-cut chunk of about 64 Ki characters at a
time, so its memory is bounded by one chunk plus the distinct terms.
Only a text with no whitespace to cut at is held whole.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter, _count_elements, namedtuple
from itertools import groupby

# A URL chunk: after whitespace, U+FEFF or the text's start, any ``#``/``@``
# sigils, then an RFC-3986 scheme or "www.", and the rest of the chunk up to
# whitespace or U+FEFF.  Removing one cannot join two letter runs, since one
# of those separators or the text's edge stays on either side of it.
_URL_RE = re.compile(r"(?<![^\s\ufeff])[#@]*(?:[a-z][a-z0-9+.-]*://|www\.)[^\s\ufeff]*")
# A run of word characters that are neither decimal digits nor "_".  That
# class is every ``str.isalpha`` character plus non-letter numerics such
# as "²" and "½", which ``_tokens`` splits out again.
_LETTER_RUN_RE = re.compile(r"[^\W\d_]+")
# ``_term_counts`` cuts a text longer than this many characters into chunks.
_CHUNK = 1 << 16
_SPACE_RE = re.compile(r"\s")


class NormalizedText(namedtuple("NormalizedText", "tokens char_freq token_freq")):
    """Canonical form of one document.

    ``tokens`` (``tuple[str, ...]``) keeps the original word order;
    ``char_freq`` (``dict[str, int]``) counts every character over all
    tokens; ``token_freq`` (``dict[str, int]``) counts whole tokens.
    Instances are immutable and safe to share across threads or
    processes; treat the count dicts as read-only.
    """

    __slots__ = ()


def _lowered(raw: str) -> str:
    """``raw`` lowercased and NFC-composed, with its URL chunks removed.

    These are steps 1-2 of :func:`normalize_text`, short of collecting
    the letter runs.
    """
    lowered = unicodedata.normalize("NFC", raw.lower())
    if "://" in lowered or "www." in lowered:
        lowered = _URL_RE.sub("", lowered)
    return lowered


def _letter_parts(run: str):
    """The letter tokens of a letter run that holds a non-letter numeric."""
    return ("".join(part) for is_alpha, part in groupby(run, str.isalpha) if is_alpha)


def _tokens(raw: str) -> tuple[list[str], str]:
    """The letter tokens of ``raw`` in order, and their concatenation.

    These are steps 1-3 of :func:`normalize_text`.
    """
    tokens = _LETTER_RUN_RE.findall(_lowered(raw))
    joined = "".join(tokens)
    if joined.isalpha():
        return tokens, joined
    # Some run holds a non-letter numeric: split just those runs on it.
    letters: list[str] = []
    for run in tokens:
        if run.isalpha():
            letters.append(run)
        else:
            letters.extend(_letter_parts(run))
    return letters, "".join(letters)


def normalize_text(raw: str) -> NormalizedText:
    """Convert raw text into its canonical token representation.

    Processing steps, in order:

    1. lowercase, then compose to NFC so decomposed accents (base letter
       plus combining mark) compare equal to their single-codepoint form;
    2. drop every chunk, bounded by whitespace or U+FEFF, that after
       leading ``#``/``@`` sigils starts with a URL scheme
       (``scheme://``) or ``www.``, then collect the maximal runs of
       letters in what is left;
    3. split any run holding a non-letter numeric (``²``, ``½``, ...) on
       it, so that only letters remain: digits, ``_``, punctuation,
       symbols and the sigils themselves all separate tokens.

    Empty or all-noise input yields an empty ``NormalizedText``; this
    function never raises.
    """
    tokens, joined = _tokens(raw)
    return NormalizedText(tuple(tokens), dict(Counter(joined)), dict(Counter(tokens)))


def _chunks(raw: str):
    """``raw`` cut right after whitespace into pieces of about ``_CHUNK`` characters.

    No token, URL chunk, canonical composition or final-sigma context
    spans whitespace, so the pieces normalize independently.  A text of
    at most ``_CHUNK`` characters, or one with no whitespace after that
    point, stays whole.
    """
    start = 0
    while len(raw) - start > _CHUNK:
        cut = _SPACE_RE.search(raw, start + _CHUNK)
        if cut is None:
            break
        yield raw[start : cut.end()]
        start = cut.end()
    yield raw[start:]


def _term_counts(raw: str, diacritics: re.Pattern) -> tuple[dict[str, int], dict[str, int]]:
    """The token counts of ``raw``, and the counts of the letters ``diacritics`` matches.

    They equal the ``token_freq`` of ``normalize_text(raw)`` and its
    ``char_freq`` at those letters, as plain dicts: every letter of the
    lowered, URL-stripped text lies in some token, so ``diacritics``, a
    class of letters, counts on that text directly.  Only one chunk of
    the text is held in lowered form at a time.
    """
    # ``_count_elements`` is the C loop ``Counter.update`` runs, without
    # the cost of building and updating ``Counter`` objects.
    runs: dict[str, int] = {}
    chars: dict[str, int] = {}
    for chunk in _chunks(raw) if len(raw) > _CHUNK else (raw,):
        lowered = _lowered(chunk)
        _count_elements(runs, _LETTER_RUN_RE.findall(lowered))
        _count_elements(chars, diacritics.findall(lowered))
    if "".join(runs).isalpha():
        return runs, chars
    # Some run holds a non-letter numeric: split just those runs on it.
    tokens: dict[str, int] = {}
    for run, count in runs.items():
        for token in (run,) if run.isalpha() else _letter_parts(run):
            tokens[token] = tokens.get(token, 0) + count
    return tokens, chars
