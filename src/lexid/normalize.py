"""Text canonicalization for dictionary-based language scoring.

Raw UTF-8 text is reduced to lowercase, canonically composed (NFC) word
tokens that contain only Unicode letters.  Chunks that look like URLs
are dropped whole; a chunk ends at whitespace or at U+FEFF, the
byte-order mark that concatenated files can leave mid-text.  Leading
``#``/``@`` sigils are stripped, and every other non-letter character
acts as a token separator: digits, punctuation, symbols, ``_`` and
non-letter numerics such as ``²`` and ``½`` alike.  The result also
carries character and token occurrence counts so scoring can look up
term frequencies in constant time.  A :class:`NormalizedText` is a
named tuple.

A URL chunk always contains ``://`` or ``www.``, so only a text holding
one of them has its URL chunks removed, with one substitution.
:func:`_tokens`, the one definition of a token, then turns every ASCII
non-letter into a space with one byte-table ``translate`` of the UTF-8
form and splits on whitespace, all in C.  Only the words that still hold
a non-ASCII non-letter (``’``, ``«``, an emoji, ``²``) are cut again, by
a letter-run ``findall`` on each.

``lexid evaluate`` and ``lexid detect`` build no :class:`NormalizedText`:
:func:`_term_counts` runs :func:`_tokens` on one whitespace-cut chunk of
about 64 Ki characters at a time, so its memory is bounded by one chunk
plus the distinct terms; only a text with no whitespace to cut at is
held whole.  It counts each chunk's tokens, and the lexicon's diacritics
in their concatenation, which chunk after chunk is the string
``normalize_text`` counts, so both paths count alike by construction.
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
# A ``bytes.translate`` table that turns every ASCII non-letter into a space
# and keeps every other byte, so the bytes of a multi-byte UTF-8 character,
# all 0x80 or above, pass through whole.
_ASCII_NON_LETTER_TO_SPACE = bytes(
    b if b >= 0x80 or chr(b).isalpha() else 0x20 for b in range(256)
)
# A run of word characters that are neither decimal digits nor "_".  That
# class is every ``str.isalpha`` character plus non-letter numerics such
# as "²" and "½", which ``_tokens`` splits out again.  Only words that
# hold a non-ASCII non-letter are searched with it.
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


def _tokens(raw: str) -> tuple[list[str], str]:
    """The letter tokens of ``raw`` in order, and their concatenation.

    These are steps 1-3 of :func:`normalize_text`; the lexicon loader
    and :func:`_term_counts` take their tokens from here too.  A token
    is a maximal run of ``str.isalpha`` characters.  Turning the ASCII
    non-letters into spaces and splitting on whitespace cuts only at
    non-letters, so each word is a token unless it holds a non-ASCII
    non-letter; ``surrogatepass`` carries lone surrogates through the
    byte round trip unchanged.
    """
    text = unicodedata.normalize("NFC", raw.lower())
    if "://" in text or "www." in text:
        text = _URL_RE.sub("", text)
    # Rebinding ``text`` frees the unspaced copy before the split.
    text = (
        text.encode("utf-8", "surrogatepass")
        .translate(_ASCII_NON_LETTER_TO_SPACE)
        .decode("utf-8", "surrogatepass")
    )
    words = text.split()
    joined = "".join(words)
    if joined.isalpha():
        return words, joined
    # Some word holds a non-ASCII non-letter: cut just those words into
    # letter runs, and split a run holding a non-letter numeric on it.
    letters: list[str] = []
    for word in words:
        if word.isalpha():
            letters.append(word)
            continue
        for run in _LETTER_RUN_RE.findall(word):
            if run.isalpha():
                letters.append(run)
            else:
                parts = groupby(run, str.isalpha)
                letters.extend("".join(part) for is_alpha, part in parts if is_alpha)
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
    # A ``Counter`` counts a long text's characters faster than a plain dict.
    token_freq: dict[str, int] = {}
    _count_elements(token_freq, tokens)
    return NormalizedText(tuple(tokens), dict(Counter(joined)), token_freq)


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
    """The counts of ``raw``'s tokens, and of the letters ``diacritics`` matches in them.

    They are ``normalize_text(raw).token_freq`` and its ``char_freq`` at
    those letters, as plain dicts, by construction: the chunks' tokens
    from :func:`_tokens`, in order, are the text's tokens, and their
    concatenations, in order, are the string ``char_freq`` counts.  Only
    one chunk of the text is held in normalized form at a time.
    """
    # ``_count_elements`` is the C loop ``Counter.update`` runs, without
    # the cost of building and updating ``Counter`` objects.
    tokens: dict[str, int] = {}
    chars: dict[str, int] = {}
    for chunk in _chunks(raw) if len(raw) > _CHUNK else (raw,):
        chunk_tokens, joined = _tokens(chunk)
        _count_elements(tokens, chunk_tokens)
        _count_elements(chars, diacritics.findall(joined))
        # Free this chunk's tokens before the next chunk is tokenized.
        del chunk_tokens, joined
    return tokens, chars
