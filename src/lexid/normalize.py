"""Text canonicalization for dictionary-based language scoring.

Raw UTF-8 text is reduced to lowercase, canonically composed (NFC) word
tokens that contain only Unicode letters.  URL-like chunks are dropped
whole, leading ``#``/``@`` sigils are stripped, and every other
non-letter character acts as a token separator.  The result also carries
character and token occurrence counts so scoring can look up term
frequencies in constant time.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

# A chunk is URL-like when it starts with an RFC-3986 scheme or "www."
_URL_RE = re.compile(r"^(?:[a-z][a-z0-9+.-]*://|www\.)")


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


def _letter_runs(chunk: str):
    """Yield maximal runs of Unicode letters within ``chunk``."""
    for is_alpha, run in groupby(chunk, key=str.isalpha):
        if is_alpha:
            yield "".join(run)


def normalize_text(raw: str) -> NormalizedText:
    """Convert raw text into its canonical token representation.

    Processing steps, in order:

    1. lowercase, then compose to NFC so decomposed accents (base letter
       plus combining mark) compare equal to their single-codepoint form;
    2. split on whitespace, strip leading ``#``/``@`` from each chunk and
       drop chunks that look like URLs (``scheme://...`` or ``www.``);
    3. split the surviving chunks into runs of letters; digits,
       punctuation and symbols act as separators.

    Empty or all-noise input yields an empty ``NormalizedText``; this
    function never raises.
    """
    lowered = unicodedata.normalize("NFC", raw.lower())
    tokens: list[str] = []
    for chunk in lowered.split():
        chunk = chunk.lstrip("#@")
        if not chunk or _URL_RE.match(chunk):
            continue
        tokens.extend(_letter_runs(chunk))

    char_freq: Counter[str] = Counter()
    for token in tokens:
        char_freq.update(token)
    return NormalizedText(
        tokens=tuple(tokens),
        char_freq=dict(char_freq),
        token_freq=dict(Counter(tokens)),
        raw_length=len(raw),
    )

