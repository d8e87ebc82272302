"""Per-language scoring and classification.

Each language's score is a weighted sum of term frequencies over its two
dictionaries::

    score(text, lang) = p * sum_w tf(count(w)) * weight(w)
                      + (1 - p) * sum_d tf(count(d)) * weight(d)

where ``w`` ranges over the language's stop words, ``d`` over its
diacritic characters, and ``p`` in [0, 1] mixes the two kinds of
evidence.  ``tf`` is the raw occurrence count or its log-dampened form;
``weight`` rewards terms few languages share (``N/n`` where ``N`` is the
number of languages and ``n`` how many of them list the term).  All
logarithms are natural; because a base change only rescales every score
by the same positive constant, it can never change which language wins.

When the fallback flag is on and a text contains no diacritic known to
any language, scoring proceeds with ``p = 1`` (stop words only).  That
effective ``p`` is decided once per text so every language is scored on
the same scale.

Scoring visits only the dictionary terms the text contains: its cost is
proportional to the text's distinct tokens and characters and does not
depend on dictionary size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lexicon import DIACRITIC, STOPWORD, LexiconSet
from .normalize import NormalizedText

#: ``tf_mode`` -> term frequency of an occurrence count.
_TF = {"raw": float, "log": math.log1p}
#: ``weight_mode`` -> weight of a term listed by ``n`` of ``n_languages``.
_WEIGHT = {
    "unit": lambda n_languages, n: 1.0,
    "ratio": lambda n_languages, n: n_languages / n,
    "log_ratio": lambda n_languages, n: math.log1p(n_languages / n),
}
TF_MODES = tuple(_TF)
WEIGHT_MODES = tuple(_WEIGHT)

# Non-classification reasons.
NO_EVIDENCE = "no_evidence"
TIE = "tie"

# Scores tied within this relative tolerance count as equal.  Under the
# log modes a mathematically exact tie is computed from identical term
# multisets in different summation orders, so the comparison must absorb
# float noise without ever merging genuinely distinct scores.
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class ScoringConfig:
    """Knobs of the scoring function.

    ``p`` weighs stop-word evidence; diacritics get ``1 - p``.  With
    ``stopword_fallback`` on, a text containing no known diacritic is
    scored with an effective ``p`` of 1.
    """

    p: float
    tf_mode: str = "raw"
    weight_mode: str = "unit"
    stopword_fallback: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be within [0, 1], got {self.p}")
        if self.tf_mode not in TF_MODES:
            raise ValueError(f"tf_mode must be one of {TF_MODES}, got {self.tf_mode!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )


#: The nine stock configurations used throughout the docs and tests.
#: test1/test2 use diacritics only, test3/test4 stop words only,
#: test5..test8 mix both at p=1/2 or p=1/3 with and without ratio
#: weighting, and test9 log-dampens both the frequency and the weight.
PRESETS: dict[str, ScoringConfig] = {
    "test1": ScoringConfig(p=0.0, tf_mode="raw", weight_mode="unit", stopword_fallback=False),
    "test2": ScoringConfig(p=0.0, tf_mode="raw", weight_mode="ratio", stopword_fallback=False),
    "test3": ScoringConfig(p=1.0, tf_mode="raw", weight_mode="unit", stopword_fallback=True),
    "test4": ScoringConfig(p=1.0, tf_mode="raw", weight_mode="ratio", stopword_fallback=True),
    "test5": ScoringConfig(p=1 / 2, tf_mode="raw", weight_mode="unit", stopword_fallback=True),
    "test6": ScoringConfig(p=1 / 3, tf_mode="raw", weight_mode="unit", stopword_fallback=True),
    "test7": ScoringConfig(p=1 / 2, tf_mode="raw", weight_mode="ratio", stopword_fallback=True),
    "test8": ScoringConfig(p=1 / 3, tf_mode="raw", weight_mode="ratio", stopword_fallback=True),
    "test9": ScoringConfig(
        p=1 / 3, tf_mode="log", weight_mode="log_ratio", stopword_fallback=True
    ),
}


def preset_config(name: str) -> ScoringConfig:
    """Look up one of the nine stock configurations by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESETS)}"
        ) from None


@dataclass(frozen=True)
class Verdict:
    """Classification outcome: a language, or why none was chosen."""

    language: str | None
    reason: str | None = None


def _effective_p(nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig) -> float:
    if cfg.stopword_fallback and lex.all_diacritics.isdisjoint(nt.char_freq):
        return 1.0
    return cfg.p


def score_all(nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig) -> dict[str, float]:
    """Score every language, in lexicon order, with a shared effective p."""
    n_languages = lex.n_languages
    if n_languages < 2:
        raise ValueError("classification requires at least 2 languages")
    p = _effective_p(nt, lex, cfg)
    tf = _TF[cfg.tf_mode]
    weight = _WEIGHT[cfg.weight_mode]
    # Every language adds its matched terms in sorted term order starting
    # from 0.0, so each sum is reproducible across processes and runs.
    totals = []
    for kind, freq in ((STOPWORD, nt.token_freq), (DIACRITIC, nt.char_freq)):
        index = lex.term_index(kind)
        total = dict.fromkeys(lex.codes, 0.0)
        for term in sorted(index.keys() & freq.keys()):
            codes = index[term]
            value = tf(freq[term]) * weight(n_languages, len(codes))
            for code in codes:
                total[code] += value
        totals.append(total)
    stop, dia = totals
    return {code: p * stop[code] + (1.0 - p) * dia[code] for code in lex.codes}


def classify(
    nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig
) -> tuple[Verdict, dict[str, float]]:
    """Pick the strict maximum-score language, or explain why there is none.

    An all-zero score vector yields ``no_evidence``; a maximum shared by
    two or more languages (within ``TIE_REL_TOL`` relative) yields
    ``tie``.
    """
    scores = score_all(nt, lex, cfg)
    best = max(scores.values())
    if best <= 0.0:
        return Verdict(None, NO_EVIDENCE), scores
    top = [
        code
        for code, value in scores.items()
        if math.isclose(value, best, rel_tol=TIE_REL_TOL, abs_tol=0.0)
    ]
    if len(top) > 1:
        return Verdict(None, TIE), scores
    return Verdict(top[0]), scores
