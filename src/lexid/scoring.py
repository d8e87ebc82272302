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
the same scale; it fires when the kernel matches no diacritic term.

Scoring visits only the dictionary terms the text contains: its cost is
proportional to the text's distinct tokens and characters and does not
depend on dictionary size.  The lexicon maps each term to the positions
of the languages listing it; one kernel adds each matched term into lists
indexed by position and returns the scores as a list in lexicon order,
which :func:`classify` picks its verdict on.  Each weight is computed
once per (weight mode, language count) and then read from a table
indexed by ``n``.  :class:`ScoringConfig` and :class:`Verdict` are named
tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .lexicon import DIACRITIC, STOPWORD, LexiconError, LexiconSet
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


@lru_cache(maxsize=64)
def _weights(weight_mode: str, n_languages: int) -> tuple[float, ...]:
    """Weight of a term listed by ``n`` of ``n_languages``, at index ``n``.

    No term is listed by 0 languages, so index 0 holds NaN.
    """
    weight = _WEIGHT[weight_mode]
    return (math.nan, *(weight(n_languages, n) for n in range(1, n_languages + 1)))


# Non-classification reasons.
NO_EVIDENCE = "no_evidence"
TIE = "tie"

# Scores tied within this relative tolerance count as equal.  Under the
# log modes a mathematically exact tie is computed from identical term
# multisets in different summation orders, so the comparison must absorb
# float noise without ever merging genuinely distinct scores.
TIE_REL_TOL = 1e-12


class ScoringConfig(namedtuple("ScoringConfig", "p tf_mode weight_mode stopword_fallback")):
    """Knobs of the scoring function.

    ``p`` weighs stop-word evidence; diacritics get ``1 - p``.  With
    ``stopword_fallback`` on, a text containing no known diacritic is
    scored with an effective ``p`` of 1.  Every way of making one,
    ``_replace``, ``_make`` and unpickling included, checks the values.
    """

    __slots__ = ()

    def __new__(cls, p, tf_mode="raw", weight_mode="unit", stopword_fallback=False):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be within [0, 1], got {p}")
        if tf_mode not in TF_MODES:
            raise ValueError(f"tf_mode must be one of {TF_MODES}, got {tf_mode!r}")
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
        return super().__new__(cls, p, tf_mode, weight_mode, stopword_fallback)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # every pickle protocol rebuilds through __new__
        return type(self), tuple(self)


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


class Verdict(namedtuple("Verdict", "language reason", defaults=(None,))):
    """Classification outcome: a language, or why none was chosen."""

    __slots__ = ()


def _scores(nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig) -> list[float]:
    """Every language's score, in lexicon order, with a shared effective p."""
    n_languages = lex.n_languages
    if n_languages < 2:
        raise LexiconError("classification requires at least 2 languages")
    tf = _TF[cfg.tf_mode]
    weights = _weights(cfg.weight_mode, n_languages)
    # Every language adds its matched terms in sorted term order starting
    # from 0.0, so each sum is reproducible across processes and runs.
    totals = []
    for kind, freq in ((STOPWORD, nt.token_freq), (DIACRITIC, nt.char_freq)):
        index = lex._index[kind]  # term -> positions of the languages listing it
        total = [0.0] * n_languages
        matched = sorted(index.keys() & freq.keys())
        for term in matched:
            positions = index[term]
            value = tf(freq[term]) * weights[len(positions)]
            for i in positions:
                total[i] += value
        totals.append(total)
    stop, dia = totals
    # ``matched`` is now the text's known diacritics; with none, ``dia`` is all 0.0.
    p = 1.0 if cfg.stopword_fallback and not matched else cfg.p
    q = 1.0 - p
    return [p * s + q * d for s, d in zip(stop, dia)]


def score_all(nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig) -> dict[str, float]:
    """Score every language, in lexicon order, with a shared effective p."""
    return dict(zip(lex.codes, _scores(nt, lex, cfg)))


def classify(
    nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig
) -> tuple[Verdict, dict[str, float]]:
    """Pick the strict maximum-score language, or explain why there is none.

    An all-zero score vector yields ``no_evidence``; a maximum shared by
    two or more languages (within ``TIE_REL_TOL`` relative) yields
    ``tie``.
    """
    values = _scores(nt, lex, cfg)
    return _verdict(lex.codes, values), dict(zip(lex.codes, values))


def _verdict(codes: tuple[str, ...], values: list[float]) -> Verdict:
    """The verdict on finite scores ``values``, given in the order of ``codes``."""
    *_, runner_up, best = sorted(values)
    if best <= 0.0:
        return Verdict(None, NO_EVIDENCE)
    # For finite 0 < best and value <= best, best - value <= TIE_REL_TOL * best
    # is exactly math.isclose(value, best, rel_tol=TIE_REL_TOL, abs_tol=0.0):
    # both compare the rounded best - value with TIE_REL_TOL * best.  Its other
    # bound, TIE_REL_TOL * |value|, is no larger when value >= 0, and when
    # value < 0 the gap exceeds |value|, so a negative score is never close.
    # The gap shrinks as value grows, so a tie exists iff the runner-up ties.
    if best - runner_up <= TIE_REL_TOL * best:
        return Verdict(None, TIE)
    return Verdict(codes[values.index(best)])
