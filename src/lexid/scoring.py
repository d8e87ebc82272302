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
of the languages listing it.  Each (lexicon, config) pair is compiled
once into one function: it looks up the index, the term-frequency
function, the weight table (one weight per number of listing languages),
``p`` and the fallback once, and prebuilds the verdict of each language
winning.  The lexicon keeps the compiled functions of the
``_KEPT_CONFIGS`` (16) configs it compiled last, about 1.5 KB each; a
pickled copy holds none.  The function adds each dictionary's matched
terms into a list indexed by position, with one sum that serves both
dictionaries, reading one map of token counts and one of character
counts and only at the lexicon's terms, then picks the verdict with
:func:`_verdict` and returns it with the scores as a list in lexicon
order.

:func:`classify`, :func:`score_all` and :func:`_classify_text` each
call that one function.  :func:`classify` and :func:`score_all` pass a
:class:`~lexid.normalize.NormalizedText`'s two maps; :func:`_classify_text`,
behind ``lexid evaluate`` and ``lexid detect``, passes a raw text's
counts from :func:`~lexid.normalize._term_counts`: its tokens, and the
letters one ``bytes.translate`` pass keeps of the UTF-8 form of its
tokens, the non-ASCII ones and the lexicon's ASCII diacritics.  At each
diacritic those counts are the ``NormalizedText``'s, and the function
reads no other key, so the verdict and scores are the same bit for bit.
:class:`ScoringConfig` and :class:`Verdict` are named tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .lexicon import DIACRITIC, STOPWORD, LexiconError, LexiconSet
from .normalize import NormalizedText, _term_counts

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


class ScoringConfig(namedtuple("ScoringConfig", "p tf_mode weight_mode stopword_fallback")):
    """Knobs of the scoring function.

    ``p`` weighs stop-word evidence; diacritics get ``1 - p``.  With
    ``stopword_fallback`` on, a text containing no known diacritic is
    scored with an effective ``p`` of 1.  Every way of making one,
    ``_replace``, ``_make`` and unpickling included, checks the values
    and stores ``p`` as a ``float`` and ``stopword_fallback`` as a
    ``bool``, so equal configs echo alike in every report.
    """

    __slots__ = ()

    def __new__(cls, p, tf_mode="raw", weight_mode="unit", stopword_fallback=False):
        # A str or bytes has no __float__, though float() parses it; nor has a complex.
        if not hasattr(type(p), "__float__"):
            raise ValueError(f"p must be a real number, got {p!r}")
        try:
            real = float(p) + 0.0  # -0.0 becomes the 0.0 it equals
        except (OverflowError, ValueError):  # an int too large for a float, a signaling NaN
            real = math.nan
        if not 0.0 <= real <= 1.0:
            raise ValueError(f"p must be within [0, 1], got {p}")
        if tf_mode not in TF_MODES:
            raise ValueError(f"tf_mode must be one of {TF_MODES}, got {tf_mode!r}")
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
        if stopword_fallback not in (False, True):  # 0 and 1 compare equal to these
            raise ValueError(f"stopword_fallback must be True or False, got {stopword_fallback!r}")
        return super().__new__(cls, real, tf_mode, weight_mode, bool(stopword_fallback))

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


_NO_EVIDENCE_VERDICT = Verdict(None, NO_EVIDENCE)
_TIE_VERDICT = Verdict(None, TIE)


def _compile(lex: LexiconSet, cfg: ScoringConfig):
    """``lex`` under ``cfg`` as one function ``(token_freq, char_freq) -> (verdict, scores)``.

    Everything ``cfg`` selects and ``lex`` indexes is looked up here,
    once, for every text.  Only this function reads ``_index``, ``_TF``,
    ``_WEIGHT`` or a field of ``cfg``: the closure it returns branches
    on no mode.
    """
    n_languages = lex.n_languages
    if n_languages < 2:
        raise LexiconError("classification requires at least 2 languages")
    stop_index = lex._index[STOPWORD]  # term -> positions of the languages listing it
    dia_index = lex._index[DIACRITIC]
    tf = _TF[cfg.tf_mode]
    weight = _WEIGHT[cfg.weight_mode]
    # The weight of a term listed by n languages, at index n; no term is listed by 0.
    weights = (math.nan, *(weight(n_languages, n) for n in range(1, n_languages + 1)))
    mix = (cfg.p, 1.0 - cfg.p)
    # The effective p of a text with no known diacritic, whose ``dia`` is all 0.0.
    no_diacritic_mix = (1.0, 0.0) if cfg.stopword_fallback else mix
    zeros = [0.0] * n_languages
    verdicts = tuple(map(Verdict, lex.codes))

    def sums(index: dict, freq: dict, matched: list) -> list[float]:
        """Each language's sum of tf times weight over one dictionary's ``matched`` terms."""
        # ``matched`` comes sorted: every language adds its terms in that order starting
        # from 0.0, so each sum is reproducible across processes and runs.
        total = zeros.copy()
        for term in matched:
            positions = index[term]
            value = tf(freq[term]) * weights[len(positions)]
            for i in positions:
                total[i] += value
        return total

    def verdict_scores(token_freq: dict, char_freq: dict) -> tuple[Verdict, list[float]]:
        """The verdict and every language's score, in lexicon order, with a shared effective p.

        ``token_freq`` counts a text's tokens and ``char_freq`` at least
        its diacritics; a key that is no term of the lexicon is never read.
        """
        stop = sums(stop_index, token_freq, sorted(stop_index.keys() & token_freq.keys()))
        matched = sorted(dia_index.keys() & char_freq.keys())
        dia = sums(dia_index, char_freq, matched)
        p, q = mix if matched else no_diacritic_mix
        values = [p * s + q * d for s, d in zip(stop, dia)]
        return _verdict(values, verdicts), values

    return verdict_scores


#: Compiled functions a lexicon keeps: the nine presets and a few more.
_KEPT_CONFIGS = 16


def _compiled(lex: LexiconSet, cfg: ScoringConfig):
    """The compiled function of ``lex`` under ``cfg``, compiled on first use.

    ``lex`` keeps the functions of the ``_KEPT_CONFIGS`` configs it
    compiled last, about 1.5 KB each; a pickled copy holds none.
    """
    scorers = lex._scorers
    scorer = scorers.get(cfg)
    if scorer is None:
        scorer = _compile(lex, cfg)
        # Drop the oldest.  list() copies the keys at once, and popping a
        # key another thread already dropped does nothing.
        for old in list(scorers)[: 1 - _KEPT_CONFIGS]:
            scorers.pop(old, None)
        scorers[cfg] = scorer
    return scorer


def score_all(nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig) -> dict[str, float]:
    """Score every language, in lexicon order, with a shared effective p."""
    return dict(zip(lex.codes, _compiled(lex, cfg)(nt.token_freq, nt.char_freq)[1]))


def classify(
    nt: NormalizedText, lex: LexiconSet, cfg: ScoringConfig
) -> tuple[Verdict, dict[str, float]]:
    """Pick the strict maximum-score language, or explain why there is none.

    An all-zero score vector yields ``no_evidence``; a maximum shared by
    two or more languages (within ``TIE_REL_TOL`` relative) yields
    ``tie``.
    """
    verdict, values = _compiled(lex, cfg)(nt.token_freq, nt.char_freq)
    return verdict, dict(zip(lex.codes, values))


def _classify_text(raw: str, lex: LexiconSet, cfg: ScoringConfig) -> tuple[Verdict, list[float]]:
    """``classify(normalize_text(raw), lex, cfg)``, with the scores as a list in lexicon order.

    The verdict and scores are the same, bit for bit, but only the
    tokens and, of their letters, the non-ASCII ones and the lexicon's
    ASCII diacritics are counted, one chunk of ``raw`` at a time.
    """
    return _compiled(lex, cfg)(*_term_counts(raw, lex._ascii_non_diacritics))


def _verdict(values: list[float], verdicts: tuple[Verdict, ...]) -> Verdict:
    """The verdict on finite scores ``values``; ``verdicts[i]`` is language ``i`` winning."""
    *_, runner_up, best = sorted(values)
    if best <= 0.0:
        return _NO_EVIDENCE_VERDICT
    # For finite 0 < best and value <= best, best - value <= TIE_REL_TOL * best
    # is exactly math.isclose(value, best, rel_tol=TIE_REL_TOL, abs_tol=0.0):
    # both compare the rounded best - value with TIE_REL_TOL * best.  Its other
    # bound, TIE_REL_TOL * |value|, is no larger when value >= 0, and when
    # value < 0 the gap exceeds |value|, so a negative score is never close.
    # The gap shrinks as value grows, so a tie exists iff the runner-up ties.
    if best - runner_up <= TIE_REL_TOL * best:
        return _TIE_VERDICT
    return verdicts[values.index(best)]
