"""Full-dictionary reference scorer, independent of the package.

It applies the documented formula term by term::

    score(text, lang) = p * sum_w tf(count(w)) * weight(w)
                      + (1 - p) * sum_d tf(count(d)) * weight(d)

over every entry of every language's dictionaries, from token lists the
workload generator produced (never from ``normalize_text``) and from
plain ``code -> (stop words, diacritics)`` sets.  The preset table and
the tie tolerance are restated here on purpose: if the package changes
either, the verdicts disagree and the benchmark fails.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

#: Relative tolerance under which two top scores count as a tie.
TIE_REL_TOL = 1e-12

#: name -> (p, tf mode, weight mode, stop-word fallback)
PRESETS = {
    "test1": (0.0, "raw", "unit", False),
    "test2": (0.0, "raw", "ratio", False),
    "test3": (1.0, "raw", "unit", True),
    "test4": (1.0, "raw", "ratio", True),
    "test5": (1 / 2, "raw", "unit", True),
    "test6": (1 / 3, "raw", "unit", True),
    "test7": (1 / 2, "raw", "ratio", True),
    "test8": (1 / 3, "raw", "ratio", True),
    "test9": (1 / 3, "log", "log_ratio", True),
}


@dataclass(frozen=True)
class Outcome:
    """Reference result for one text under one preset."""

    language: str | None
    reason: str | None
    scores: dict[str, float]
    fallback: bool
    matched: int
    in_play: int

    @property
    def label(self) -> str:
        return self.language or "und"


class ReferenceScorer:
    def __init__(self, languages: dict[str, tuple[frozenset[str], frozenset[str]]], preset: str):
        self.p, self.tf_mode, self.weight_mode, self.fallback = PRESETS[preset]
        self.languages = {code: (sorted(sw), sorted(dia)) for code, (sw, dia) in languages.items()}
        n = len(languages)
        spread: Counter = Counter()
        for stopwords, diacritics in languages.values():
            spread.update(("stop", w) for w in stopwords)
            spread.update(("dia", d) for d in diacritics)
        self.weights = {key: self._weight(n, count) for key, count in spread.items()}
        self.all_diacritics = {d for _, dia in languages.values() for d in dia}
        self.n_stop = sum(len(sw) for sw, _ in languages.values())
        self.n_dia = sum(len(dia) for _, dia in languages.values())

    def _weight(self, n_languages: int, n: int) -> float:
        if self.weight_mode == "unit":
            return 1.0
        if self.weight_mode == "ratio":
            return n_languages / n
        return math.log1p(n_languages / n)

    def _tf(self, count: int) -> float:
        return float(count) if self.tf_mode == "raw" else math.log1p(count)

    def score(self, tokens: tuple[str, ...]) -> Outcome:
        token_counts = Counter(tokens)
        char_counts = Counter(ch for token in tokens for ch in token)
        p = self.p
        fallback = self.fallback and not any(ch in self.all_diacritics for ch in char_counts)
        if fallback:
            p = 1.0
        in_play = (self.n_stop if p > 0.0 else 0) + (self.n_dia if p < 1.0 else 0)
        matched = 0
        scores = {}
        for code, (stopwords, diacritics) in self.languages.items():
            stop_total = 0.0
            if p > 0.0:
                for word in stopwords:
                    count = token_counts.get(word, 0)
                    if count:
                        matched += 1
                        stop_total += self._tf(count) * self.weights["stop", word]
            dia_total = 0.0
            if p < 1.0:
                for ch in diacritics:
                    count = char_counts.get(ch, 0)
                    if count:
                        matched += 1
                        dia_total += self._tf(count) * self.weights["dia", ch]
            scores[code] = p * stop_total + (1.0 - p) * dia_total
        language, reason = verdict(scores)
        return Outcome(language, reason, scores, fallback and self.p != 1.0, matched, in_play)


def verdict(scores: dict[str, float]) -> tuple[str | None, str | None]:
    """Strict maximum, or ``(None, "no_evidence")`` / ``(None, "tie")``."""
    best = max(scores.values())
    if best <= 0.0:
        return None, "no_evidence"
    top = [c for c, v in scores.items() if math.isclose(v, best, rel_tol=TIE_REL_TOL, abs_tol=0.0)]
    if len(top) > 1:
        return None, "tie"
    return top[0], None
