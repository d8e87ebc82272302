#!/usr/bin/env python3
# Anatomy of the score: term frequency modes, language-specificity
# weights, the stop-word/diacritic mixing coefficient p, and the
# stop-words-only fallback for accent-free text.

from lexid import (
    PRESETS,
    ScoringConfig,
    demo_lexicon_dir,
    load_lexicon,
    normalize_text,
    score_all,
)

lex = load_lexicon(demo_lexicon_dir())


def diacritic_score(text: str, lang: str, tf_mode: str = "raw", weight_mode: str = "unit"):
    """Score of ``lang`` on diacritics alone (p=0), one term's tf x weight."""
    cfg = ScoringConfig(p=0.0, tf_mode=tf_mode, weight_mode=weight_mode)
    return score_all(normalize_text(text), lex, cfg)[lang]


# --- term frequency -----------------------------------------------------
# "raw" is the plain occurrence count; "log" dampens repeats so one word
# spammed ten times does not drown the rest of the text.  A text of
# `count` copies of ñ, scored with unit weight, shows the tf of `count`.
for count in (0, 1, 2, 10):
    raw = diacritic_score("ñ" * count, "es")
    log = diacritic_score("ñ" * count, "es", tf_mode="log")
    print(f"count={count:>2}  raw tf={raw:>4.1f}  log tf={log:.3f}")
print()

# --- language-specificity weight ----------------------------------------
# A term listed by few languages is strong evidence.  ñ only exists in
# the Spanish set, é in four of the five: with N=5 languages their
# ratio weights are 5/1 and 5/4.  A one-character text has raw tf 1,
# so its score is the weight itself.
for ch, lang in (("ñ", "es"), ("é", "fr"), ("à", "fr")):
    n = sum(ch in lexicon.diacritics for lexicon in lex.languages.values())
    ratio = diacritic_score(ch, lang, weight_mode="ratio")
    log_ratio = diacritic_score(ch, lang, weight_mode="log_ratio")
    print(f"{ch}: listed by {n} languages  N/n={ratio:.2f}  ln(1+N/n)={log_ratio:.3f}")
print()

# --- the mixing coefficient p -------------------------------------------
# p=1 scores with stop words only, p=0 with diacritics only, p=1/3
# doubles the influence of diacritics relative to an even split.
text = normalize_text("și mergem la școală")
for p in (1.0, 0.5, 1 / 3, 0.0):
    scores = score_all(text, lex, ScoringConfig(p=p, weight_mode="ratio"))
    best = max(scores, key=scores.get)
    print(f"p={p:<5.3g} best={best}  ro={scores['ro']:.2f} fr={scores['fr']:.2f}")
print()

# --- fallback ------------------------------------------------------------
# Accent-free text scores identically under (p=1/3, fallback on) and
# plain p=1: without diacritics the second sum is dead weight, so the
# engine switches to stop words only.
plain = normalize_text("acum mergem la scoala fara griji")
mixed = ScoringConfig(p=1 / 3, stopword_fallback=True)
stop_only = ScoringConfig(p=1.0)
print("fallback equal:", score_all(plain, lex, mixed) == score_all(plain, lex, stop_only))
print()

# --- the nine stock configurations ----------------------------------------
print(f"{'name':<7}{'p':>6}  {'tf':<5}{'weight':<11}{'fallback'}")
for name, cfg in PRESETS.items():
    print(
        f"{name:<7}{cfg.p:>6.3g}  {cfg.tf_mode:<5}{cfg.weight_mode:<11}"
        f"{'on' if cfg.stopword_fallback else 'off'}"
    )

# The five diacritic sets ship with the package, in the demo lexicon:
print()
for code, lexicon in lex.languages.items():
    print(f"{code}: {' '.join(sorted(lexicon.diacritics))}")
