"""Dictionary-based language identification for closely related languages.

The method scores a text against per-language stop-word and diacritic
dictionaries, weighting each term by how few languages share it, and
picks the language with the strictly highest score.  It needs no
training, looks up only the terms a text contains, so its cost does not
depend on dictionary size, and reports an explicit ``und`` outcome
instead of guessing when the evidence is absent or tied.
"""

from .lexicon import (
    DIACRITIC,
    Finding,
    LanguageLexicon,
    LexiconError,
    LexiconSet,
    STOPWORD,
    UNCLASSIFIED,
    demo_lexicon_dir,
    load_lexicon,
)
from .normalize import NormalizedText, normalize_text
from .scoring import (
    NO_EVIDENCE,
    PRESETS,
    ScoringConfig,
    TIE,
    TIE_REL_TOL,
    Verdict,
    classify,
    preset_config,
    score_all,
)

__version__ = "0.1.0"

# The names loaded from another module on first use (PEP 562), each with
# its module, so that a program that only classifies texts imports neither
# the lexicon tooling nor the evaluation.
_LAZY = {
    **dict.fromkeys(["FOLDING_TABLE", "augment_with_stripped_variants", "save_lexicon",
                     "strip_diacritics", "validate_lexicon"], "tooling"),
    **dict.fromkeys(["ConfusionMatrix", "CorpusFormatError", "EvaluationReport",
                     "LabeledDocument", "emit_report", "evaluate", "load_corpus"], "evaluation"),
}

__all__ = [
    "DIACRITIC",
    "Finding",
    "LanguageLexicon",
    "LexiconError",
    "LexiconSet",
    "NO_EVIDENCE",
    "NormalizedText",
    "PRESETS",
    "STOPWORD",
    "ScoringConfig",
    "TIE",
    "TIE_REL_TOL",
    "UNCLASSIFIED",
    "Verdict",
    "classify",
    "demo_lexicon_dir",
    "load_lexicon",
    "normalize_text",
    "preset_config",
    "score_all",
    *_LAZY,
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
