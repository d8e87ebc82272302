"""Dictionary-based language identification for closely related languages.

The method scores a text against per-language stop-word and diacritic
dictionaries, weighting each term by how few languages share it, and
picks the language with the strictly highest score.  It needs no
training, looks up only the terms a text contains, so its cost does not
depend on dictionary size, and reports an explicit ``und`` outcome
instead of guessing when the evidence is absent or tied.
"""

from .evaluation import (
    ConfusionMatrix,
    CorpusFormatError,
    EvaluationReport,
    LabeledDocument,
    UNCLASSIFIED,
    emit_report,
    evaluate,
    load_corpus,
)
from .lexicon import (
    DIACRITIC,
    FOLDING_TABLE,
    Finding,
    LanguageLexicon,
    LexiconError,
    LexiconSet,
    STOPWORD,
    augment_with_stripped_variants,
    demo_lexicon_dir,
    load_lexicon,
    save_lexicon,
    strip_diacritics,
    validate_lexicon,
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

__all__ = [
    "ConfusionMatrix",
    "CorpusFormatError",
    "DIACRITIC",
    "EvaluationReport",
    "FOLDING_TABLE",
    "Finding",
    "LabeledDocument",
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
    "augment_with_stripped_variants",
    "classify",
    "demo_lexicon_dir",
    "emit_report",
    "evaluate",
    "load_corpus",
    "load_lexicon",
    "normalize_text",
    "preset_config",
    "save_lexicon",
    "score_all",
    "strip_diacritics",
    "validate_lexicon",
]
