"""The record types are immutable named tuples that keep their field names."""

import copy
import pickle

import pytest

from lexid import (
    ConfusionMatrix,
    EvaluationReport,
    Finding,
    LabeledDocument,
    LanguageLexicon,
    NormalizedText,
    ScoringConfig,
    Verdict,
    demo_lexicon_dir,
    evaluate,
    load_lexicon,
    normalize_text,
    preset_config,
)


def _records():
    lex = load_lexicon(demo_lexicon_dir())
    corpus = [LabeledDocument("fr", "le café est déjà froid", 0)]
    report = evaluate(corpus, lex, preset_config("test9"))
    return [
        normalize_text("le café est déjà froid"),
        Finding("warning", "language 'xx' has an empty diacritic set"),
        LanguageLexicon(frozenset({"le"}), frozenset("é")),
        preset_config("test9"),
        Verdict("fr"),
        corpus[0],
        report.matrix,
        report,
    ]


RECORDS = _records()
RECORD_IDS = [type(record).__name__ for record in RECORDS]


def test_every_record_type_is_covered():
    assert {type(record) for record in RECORDS} == {
        NormalizedText,
        Finding,
        LanguageLexicon,
        ScoringConfig,
        Verdict,
        LabeledDocument,
        ConfusionMatrix,
        EvaluationReport,
    }


@pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
class TestRecordContract:
    def test_pickle_round_trip(self, record):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record

    def test_copy_round_trip(self, record):
        for clone in (copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record

    def test_fields_cannot_be_assigned(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_is_a_tuple_of_its_fields(self, record):
        values = tuple(getattr(record, name) for name in record._fields)
        assert tuple(record) == values
        assert record == values
        assert record[0] is values[0]
        assert record._replace() == record


def test_field_names_and_order():
    assert NormalizedText._fields == ("tokens", "char_freq", "token_freq")
    assert Finding._fields == ("severity", "message")
    assert LanguageLexicon._fields == ("stopwords", "diacritics")
    assert ScoringConfig._fields == ("p", "tf_mode", "weight_mode", "stopword_fallback")
    assert Verdict._fields == ("language", "reason")
    assert LabeledDocument._fields == ("gold", "text", "id")
    assert ConfusionMatrix._fields == ("counts", "gold_labels", "predicted_labels")
    assert EvaluationReport._fields == ("matrix", "config_echo", "unclassified_reasons")


def test_defaults():
    assert Verdict("fr").reason is None
    assert ScoringConfig(0.5) == ScoringConfig(
        p=0.5, tf_mode="raw", weight_mode="unit", stopword_fallback=False
    )


class TestScoringConfigChecks:
    def test_constructor(self):
        with pytest.raises(ValueError, match="p must be within"):
            ScoringConfig(p=2)

    def test_replace(self):
        with pytest.raises(ValueError, match="p must be within"):
            preset_config("test9")._replace(p=2)

    def test_make(self):
        with pytest.raises(ValueError, match="p must be within"):
            ScoringConfig._make((2, "raw", "unit", False))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickle(self, protocol):
        bad = tuple.__new__(ScoringConfig, (0.5, "cubic", "unit", False))
        with pytest.raises(ValueError, match="tf_mode must be one of"):
            pickle.loads(pickle.dumps(bad, protocol))

    def test_modes(self):
        with pytest.raises(ValueError, match="weight_mode must be one of"):
            ScoringConfig(0.5, weight_mode="idf")

    def test_make_and_replace_keep_valid_values(self):
        cfg = ScoringConfig._make((0.25, "log", "ratio", True))
        assert cfg == ScoringConfig(0.25, "log", "ratio", True)
        assert cfg._replace(p=1.0).p == 1.0
