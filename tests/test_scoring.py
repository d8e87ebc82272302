import gc
import math
import pickle
import random
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from lexid import (
    LanguageLexicon,
    LexiconSet,
    NO_EVIDENCE,
    NormalizedText,
    PRESETS,
    ScoringConfig,
    TIE,
    Verdict,
    classify,
    demo_lexicon_dir,
    evaluate,
    load_lexicon,
    normalize_text,
    preset_config,
    score_all,
)
from lexid import scoring
from lexid.lexicon import LexiconError
from lexid.scoring import TIE_REL_TOL, _classify_text, _verdict

from _oracle import rescan_scores, rescan_verdict
from _synth import random_instance
from test_scores_golden import TEXTS as GOLDEN_TEXTS


def one_term_scores(text, lex, p=0.0, tf_mode="raw", weight_mode="unit"):
    """``score_all`` of a short text; p=0 scores diacritics alone."""
    return score_all(normalize_text(text), lex, ScoringConfig(p, tf_mode, weight_mode))


class TestTermFrequency:
    def test_zero_both_modes(self, diacritics_only_lex):
        for mode in ("raw", "log"):
            scores = one_term_scores("abc", diacritics_only_lex, tf_mode=mode)
            assert all(v == 0.0 for v in scores.values())

    def test_raw_is_count(self, diacritics_only_lex):
        assert one_term_scores("ññ", diacritics_only_lex)["es"] == 2.0

    def test_log_is_log1p(self, diacritics_only_lex):
        value = one_term_scores("ñ", diacritics_only_lex, tf_mode="log")["es"]
        assert value == pytest.approx(0.6931471805599453, abs=1e-15)


class TestWeight:
    def test_ratio_unique_term(self, diacritics_only_lex):
        assert one_term_scores("ñ", diacritics_only_lex, weight_mode="ratio")["es"] == 5.0

    def test_unit_always_one(self, diacritics_only_lex):
        assert one_term_scores("é", diacritics_only_lex)["fr"] == 1.0

    def test_log_ratio_shared_term(self, diacritics_only_lex):
        # é sits in 4 of the 5 built-in sets
        scores = one_term_scores("é", diacritics_only_lex, weight_mode="log_ratio")
        for lang in ("fr", "it", "pt", "es"):
            assert scores[lang] == pytest.approx(0.8109302162163288, abs=1e-15)
        assert scores["ro"] == 0.0

    def test_same_for_every_member_language(self, diacritics_only_lex):
        scores = one_term_scores("é", diacritics_only_lex, weight_mode="ratio")
        assert len({scores[lang] for lang in ("fr", "it", "pt", "es")}) == 1

    def test_ratio_fully_shared_is_one(self):
        lex = LexiconSet(
            {
                "x": LanguageLexicon(frozenset({"la"}), frozenset()),
                "y": LanguageLexicon(frozenset({"la"}), frozenset()),
            }
        )
        assert one_term_scores("la", lex, p=1.0, weight_mode="ratio") == {"x": 1.0, "y": 1.0}


    def test_weights_follow_the_language_count(self):
        # The same term spread under 2 and under 5 languages, scored in
        # one process, so a weight memo that ignored the count would leak.
        two = LexiconSet(
            {
                "a": LanguageLexicon(frozenset({"x", "y"}), frozenset()),
                "b": LanguageLexicon(frozenset({"y"}), frozenset()),
            }
        )
        five = LexiconSet(
            {
                "a": LanguageLexicon(frozenset({"x", "y"}), frozenset()),
                "b": LanguageLexicon(frozenset({"y"}), frozenset()),
                **{c: LanguageLexicon(frozenset({"z"}), frozenset()) for c in "cde"},
            }
        )
        log1p = math.log1p
        for _ in range(2):
            assert one_term_scores("x y", two, p=1.0, weight_mode="ratio") == {
                "a": 2.0 + 1.0, "b": 1.0,
            }
            assert one_term_scores("x y", five, p=1.0, weight_mode="ratio") == {
                "a": 5.0 + 2.5, "b": 2.5, "c": 0.0, "d": 0.0, "e": 0.0,
            }
            assert one_term_scores("x y", two, p=1.0, weight_mode="log_ratio") == {
                "a": 0.0 + log1p(2.0) + log1p(1.0), "b": 0.0 + log1p(1.0),
            }
            assert one_term_scores("x y", five, p=1.0, weight_mode="log_ratio") == {
                "a": 0.0 + log1p(5.0) + log1p(2.5), "b": 0.0 + log1p(2.5),
                "c": 0.0, "d": 0.0, "e": 0.0,
            }


class TestScoreLanguage:
    def test_two_language_example(self, ab_lex):
        nt = normalize_text("le café")
        cfg = ScoringConfig(p=0.5, tf_mode="raw", weight_mode="ratio")
        scores = score_all(nt, ab_lex, cfg)
        assert scores["a"] == pytest.approx(2.0, abs=1e-12)
        assert scores["b"] == 0.0

    def test_empty_text_scores_zero(self, demo_lex):
        nt = normalize_text("")
        for name in PRESETS:
            assert all(v == 0.0 for v in score_all(nt, demo_lex, PRESETS[name]).values())

    def test_p_one_ignores_diacritics(self, ab_lex):
        nt = normalize_text("le café")
        cfg = ScoringConfig(p=1.0, tf_mode="raw", weight_mode="ratio")
        other = LexiconSet(
            {
                "a": LanguageLexicon(ab_lex.languages["a"].stopwords, frozenset("ôî")),
                "b": LanguageLexicon(ab_lex.languages["b"].stopwords, frozenset()),
            }
        )
        assert score_all(nt, ab_lex, cfg) == score_all(nt, other, cfg)


class TestScoreAll:
    def test_fallback_rescores_with_stop_words_only(self, demo_lex):
        nt = normalize_text("text sans accents du tout")
        with_fallback = ScoringConfig(p=1 / 3, stopword_fallback=True)
        pure_stop = ScoringConfig(p=1.0)
        assert score_all(nt, demo_lex, with_fallback) == score_all(nt, demo_lex, pure_stop)

    def test_known_diacritic_with_zero_count_keeps_p(self, ab_lex):
        # The fallback fires only when the text lists no known diacritic;
        # a listed one counts even when it adds no evidence.
        nt = NormalizedText(("le",), {"l": 1, "e": 1, "é": 0}, {"le": 1})
        cfg = ScoringConfig(p=1 / 2, stopword_fallback=True)
        assert score_all(nt, ab_lex, cfg) == {"a": 0.5, "b": 0.0}

    def test_no_fallback_p_zero_gives_all_zero(self, demo_lex):
        nt = normalize_text("text sans accents du tout")
        cfg = ScoringConfig(p=0.0, stopword_fallback=False)
        assert all(v == 0.0 for v in score_all(nt, demo_lex, cfg).values())

    def test_diacritic_only_tie_scores(self, diacritics_only_lex):
        # frozen values from the brute-force oracle: with log tf and
        # log-ratio weights, í (3 languages) and é (4 languages) give
        # it = pt = es = (2/3)(ln2·ln(1+5/3) + ln2·ln(1+5/4))
        nt = normalize_text("allí estaré")
        scores = score_all(nt, diacritics_only_lex, preset_config("test9"))
        assert scores["it"] == pytest.approx(0.8279686828913402, abs=1e-9)
        assert scores["pt"] == pytest.approx(0.8279686828913402, abs=1e-9)
        assert scores["es"] == pytest.approx(0.8279686828913402, abs=1e-9)
        assert scores["fr"] == pytest.approx(0.3747293286674767, abs=1e-9)
        assert scores["ro"] == 0.0

    def test_requires_two_languages(self):
        lex = LexiconSet({"fr": LanguageLexicon(frozenset({"le"}), frozenset("é"))})
        with pytest.raises(ValueError, match="at least 2"):
            score_all(normalize_text("le"), lex, ScoringConfig(p=1.0))


class TestClassify:
    def test_no_evidence(self, demo_lex):
        verdict, scores = classify(
            normalize_text("universitate facultate istorie"), demo_lex, preset_config("test9")
        )
        assert verdict.language is None
        assert verdict.reason == NO_EVIDENCE
        assert all(v == 0.0 for v in scores.values())

    def test_tie(self, diacritics_only_lex):
        verdict, _ = classify(
            normalize_text("allí estaré"), diacritics_only_lex, preset_config("test9")
        )
        assert verdict.reason == TIE

    def test_classified(self, ab_lex):
        verdict, _ = classify(
            normalize_text("le café"), ab_lex, ScoringConfig(p=0.5, weight_mode="ratio")
        )
        assert verdict.language is not None
        assert verdict.language == "a"

    def test_exact_raw_tie(self, ab_lex):
        # one shared stop word only: both languages score identically
        verdict, scores = classify(normalize_text("la"), ab_lex, ScoringConfig(p=1.0))
        assert verdict.reason == TIE
        assert scores["a"] == scores["b"] > 0


CODES = ("a", "b", "c", "d", "e", "f")
VERDICTS = tuple(map(Verdict, CODES))
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def near_tie(draw):
    """``(value, best)`` with value about k * TIE_REL_TOL below best, a few ulps either way."""
    best = draw(positive)
    value = best * (1 - draw(st.integers(0, 3)) * 1e-12)
    for _ in range(draw(st.integers(0, 3))):
        value = math.nextafter(value, draw(st.sampled_from([math.inf, -math.inf])))
    assume(value <= best)
    return value, best


def isclose_verdict(values):
    """The verdict rule as ``math.isclose`` states it."""
    return rescan_verdict(dict(zip(CODES, values)), rel_tol=TIE_REL_TOL)


class TestTieRule:
    """``_verdict``'s gap test agrees with ``math.isclose`` on every score."""

    @given(positive, finite, st.booleans())
    def test_any_score_below_best(self, best, value, swap):
        assume(value <= best)
        values = [best, value] if swap else [value, best]
        verdict = _verdict(values, VERDICTS[:2])
        assert (verdict.language, verdict.reason) == isclose_verdict(values)

    @given(near_tie(), st.booleans())
    def test_at_the_boundary(self, pair, swap):
        values = list(pair[::-1] if swap else pair)
        verdict = _verdict(values, VERDICTS[:2])
        assert (verdict.language, verdict.reason) == isclose_verdict(values)

    @given(st.lists(finite, min_size=2, max_size=len(CODES)))
    def test_any_scores(self, values):
        verdict = _verdict(values, VERDICTS[: len(values)])
        assert (verdict.language, verdict.reason) == isclose_verdict(values)


class TestPresets:
    @pytest.mark.parametrize(
        "name,p,tf_mode,weight_mode,fallback",
        [
            ("test1", 0.0, "raw", "unit", False),
            ("test2", 0.0, "raw", "ratio", False),
            ("test3", 1.0, "raw", "unit", True),
            ("test4", 1.0, "raw", "ratio", True),
            ("test5", 1 / 2, "raw", "unit", True),
            ("test6", 1 / 3, "raw", "unit", True),
            ("test7", 1 / 2, "raw", "ratio", True),
            ("test8", 1 / 3, "raw", "ratio", True),
            ("test9", 1 / 3, "log", "log_ratio", True),
        ],
    )
    def test_definitions(self, name, p, tf_mode, weight_mode, fallback):
        cfg = preset_config(name)
        assert cfg == ScoringConfig(p, tf_mode, weight_mode, fallback)

    def test_exactly_nine(self):
        assert len(PRESETS) == 9

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("test10")


class TestConfigValidation:
    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            ScoringConfig(p=1.5)

    def test_bad_modes(self):
        with pytest.raises(ValueError):
            ScoringConfig(p=0.5, tf_mode="sqrt")
        with pytest.raises(ValueError):
            ScoringConfig(p=0.5, weight_mode="idf")


class TestAgainstOracle:
    def test_random_instances_match(self):
        rng = random.Random(1234)
        preset_names = sorted(PRESETS)
        for i in range(150):
            languages, lex, tokens = random_instance(rng)
            cfg = PRESETS[preset_names[i % len(preset_names)]]
            nt = normalize_text(" ".join(tokens))
            assert nt.tokens == tuple(tokens)
            got = score_all(nt, lex, cfg)
            expected = rescan_scores(
                tokens, languages, cfg.p, cfg.tf_mode, cfg.weight_mode, cfg.stopword_fallback
            )
            for code in languages:
                assert got[code] == pytest.approx(expected[code], abs=1e-9)
                assert got[code] >= 0.0 and math.isfinite(got[code])
            verdict, _ = classify(nt, lex, cfg)
            assert (verdict.language, verdict.reason) == rescan_verdict(expected)


def hex_scores(lex, cfg, texts=GOLDEN_TEXTS):
    """``classify`` and ``_classify_text`` of every text: verdicts and ``float.hex`` scores."""
    results = []
    for text in texts:
        verdict, scores = classify(normalize_text(text), lex, cfg)
        raw_verdict, values = _classify_text(text, lex, cfg)
        results.append((verdict, [v.hex() for v in scores.values()],
                        raw_verdict, [v.hex() for v in values]))
    return results


class TestCompiledScorer:
    """A lexicon keeps one compiled function per config it compiled last."""

    def test_changing_config_rescores(self):
        # test1, test9, test1 and an equal copy of test9: each config compiles once.
        configs = [PRESETS["test1"], PRESETS["test9"], PRESETS["test1"],
                   ScoringConfig(*PRESETS["test9"])]
        expected = [hex_scores(load_lexicon(demo_lexicon_dir()), cfg) for cfg in configs]
        lex = load_lexicon(demo_lexicon_dir())
        with mock.patch.object(scoring, "_compile", wraps=scoring._compile) as compile_:
            assert [hex_scores(lex, cfg) for cfg in configs] == expected
        assert compile_.call_args_list == [mock.call(lex, cfg) for cfg in configs[:2]]
        assert set(lex._scorers) == set(configs)

    def test_equal_config_keeps_the_scorer(self):
        lex = load_lexicon(demo_lexicon_dir())
        _classify_text(GOLDEN_TEXTS[2], lex, PRESETS["test9"])
        scorers = dict(lex._scorers)
        classify(normalize_text(GOLDEN_TEXTS[2]), lex, ScoringConfig(*PRESETS["test9"]))
        assert lex._scorers == scorers
        assert lex._scorers[PRESETS["test9"]] is scorers[PRESETS["test9"]]

    def test_sweep_keeps_only_the_latest_configs(self):
        lex = load_lexicon(demo_lexicon_dir())
        nt = normalize_text(GOLDEN_TEXTS[2])
        configs = [ScoringConfig(p=i / 999) for i in range(1000)]
        for cfg in configs:
            score_all(nt, lex, cfg)
            assert len(lex._scorers) <= scoring._KEPT_CONFIGS
        assert list(lex._scorers) == configs[-scoring._KEPT_CONFIGS:]

    def test_evicted_config_recompiles_to_the_same_scores(self):
        lex = load_lexicon(demo_lexicon_dir())
        first = PRESETS["test9"]
        expected = hex_scores(lex, first)
        for i in range(scoring._KEPT_CONFIGS):
            score_all(normalize_text(GOLDEN_TEXTS[2]), lex, ScoringConfig(p=i / 100))
        assert first not in lex._scorers
        with mock.patch.object(scoring, "_compile", wraps=scoring._compile) as compile_:
            assert hex_scores(lex, first) == expected
        assert compile_.call_args_list == [mock.call(lex, first)]
        assert list(lex._scorers)[-1] == first

    def test_scoring_leaves_no_reference_cycle(self):
        # A lexicon in a cycle outlives its last use until the collector runs.
        lex = load_lexicon(demo_lexicon_dir())
        for cfg in (PRESETS["test1"], PRESETS["test9"]):
            classify(normalize_text(GOLDEN_TEXTS[2]), lex, cfg)
            _classify_text(GOLDEN_TEXTS[2], lex, cfg)
        assert len(lex._scorers) == 2
        ref = weakref.ref(lex)
        gc.disable()
        try:
            del lex
            assert ref() is None
        finally:
            gc.enable()

    def test_threads_with_different_configs_share_a_lexicon(self):
        lex = load_lexicon(demo_lexicon_dir())
        names = sorted(PRESETS)
        serial = {name: hex_scores(load_lexicon(demo_lexicon_dir()), PRESETS[name])
                  for name in names}
        results = {}

        def work(name):
            results[name] = [hex_scores(lex, PRESETS[name]) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {name: [serial[name]] * 5 for name in names}
        assert set(lex._scorers) == set(PRESETS.values())

    def test_one_language_caches_nothing(self):
        lex = LexiconSet({"fr": LanguageLexicon(frozenset({"le"}), frozenset("é"))})
        nt = normalize_text("le café")
        for _ in range(2):
            for cfg in (PRESETS["test1"], PRESETS["test9"]):
                with pytest.raises(LexiconError, match="at least 2"):
                    classify(nt, lex, cfg)
                with pytest.raises(LexiconError, match="at least 2"):
                    score_all(nt, lex, cfg)
                with pytest.raises(LexiconError, match="at least 2"):
                    _classify_text("le café", lex, cfg)
                assert lex._scorers == {}
                assert "_diacritic_re" not in vars(lex)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_language_evaluates_an_empty_corpus(self, parallelism):
        lex = LexiconSet({"fr": LanguageLexicon(frozenset({"le"}), frozenset("é"))})
        report = evaluate([], lex, PRESETS["test9"], parallelism=parallelism)
        assert report.total_documents == 0
        assert report.config_echo["languages"] == ["fr"]
        assert lex._scorers == {}

    @pytest.mark.parametrize("entry", ["classify", "_classify_text"])
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_after_scoring(self, entry, protocol):
        lex = load_lexicon(demo_lexicon_dir())
        for cfg in (PRESETS["test1"], PRESETS["test9"]):
            if entry == "classify":
                classify(normalize_text(GOLDEN_TEXTS[2]), lex, cfg)
            else:
                _classify_text(GOLDEN_TEXTS[2], lex, cfg)
        scorers = dict(lex._scorers)
        assert len(scorers) == 2
        copy = pickle.loads(pickle.dumps(lex, protocol))
        assert copy == lex
        assert copy._scorers == {}
        assert lex._scorers == scorers
        for name, preset in PRESETS.items():
            assert hex_scores(copy, preset) == hex_scores(lex, preset), name
