import os
import pickle
import random
import re
import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

from lexid import (
    DIACRITIC,
    FOLDING_TABLE,
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
from lexid.lexicon import _entry, _is_canonical
from lexid.normalize import _tokens

from _synth import random_instance


#: A directory name holding the byte 0xff, as ``os.listdir`` decodes it.
NOT_UTF8 = os.fsdecode(b"f\xffr")


def write_lexicon_dir(root, languages):
    """languages: code -> (stopword lines, diacritic lines)."""
    for code, (stopwords, diacritics) in languages.items():
        d = root / code
        d.mkdir(parents=True)
        (d / "stopwords.txt").write_text("".join(f"{w}\n" for w in stopwords), "utf-8")
        (d / "diacritics.txt").write_text("".join(f"{c}\n" for c in diacritics), "utf-8")


@pytest.fixture(scope="module")
def demo_diacritics(demo_lex):
    """The diacritic sets of the shipped lexicon, the only built-in ones."""
    return {code: lexicon.diacritics for code, lexicon in demo_lex.languages.items()}


class TestBuiltinDiacritics:
    def test_exact_sets(self, demo_diacritics):
        sets = demo_diacritics
        assert sets["fr"] == frozenset("àâæçèéêëîïôœùûü")
        assert sets["it"] == frozenset("àáèéìíòóùú")
        assert sets["pt"] == frozenset("áâãàçéêíóôõú")
        assert sets["ro"] == frozenset("ăâîșşțţ")
        assert sets["es"] == frozenset("áéíóúñü")

    def test_romanian_has_cedilla_and_comma_variants(self, demo_diacritics):
        ro = demo_diacritics["ro"]
        assert "ş" in ro and "ș" in ro  # s-cedilla and s-comma
        assert "ţ" in ro and "ț" in ro  # t-cedilla and t-comma

    def test_spanish_has_exactly_seven(self, demo_diacritics):
        assert len(demo_diacritics["es"]) == 7

    def test_all_single_alphabetic_codepoints(self, demo_diacritics):
        for chars in demo_diacritics.values():
            for ch in chars:
                assert len(ch) == 1 and ch.isalpha()


def listing(lex, kind):
    """``term -> ascending positions of the languages listing it``, from ``languages``."""
    sets = [
        lexicon.stopwords if kind == STOPWORD else lexicon.diacritics
        for lexicon in lex.languages.values()
    ]
    terms = set().union(*sets)
    return {t: tuple(i for i, terms_of in enumerate(sets) if t in terms_of) for t in terms}


def codes_listing(lex, kind, term):
    """Codes of the languages at the positions ``lex`` indexes ``term`` under."""
    return {lex.codes[i] for i in lex._index[kind][term]}


class TestTermLanguageCount:
    def test_shared_diacritic(self, diacritics_only_lex):
        lex = diacritics_only_lex
        assert codes_listing(lex, DIACRITIC, "é") == {"fr", "it", "pt", "es"}
        assert lex._index[DIACRITIC]["é"] == listing(lex, DIACRITIC)["é"]

    def test_unique_diacritic(self, diacritics_only_lex):
        lex = diacritics_only_lex
        assert codes_listing(lex, DIACRITIC, "ñ") == {"es"}
        assert lex._index[DIACRITIC]["ñ"] == listing(lex, DIACRITIC)["ñ"]

    def test_absent_term(self, diacritics_only_lex):
        for kind in (STOPWORD, DIACRITIC):
            assert "zzz" not in diacritics_only_lex._index[kind]

    def test_namespaces_are_separate(self):
        # "y" as a stop word of one language and a diacritic of another
        # must not pool their counts.
        lex = LexiconSet(
            {
                "x": LanguageLexicon(frozenset({"y"}), frozenset()),
                "z": LanguageLexicon(frozenset(), frozenset({"y"})),
            }
        )
        assert codes_listing(lex, STOPWORD, "y") == {"x"}
        assert codes_listing(lex, DIACRITIC, "y") == {"z"}
        assert lex._index[STOPWORD] == listing(lex, STOPWORD) == {"y": (0,)}
        assert lex._index[DIACRITIC] == listing(lex, DIACRITIC) == {"y": (1,)}


class TestStripDiacritics:
    def test_comma_s(self):
        assert strip_diacritics("și") == "si"

    def test_ascii_identity(self):
        assert strip_diacritics("casa") == "casa"

    def test_grave_u(self):
        assert strip_diacritics("où") == "ou"

    def test_ligatures_expand(self):
        assert strip_diacritics("cœur") == "coeur"
        assert strip_diacritics("æther") == "aether"

    def test_per_character_against_table(self):
        # character-level oracle: folding a word equals concatenating the
        # per-character table entries
        words = ["déjà", "înghețată", "canción", "forêt", "João", "mùzică"]
        for word in words:
            expected = "".join(FOLDING_TABLE.get(ch, ch) for ch in word.lower())
            assert strip_diacritics(word.lower()) == expected

    def test_table_folds_to_ascii(self):
        for accented, plain in FOLDING_TABLE.items():
            assert plain.isascii() and plain.islower()
            assert strip_diacritics(accented) == plain


class TestAugment:
    def test_adds_stripped_variant(self):
        lex = LexiconSet(
            {
                "ro": LanguageLexicon(frozenset({"și"}), frozenset("șț")),
                "xx": LanguageLexicon(frozenset({"zz"}), frozenset()),
            }
        )
        out = augment_with_stripped_variants(lex)
        assert out.languages["ro"].stopwords == frozenset({"și", "si"})
        assert out.languages["ro"].diacritics == lex.languages["ro"].diacritics

    def test_ascii_lists_are_fixed_points(self):
        lex = LexiconSet(
            {
                "x": LanguageLexicon(frozenset({"the", "and"}), frozenset()),
                "y": LanguageLexicon(frozenset({"der", "und"}), frozenset()),
            }
        )
        assert augment_with_stripped_variants(lex) == lex

    def test_never_shrinks(self, demo_lex):
        out = augment_with_stripped_variants(demo_lex)
        for code in demo_lex.codes:
            assert len(out.languages[code].stopwords) >= len(demo_lex.languages[code].stopwords)

    def test_idempotent(self, demo_lex):
        once = augment_with_stripped_variants(demo_lex)
        twice = augment_with_stripped_variants(once)
        assert once == twice


class TestLoadAndSave:
    def test_demo_lexicon_loads_five_languages(self, demo_lex):
        assert demo_lex.codes == ("es", "fr", "it", "pt", "ro")
        assert demo_lex.n_languages == 5
        for code in demo_lex.codes:
            listed = (demo_lexicon_dir() / code / "diacritics.txt").read_text("utf-8").split()
            assert demo_lex.languages[code].diacritics == frozenset(listed)

    def test_single_language_loads(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é"])})
        lex = load_lexicon(tmp_path)
        assert lex.n_languages == 1

    def test_multi_character_diacritic_line(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["ab"])})
        with pytest.raises(LexiconError, match=r"diacritics\.txt:1.*multi-character"):
            load_lexicon(tmp_path)

    def test_diacritic_line_that_is_not_a_letter(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é", "1"])})
        with pytest.raises(LexiconError, match=r"diacritics\.txt:2: diacritic '1' is not a letter"):
            load_lexicon(tmp_path)

    def test_root_that_is_a_regular_file(self, tmp_path):
        root = tmp_path / "lexicon.txt"
        root.write_text("le\n", "utf-8")
        with pytest.raises(LexiconError, match="is not a directory"):
            load_lexicon(root)

    def test_code_that_is_not_utf8(self, tmp_path):
        try:
            write_lexicon_dir(tmp_path, {"it": (["di"], ["ì"]), NOT_UTF8: (["le"], ["é"])})
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        with pytest.raises(LexiconError, match=r"language code 'f\\udcffr' is not UTF-8 text"):
            load_lexicon(tmp_path)

    def test_code_with_surrounding_whitespace(self, tmp_path):
        try:
            write_lexicon_dir(tmp_path, {"it": (["di"], ["ì"]), "fr ": (["le"], ["é"])})
        except OSError:
            pytest.skip("the file system refuses a name ending in a space")
        with pytest.raises(LexiconError, match="language code 'fr ' has surrounding whitespace"):
            load_lexicon(tmp_path)

    def test_multi_word_stopword_line(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["bon jour"], ["é"])})
        with pytest.raises(LexiconError, match=r"stopwords\.txt:1.*single word"):
            load_lexicon(tmp_path)

    def test_invalid_utf8_line(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é"])})
        with open(tmp_path / "fr" / "stopwords.txt", "ab") as handle:
            handle.write(b"\xff\n")
        with pytest.raises(LexiconError, match=r"stopwords\.txt:2: invalid UTF-8 at byte 1"):
            load_lexicon(tmp_path)

    def test_missing_file(self, tmp_path):
        (tmp_path / "fr").mkdir()
        (tmp_path / "fr" / "stopwords.txt").write_text("le\n", "utf-8")
        with pytest.raises(LexiconError, match="missing"):
            load_lexicon(tmp_path)

    def test_empty_root(self, tmp_path):
        with pytest.raises(LexiconError, match="no language directories"):
            load_lexicon(tmp_path)

    def test_duplicate_codes_after_case_folding(self, tmp_path):
        write_lexicon_dir(tmp_path, {"FR": (["le"], ["é"]), "fr": (["la"], ["à"])})
        with pytest.raises(LexiconError, match="duplicate language code"):
            load_lexicon(tmp_path)

    @pytest.mark.parametrize("code", ["UND", "Unclassified"])
    def test_reserved_code_directory(self, tmp_path, code):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é"]), code: (["di"], ["ì"])})
        with pytest.raises(LexiconError, match=f"{code.lower()!r} is reserved"):
            load_lexicon(tmp_path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["# comment", "", "le"], ["é"]),
                                     "it": (["di"], ["ì"])})
        lex = load_lexicon(tmp_path)
        assert lex.languages["fr"].stopwords == frozenset({"le"})

    @pytest.mark.parametrize(
        "name, lines",
        [("stopwords.txt", ["# comment", "le"]), ("diacritics.txt", ["é"])],
    )
    def test_byte_order_mark_ignored(self, tmp_path, name, lines):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é"]), "it": (["di"], ["ì"])})
        path = tmp_path / "fr" / name
        path.write_bytes(b"\xef\xbb\xbf" + "".join(f"{l}\n" for l in lines).encode())
        lex = load_lexicon(tmp_path)
        assert lex.languages["fr"] == LanguageLexicon(frozenset({"le"}), frozenset({"é"}))

    def test_loader_normalizes_and_reports(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["Le"], ["é"]), "it": (["di"], ["ì"])})
        findings = []
        lex = load_lexicon(tmp_path, warnings_to=findings)
        assert lex.languages["fr"].stopwords == frozenset({"le"})
        assert any("normalized 'Le'" in f.message for f in findings)
        assert all(f.severity == "warning" for f in findings)

    def test_round_trip(self, tmp_path, demo_lex):
        save_lexicon(demo_lex, tmp_path / "copy")
        assert load_lexicon(tmp_path / "copy") == demo_lex

    @pytest.mark.parametrize("code", ["ß", "pt-br", "x.y", "...", "ελ"])
    def test_round_trip_unusual_code(self, tmp_path, code):
        lex = LexiconSet(
            {
                "a": LanguageLexicon(frozenset({"le"}), frozenset("é")),
                code: LanguageLexicon(frozenset({"el"}), frozenset("ñ")),
            }
        )
        save_lexicon(lex, tmp_path / "lex")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lex"]
        assert load_lexicon(tmp_path / "lex") == lex

    def test_round_trip_augmented(self, tmp_path, demo_lex):
        augmented = augment_with_stripped_variants(demo_lex)
        save_lexicon(augmented, tmp_path / "aug")
        assert load_lexicon(tmp_path / "aug") == augmented

    def test_save_is_deterministic(self, tmp_path, demo_lex):
        save_lexicon(demo_lex, tmp_path / "one")
        save_lexicon(demo_lex, tmp_path / "two")
        for code in demo_lex.codes:
            for name in ("stopwords.txt", "diacritics.txt"):
                assert (tmp_path / "one" / code / name).read_bytes() == (
                    tmp_path / "two" / code / name
                ).read_bytes()

    def test_fingerprint_tracks_content(self, demo_lex):
        assert demo_lex.fingerprint() != augment_with_stripped_variants(demo_lex).fingerprint()
        assert demo_lex.fingerprint() == load_lexicon(demo_lexicon_dir()).fingerprint()

    def test_fingerprint_is_hashed_once(self, monkeypatch):
        lex = LexiconSet({"a": LanguageLexicon(frozenset({"le"}), frozenset({"é"}))})
        first = lex.fingerprint()
        monkeypatch.setattr("hashlib.sha256", None)  # a second hashing would fail
        assert lex.fingerprint() is first


class TestConstructorInvariants:
    def test_rejects_unnormalized_stop_word(self):
        with pytest.raises(LexiconError, match="not a single normalized token"):
            LexiconSet({"x": LanguageLexicon(frozenset({"Le"}), frozenset())})

    def test_rejects_multi_char_diacritic(self):
        with pytest.raises(LexiconError, match="not a single letter"):
            LexiconSet({"x": LanguageLexicon(frozenset(), frozenset({"ab"}))})

    def test_rejects_unnormalized_diacritic(self):
        with pytest.raises(LexiconError, match="not a single letter"):
            LexiconSet({"x": LanguageLexicon(frozenset(), frozenset({"É"}))})

    def test_rejects_unclassified_code(self):
        with pytest.raises(LexiconError, match="'unclassified' is reserved"):
            LexiconSet(
                {
                    "unclassified": LanguageLexicon(frozenset({"le"}), frozenset()),
                    "b": LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    def test_rejects_undetermined_code(self):
        with pytest.raises(LexiconError, match="'und' is reserved"):
            LexiconSet(
                {
                    "a": LanguageLexicon(frozenset({"le"}), frozenset()),
                    "und": LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    def test_rejects_empty_code(self):
        with pytest.raises(LexiconError, match="empty language code"):
            LexiconSet({"": LanguageLexicon(frozenset({"le"}), frozenset())})

    def test_rejects_code_that_is_not_utf8(self):
        with pytest.raises(LexiconError, match=r"'f\\udcffr' is not UTF-8 text"):
            LexiconSet(
                {
                    "a": LanguageLexicon(frozenset({"le"}), frozenset()),
                    "f\udcffr": LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    @pytest.mark.parametrize("code", ["fr ", " fr", "fr\t", "\u00a0fr", "fr\n"])
    def test_rejects_code_with_surrounding_whitespace(self, code):
        message = f"language code {code!r} has surrounding whitespace"
        with pytest.raises(LexiconError, match=re.escape(message)):
            LexiconSet(
                {
                    "a": LanguageLexicon(frozenset({"le"}), frozenset()),
                    code: LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    @pytest.mark.parametrize("code", ["FR", "Fr", "É"])
    def test_rejects_code_that_is_not_lowercase(self, code):
        # load_lexicon lowercases directory names, so this code could not survive a reload.
        message = f"language code {code!r} is not lowercase"
        with pytest.raises(LexiconError, match=re.escape(message)):
            LexiconSet(
                {
                    "a": LanguageLexicon(frozenset({"le"}), frozenset()),
                    code: LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    @pytest.mark.parametrize("code", [".", "..", "a/b", "/fr", "fr/", os.sep + "x", "f\x00r"])
    def test_rejects_code_that_is_not_a_directory_name(self, code):
        # save_lexicon would write outside the root, or into a nested directory.
        message = f"language code {code!r} is not a single directory name"
        with pytest.raises(LexiconError, match=re.escape(message)):
            LexiconSet(
                {
                    "a": LanguageLexicon(frozenset({"le"}), frozenset()),
                    code: LanguageLexicon(frozenset({"el"}), frozenset()),
                }
            )

    def test_nul_code_never_reaches_save(self, tmp_path):
        # No file system can name it: saving would write "aa/" and then fail.
        with pytest.raises(LexiconError, match="is not a single directory name"):
            save_lexicon(
                LexiconSet(
                    {
                        "aa": LanguageLexicon(frozenset({"le"}), frozenset()),
                        "f\x00r": LanguageLexicon(frozenset({"el"}), frozenset()),
                    }
                ),
                tmp_path,
            )
        assert list(tmp_path.iterdir()) == []

    def test_never_equal_to_another_type(self, demo_lex):
        assert (demo_lex == 3) is False
        assert demo_lex != 3

    def test_rejects_empty_mapping(self):
        with pytest.raises(LexiconError):
            LexiconSet({})

    def test_index_rebuild_is_identical(self, demo_lex):
        rebuilt = LexiconSet(dict(demo_lex.languages))
        for kind in (STOPWORD, DIACRITIC):
            assert rebuilt._index[kind] == demo_lex._index[kind] == listing(demo_lex, kind)
        assert rebuilt == demo_lex
        assert rebuilt.fingerprint() == demo_lex.fingerprint()

    @pytest.mark.parametrize("augmented", [False, True])
    def test_pickle_round_trip(self, demo_lex, augmented):
        lex = augment_with_stripped_variants(demo_lex) if augmented else demo_lex
        copy = pickle.loads(pickle.dumps(lex))
        assert copy == lex
        assert copy.codes == lex.codes
        for kind in (STOPWORD, DIACRITIC):
            assert copy._index[kind] == lex._index[kind] == listing(lex, kind)
        assert copy.all_diacritics == lex.all_diacritics

    def test_languages_is_read_only(self, demo_lex):
        lex = LexiconSet(dict(demo_lex.languages))
        with pytest.raises(TypeError):
            lex.languages["xx"] = lex.languages["fr"]
        assert "xx" not in lex.codes

    def test_position_index_matches_languages(self, demo_lex):
        rng = random.Random(20261018)
        synthetic = [random_instance(rng)[1] for _ in range(50)]
        for lex in [demo_lex, augment_with_stripped_variants(demo_lex), *synthetic]:
            for kind in (STOPWORD, DIACRITIC):
                assert lex._index[kind] == listing(lex, kind)
            assert lex.all_diacritics == lex._index[DIACRITIC].keys()

    def test_index_spread_bounds(self, demo_lex):
        for code in demo_lex.codes:
            for word in demo_lex.languages[code].stopwords:
                n = len(demo_lex._index[STOPWORD][word])
                assert 1 <= n <= demo_lex.n_languages
            for ch in demo_lex.languages[code].diacritics:
                n = len(demo_lex._index[DIACRITIC][ch])
                assert 1 <= n <= demo_lex.n_languages


class TestValidate:
    def test_widely_shared_stop_word(self):
        languages = {
            code: LanguageLexicon(frozenset(words), frozenset("é"))
            for code, words in {
                "fr": {"la", "votre"},
                "it": {"la"},
                "ro": {"la"},
                "es": {"la"},
                "pt": {"de"},
            }.items()
        }
        findings = validate_lexicon(LexiconSet(languages))
        assert any("'la'" in f.message and "4 of 5" in f.message for f in findings)

    def test_two_languages_flag_only_the_shared_stop_word(self):
        lex = LexiconSet(
            {
                "fr": LanguageLexicon(frozenset({"il", "la"}), frozenset("é")),
                "it": LanguageLexicon(frozenset({"la", "lo"}), frozenset("à")),
            }
        )
        sharing = [f for f in validate_lexicon(lex) if f.message.startswith("stop word")]
        assert sharing == [("warning", "stop word 'la' appears in 2 of 2 languages")]

    def test_demo_lexicon_has_no_diacritic_findings(self, demo_lex):
        findings = validate_lexicon(demo_lex)
        assert not any("diacritic set" in f.message for f in findings)
        assert not any(f.severity == "error" for f in findings)

    def test_single_language_is_error(self):
        lex = LexiconSet({"fr": LanguageLexicon(frozenset({"le"}), frozenset("é"))})
        findings = validate_lexicon(lex)
        assert any(f.severity == "error" for f in findings)

    def test_missing_diacritic_set_warning(self):
        lex = LexiconSet(
            {
                "x": LanguageLexicon(frozenset({"où"}), frozenset()),
                "y": LanguageLexicon(frozenset({"zz"}), frozenset("ì")),
            }
        )
        messages = [f.message for f in validate_lexicon(lex)]
        assert any("'ù'" in m and "no diacritic set" in m for m in messages)
        assert any("empty diacritic set" in m for m in messages)


def _tokenized_stop_word(term):
    """``_entry(STOPWORD, term)`` without its shortcut, or None where it raises."""
    tokens, _ = _tokens(term)
    return tokens[0] if len(tokens) == 1 else None


def _folded_diacritic(term):
    """``_entry(DIACRITIC, term)`` without its shortcut, or None where it raises."""
    letter = unicodedata.normalize("NFC", term.lower())
    return letter if len(letter) == 1 and letter.isalpha() else None


def _stop_word_entry(term):
    try:
        return _entry(STOPWORD, term)
    except LexiconError:
        return None


class TestStopWordEntry:
    """The canonical-form shortcut of ``_entry`` agrees with tokenizing."""

    def test_every_code_point(self):
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            # Two-letter words, and capitals whose lowercase may expand.
            for term in (ch, f"a{ch}", ch.upper()) if ch.isalpha() else (ch,):
                tokenized = _tokenized_stop_word(term)
                assert _stop_word_entry(term) == tokenized, hex(cp)
                # The predicate holds exactly for the terms that are their own entry.
                assert _is_canonical(STOPWORD, term) == (tokenized == term), hex(cp)
                assert _is_canonical(DIACRITIC, term) == (_folded_diacritic(term) == term), hex(cp)

    @given(st.text(min_size=1, max_size=12))
    def test_arbitrary_words(self, term):
        assert _stop_word_entry(term) == _tokenized_stop_word(term)

    def test_examples(self):
        assert _entry(STOPWORD, "Le") == "le"
        assert _entry(STOPWORD, "cafe\u0301") == "café"
        assert _entry(STOPWORD, "şi") == "şi"
        with pytest.raises(LexiconError, match="not a single word"):
            _entry(STOPWORD, "x²y")
