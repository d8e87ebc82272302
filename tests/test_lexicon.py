import pytest

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


class TestTermLanguageCount:
    def test_shared_diacritic(self, diacritics_only_lex):
        assert diacritics_only_lex.term_index(DIACRITIC)["é"] == {"fr", "it", "pt", "es"}

    def test_unique_diacritic(self, diacritics_only_lex):
        assert diacritics_only_lex.term_index(DIACRITIC)["ñ"] == {"es"}

    def test_absent_term(self, diacritics_only_lex):
        for kind in (STOPWORD, DIACRITIC):
            assert "zzz" not in diacritics_only_lex.term_index(kind)

    def test_namespaces_are_separate(self):
        # "y" as a stop word of one language and a diacritic of another
        # must not pool their counts.
        lex = LexiconSet(
            {
                "x": LanguageLexicon(frozenset({"y"}), frozenset()),
                "z": LanguageLexicon(frozenset(), frozenset({"y"})),
            }
        )
        assert lex.term_index(STOPWORD)["y"] == {"x"}
        assert lex.term_index(DIACRITIC)["y"] == {"z"}
        assert dict(lex.term_index(STOPWORD)) == {"y": frozenset({"x"})}
        assert dict(lex.term_index(DIACRITIC)) == {"y": frozenset({"z"})}
        with pytest.raises(TypeError):
            lex.term_index(STOPWORD)["w"] = frozenset({"x"})


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

    def test_comments_and_blanks_ignored(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["# comment", "", "le"], ["é"]),
                                     "it": (["di"], ["ì"])})
        lex = load_lexicon(tmp_path)
        assert lex.languages["fr"].stopwords == frozenset({"le"})

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

    def test_rejects_empty_mapping(self):
        with pytest.raises(LexiconError):
            LexiconSet({})

    def test_index_rebuild_is_identical(self, demo_lex):
        rebuilt = LexiconSet(dict(demo_lex.languages))
        for code in demo_lex.codes:
            for word in demo_lex.languages[code].stopwords:
                assert rebuilt.term_index(STOPWORD)[word] == demo_lex.term_index(STOPWORD)[word]
            for ch in demo_lex.languages[code].diacritics:
                assert rebuilt.term_index(DIACRITIC)[ch] == demo_lex.term_index(DIACRITIC)[ch]
        assert rebuilt == demo_lex
        assert rebuilt.fingerprint() == demo_lex.fingerprint()

    def test_index_spread_bounds(self, demo_lex):
        for code in demo_lex.codes:
            for word in demo_lex.languages[code].stopwords:
                n = len(demo_lex.term_index(STOPWORD)[word])
                assert 1 <= n <= demo_lex.n_languages
            for ch in demo_lex.languages[code].diacritics:
                n = len(demo_lex.term_index(DIACRITIC)[ch])
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
