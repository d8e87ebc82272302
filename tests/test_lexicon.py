import functools
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import unicodedata
from pathlib import Path

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
from lexid import lexicon
from lexid.lexicon import _all_canonical, _entry
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


def word_list(parts):
    """The bytes of word-list files ``parts`` written one after another.

    Each part is ``(marked, line_end, lines)``: whether the file starts
    with a byte-order mark, how its lines end, and its lines, or ``None``
    for an empty file.  A part with no lines is one blank line, so a
    marked one is the mark and a line end; an empty file is the mark
    alone when marked, with no line end.
    """
    return "".join(
        ("\ufeff" if marked else "")
        + ("" if lines is None else "".join(line + end for line in lines or [""]))
        for marked, end, lines in parts
    ).encode()


def word_list_parts(lines):
    """Empty word-list files or ones of up to two of ``lines``, as :func:`word_list` takes them."""
    part = st.tuples(
        st.booleans(),
        st.sampled_from(["\n", "\r\n"]),
        st.none() | st.lists(lines, max_size=2),
    )
    return st.lists(part, min_size=1, max_size=3)


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

    def test_repr_names_the_codes(self, demo_lex):
        assert repr(demo_lex) == "LexiconSet(es, fr, it, pt, ro)"

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

    def test_invalid_utf8_offset_counts_a_later_mark(self, tmp_path):
        write_lexicon_dir(tmp_path, {"fr": (["le"], ["é"])})
        with open(tmp_path / "fr" / "stopwords.txt", "ab") as handle:
            handle.write(b"\xef\xbb\xbfl\xffe\n")
        with pytest.raises(LexiconError, match=r"stopwords\.txt:2: invalid UTF-8 at byte 5"):
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


class TestConcatenatedWordLists:
    """A byte-order mark at the start of any line is dropped, so joined word lists load."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("concatenated")

    @given(
        stopwords=word_list_parts(st.sampled_from(["le", "de", "# list", "già", "și"])),
        diacritics=word_list_parts(st.sampled_from(["é", "ñ", "ș"])),
    )
    def test_loads_as_the_unmarked_files(self, folder, stopwords, diacritics):
        loaded = []
        for marked in (True, False):
            root = folder / str(marked)
            shutil.rmtree(root, ignore_errors=True)
            write_lexicon_dir(root, {"fr": ([], []), "it": (["di"], ["ì"])})
            for name, parts in (("stopwords.txt", stopwords), ("diacritics.txt", diacritics)):
                parts = [(mark and marked, end, lines) for mark, end, lines in parts]
                (root / "fr" / name).write_bytes(word_list(parts))
            findings = []
            loaded.append(load_lexicon(root, warnings_to=findings))
            assert findings == []
        assert loaded[0] == loaded[1]
        assert loaded[0].fingerprint() == loaded[1].fingerprint()

    def test_a_long_run_of_marks_loads_in_one_pass(self, tmp_path):
        """Dropping one mark per line start per pass would copy the text a million times."""
        root = tmp_path / "lex"
        write_lexicon_dir(root, {"fr": (["le"], ["é"]), "it": (["di"], ["ì"])})
        (root / "fr" / "stopwords.txt").write_bytes(b"le\n" + "\ufeff".encode() * 10**6 + b"la\n")
        script = (
            "import sys, lexid\n"
            "print(*sorted(lexid.load_lexicon(sys.argv[1]).languages['fr'].stopwords))"
        )
        src = str(Path(lexicon.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (0, "la le\n"), result.stderr


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

    def test_stores_each_field_as_a_frozenset(self):
        # A string or a list of terms is checked and indexed as the set of its terms.
        loose = LexiconSet(
            {
                "a": LanguageLexicon(["le", "de", "le"], "éè"),
                "b": LanguageLexicon(("el", "de"), ["ñ", "é", "ñ"]),
            }
        )
        frozen = LexiconSet(
            {
                "a": LanguageLexicon(frozenset({"le", "de"}), frozenset("éè")),
                "b": LanguageLexicon(frozenset({"el", "de"}), frozenset("ñé")),
            }
        )
        assert loose == frozen
        assert loose._index == frozen._index
        assert loose.fingerprint() == frozen.fingerprint()
        for language in loose.languages.values():
            assert type(language) is LanguageLexicon
            assert all(type(field) is frozenset for field in language)

    def test_names_the_least_bad_term_under_any_hash_seed(self):
        # A frozenset's order follows the hash seed; the message must not.
        script = (
            "from lexid import LanguageLexicon, LexiconError, LexiconSet\n"
            "try:\n"
            "    LexiconSet({'x': LanguageLexicon({'le', 'La', 'Un', 'De', 'x y'}, ())})\n"
            "except LexiconError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lexicon.__file__).resolve().parents[1])
        messages = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in range(1, 7)
        }
        assert messages == {"language 'x': stop word 'De' is not a single normalized token\n"}

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


def index_findings(lex):
    """What ``validate_lexicon`` reports, with stop-word sharing read off the position index."""
    n_langs = lex.n_languages
    findings = []
    if n_langs < 2:
        findings.append(("error", f"only {n_langs} language(s); classification needs at least 2"))
    findings += [
        ("warning", f"stop word {term!r} appears in {len(positions)} of {n_langs} languages")
        for term, positions in sorted(lex._index[STOPWORD].items())
        if len(positions) >= max(2, n_langs - 1)
    ]
    accented = {
        ch
        for lexicon in lex.languages.values()
        for word in lexicon.stopwords
        for ch in word
        if ch in FOLDING_TABLE
    }
    findings += [
        ("warning", f"character {ch!r} appears in stop words but in no diacritic set")
        for ch in sorted(accented - lex.all_diacritics)
    ]
    findings += [
        ("warning", f"language {code!r} has an empty diacritic set")
        for code, lexicon in lex.languages.items()
        if not lexicon.diacritics
    ]
    return findings


class TestValidate:
    @pytest.mark.parametrize("augmented", [False, True])
    def test_findings_match_the_position_index_on_the_demo(self, demo_lex, augmented):
        lex = augment_with_stripped_variants(demo_lex) if augmented else demo_lex
        findings = validate_lexicon(lex)
        assert findings == index_findings(lex)
        assert any(f.message.startswith("stop word") for f in findings)

    @given(st.integers(0, 2**32 - 1))
    def test_findings_match_the_position_index(self, seed):
        _, lex, _ = random_instance(random.Random(seed))
        # Every language also lists the first one's stop words, so most draws share some.
        first = lex.languages[lex.codes[0]].stopwords
        shared = {
            code: lexicon._replace(stopwords=lexicon.stopwords | first)
            for code, lexicon in lex.languages.items()
        }
        single = dict(list(lex.languages.items())[:1])
        for candidate in (lex, LexiconSet(shared), LexiconSet(single)):
            assert validate_lexicon(candidate) == index_findings(candidate)

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
    """``term``'s single :func:`_tokens` token, or None where there is none."""
    tokens, _ = _tokens(term)
    return tokens[0] if len(tokens) == 1 else None


def _folded_diacritic(term):
    """``term`` as one lowercase NFC letter, or None where it is not one."""
    letter = unicodedata.normalize("NFC", term.lower())
    return letter if len(letter) == 1 and letter.isalpha() else None


#: Per kind, the canonical form ``_all_canonical`` must hold a term to.
REFERENCE = {STOPWORD: _tokenized_stop_word, DIACRITIC: _folded_diacritic}

#: Canonical neighbours for a term under test: a diacritic list needs single letters.
BULK_NEIGHBOURS = ((STOPWORD, "le", "de"), (DIACRITIC, "é", "a"))


class TestStopWordEntry:
    """``_all_canonical`` holds for exactly the terms that tokenizing or folding leaves unchanged."""

    def test_every_code_point(self):
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            # Two-letter words, and capitals whose lowercase may expand.
            for term in (ch, f"a{ch}", ch.upper()) if ch.isalpha() else (ch,):
                for kind, left, right in BULK_NEIGHBOURS:
                    canonical = REFERENCE[kind](term) == term
                    assert _all_canonical(kind, (term,)) == canonical, (kind, hex(cp))
                    assert _all_canonical(kind, [left, term, right]) == canonical, (kind, hex(cp))

    @given(st.sampled_from([STOPWORD, DIACRITIC]), st.text(min_size=1, max_size=12))
    def test_arbitrary_words(self, kind, term):
        assert _all_canonical(kind, (term,)) == (REFERENCE[kind](term) == term)

    def test_examples(self):
        assert _entry(STOPWORD, "Le") == "le"
        assert _entry(STOPWORD, "cafe\u0301") == "café"
        assert _entry(STOPWORD, "şi") == "şi"
        with pytest.raises(LexiconError, match="not a single word"):
            _entry(STOPWORD, "x²y")


def canonical_words(rng, n):
    """``n`` distinct canonical stop words of two to eight lowercase letters, some accented."""
    words = set()
    while len(words) < n:
        letters = rng.choices("abcdefghijklmnopqrstuvwxyzàçéèíñóșțúü", k=rng.randint(2, 8))
        words.add("".join(letters))
    return sorted(words)


@functools.cache
def canonical_letters():
    """Every code point that is a canonical diacritic, in code-point order."""
    return tuple(ch for ch in map(chr, range(sys.maxunicode + 1)) if _folded_diacritic(ch) == ch)


class TestBulkCheck:
    """``_all_canonical`` on a list equals checking its terms one by one; loading relies on it."""

    def test_every_canonical_letter_at_once(self):
        letters = list(canonical_letters())
        random.Random(20261020).shuffle(letters)
        assert _all_canonical(STOPWORD, letters) and _all_canonical(DIACRITIC, letters)

    def test_separator_keeps_terms_apart(self):
        # Joined without a separator, the two jamo would compose to "가".
        assert _all_canonical(STOPWORD, ["ᄀ", "ᅡ"]) and _all_canonical(DIACRITIC, ["ᄀ", "ᅡ"])
        # Both lowercase sigmas are canonical wherever they stand.
        assert _all_canonical(STOPWORD, ["ας"]) and _all_canonical(STOPWORD, ["ας", "σα"])

    @pytest.mark.parametrize("bad", ["", "a\nb", "Σ", "İ", "e\u0301", "\ud800"])
    def test_one_bad_term_fails_the_list(self, bad):
        for kind, left, right in BULK_NEIGHBOURS:
            assert not _all_canonical(kind, [left, bad, right])
            assert not _all_canonical(kind, [bad])

    def test_empty(self):
        assert _all_canonical(STOPWORD, []) and _all_canonical(DIACRITIC, frozenset())

    @given(
        st.sampled_from([STOPWORD, DIACRITIC]),
        st.lists(
            st.sampled_from(["le", "é", "a", "ς", "ᄀ", "ᅡ", "Σ", "İ", ""]) | st.text(max_size=3),
            max_size=20,
        ),
    )
    def test_agrees_with_the_predicate(self, kind, terms):
        assert _all_canonical(kind, terms) == all(REFERENCE[kind](t) == t for t in terms)

    def test_canonical_files_skip_the_per_term_checks(self, tmp_path, monkeypatch):
        rng = random.Random(23)
        lex = LexiconSet(
            {
                code: LanguageLexicon(frozenset(canonical_words(rng, 650)), frozenset(letters))
                for code, letters in (("a", "éè"), ("b", "ñé"), ("c", "șț"))
            }
        )
        save_lexicon(lex, tmp_path)
        unpatched = load_lexicon(tmp_path)

        def fail(*args):
            raise AssertionError("per-term check on canonical input")

        def bulk_only(kind, terms):
            if len(terms) == 1:
                fail()
            return all_canonical(kind, terms)

        all_canonical = lexicon._all_canonical
        monkeypatch.setattr(lexicon, "_entry", fail)
        monkeypatch.setattr(lexicon, "_all_canonical", bulk_only)
        patched = load_lexicon(tmp_path)
        assert patched == unpatched == lex
        assert patched._index == unpatched._index
        assert patched.fingerprint() == unpatched.fingerprint()

    def test_fallback_names_the_line_it_normalized(self, tmp_path, monkeypatch):
        words = canonical_words(random.Random(3000), 3000)
        words[2499] = "Le"
        write_lexicon_dir(tmp_path, {"fr": (words, ["é"]), "it": (["di"], ["ì"])})
        read = []
        read_text = lexicon._read_text
        monkeypatch.setattr(lexicon, "_read_text", lambda p: read.append(p) or read_text(p))
        findings = []
        lex = load_lexicon(tmp_path, warnings_to=findings)
        assert sorted(read) == sorted(tmp_path.glob("*/*.txt"))  # each file once, the fallback too
        path = tmp_path / "fr" / "stopwords.txt"
        assert [f.message for f in findings] == [f"{path}:2500: normalized 'Le' to 'le'"]
        assert lex.languages["fr"].stopwords == frozenset(words) - {"Le"} | {"le"}

    def test_fallback_names_the_line_it_rejects(self, tmp_path):
        words = canonical_words(random.Random(3000), 3000)
        words[2499], words[2998] = "Le", "x²y"
        write_lexicon_dir(tmp_path, {"fr": (words, ["é"]), "it": (["di"], ["ì"])})
        message = f"{tmp_path / 'fr' / 'stopwords.txt'}:2999: stop word 'x²y' is not a single word"
        with pytest.raises(LexiconError, match=re.escape(message)):
            load_lexicon(tmp_path)

    def test_fallback_normalizes_only_the_lines_that_fail_alone(self, tmp_path, monkeypatch):
        write_lexicon_dir(tmp_path, {"fr": (["le", "Le", "de", "la"], ["é"]), "it": (["di"], ["ì"])})
        calls = []
        entry = lexicon._entry

        def counted(kind, term):
            calls.append(term)
            return entry(kind, term)

        monkeypatch.setattr(lexicon, "_entry", counted)
        findings = []
        lex = load_lexicon(tmp_path, warnings_to=findings)
        assert calls == ["Le"]
        path = tmp_path / "fr" / "stopwords.txt"
        assert [f.message for f in findings] == [f"{path}:2: normalized 'Le' to 'le'"]
        assert lex.languages["fr"].stopwords == frozenset({"le", "de", "la"})

    def test_constructor_names_the_bad_term(self):
        diacritics = frozenset(canonical_letters()[:600]) | {"É"}
        message = "language 'x': diacritic 'É' is not a single letter in lowercase NFC"
        with pytest.raises(LexiconError, match=re.escape(message)):
            LexiconSet({"x": LanguageLexicon(frozenset({"le"}), diacritics)})


def reference_load(root, warnings_to):
    """The loader that checks each file as it reads it with ``_read_entries``, then the set."""
    languages = {}
    for lang_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        code = lang_dir.name.lower()
        if code in languages:
            raise LexiconError(f"duplicate language code {code!r} under {root}")
        paths = {kind: lang_dir / name for kind, name in lexicon._DICTIONARIES.items()}
        for path in paths.values():
            if not path.is_file():
                raise LexiconError(f"missing lexicon file {path}")
        languages[code] = LanguageLexicon._make(
            lexicon._read_entries(path, kind, warnings_to) for kind, path in paths.items()
        )
    if not languages:
        raise LexiconError(f"no language directories under {root}")
    try:
        return LexiconSet(languages)
    except LexiconError as exc:
        raise LexiconError(f"{root}: {exc}") from None


def loaded(load, root):
    """What ``load`` makes of ``root`` (languages, index and digest, or the error) and its findings."""
    findings = []
    try:
        lex = load(root, warnings_to=findings)
    except LexiconError as exc:
        return str(exc), findings
    index = [list(terms.items()) for terms in lex._index.values()]
    return (list(lex.languages.items()), index, lex.fingerprint()), findings


#: Lexicons with two faults: their languages, the files then replaced
#: (``None`` removes one), the warnings and the error loading one gives,
#: as the loader that checked each file as it read it gave them, and the
#: files the loader reads.  Sorted paths put ``B`` before ``a``.
TWO_FAULTS = {
    "normalized line, then duplicate codes": (
        {"a": (["le", "Le"], ["é"]), "B": (["di"], ["ì"]), "b": (["el"], ["ñ"])},
        {},
        ["{root}/a/stopwords.txt:2: normalized 'Le' to 'le'"],
        "duplicate language code 'b' under {root}",
        ["B/diacritics.txt", "B/stopwords.txt", "a/diacritics.txt", "a/stopwords.txt"],
    ),
    "rejected line, then a missing file": (
        {"a": (["le", "x²y"], ["é"]), "b": (["el"], ["ñ"])},
        {"b/diacritics.txt": None},
        [],
        "{root}/a/stopwords.txt:2: stop word 'x²y' is not a single word",
        ["a/diacritics.txt", "a/stopwords.txt"],
    ),
    "normalized line, then a reserved code": (
        {"a": (["le", "Le"], ["é"]), "und": (["el"], ["ñ"])},
        {},
        ["{root}/a/stopwords.txt:2: normalized 'Le' to 'le'"],
        "{root}: language code 'und' is reserved",
        ["a/diacritics.txt", "a/stopwords.txt", "und/diacritics.txt", "und/stopwords.txt"],
    ),
    "normalized line, then invalid UTF-8": (
        {"a": (["le", "Le"], ["é"]), "b": (["el"], ["ñ"])},
        {"b/stopwords.txt": b"el\n\xff\n"},
        ["{root}/a/stopwords.txt:2: normalized 'Le' to 'le'"],
        "{root}/b/stopwords.txt:2: invalid UTF-8 at byte 1",
        ["a/diacritics.txt", "a/stopwords.txt", "b/stopwords.txt"],
    ),
}


def write_two_faults(root, name):
    languages, replaced, *_ = TWO_FAULTS[name]
    write_lexicon_dir(root, languages)
    for path, data in replaced.items():
        if data is None:
            (root / path).unlink()
        else:
            (root / path).write_bytes(data)


class TestLoadChecksOnce:
    """The loader checks a load once, in ``LexiconSet``, and walks only a load that fails."""

    @pytest.mark.parametrize("name", TWO_FAULTS)
    def test_two_faults_report_the_first_line_then_the_load(self, tmp_path, monkeypatch, name):
        root = tmp_path / "lex"
        write_two_faults(root, name)
        _, _, warnings, error, files = TWO_FAULTS[name]
        read = []
        read_text = lexicon._read_text
        monkeypatch.setattr(lexicon, "_read_text", lambda p: read.append(p) or read_text(p))
        findings = []
        with pytest.raises(LexiconError) as exc:
            load_lexicon(root, warnings_to=findings)
        assert str(exc.value) == error.format(root=root)
        assert [str(f) for f in findings] == [f"warning: {w.format(root=root)}" for w in warnings]
        assert sorted(read) == [root / path for path in files]  # each file once, if at all
        assert loaded(load_lexicon, root) == loaded(reference_load, root)

    @pytest.mark.parametrize("name", TWO_FAULTS)
    def test_dict_validate_on_two_faults(self, tmp_path, name):
        root = tmp_path / "lex"
        write_two_faults(root, name)
        _, _, warnings, error, _ = TWO_FAULTS[name]
        result = subprocess.run(
            [sys.executable, "-m", "lexid.cli", "dict", "validate", "--lexicon", str(root)],
            env={**os.environ, "PYTHONPATH": str(Path(lexicon.__file__).resolve().parents[1])},
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=120,
        )
        stderr = "".join(f"WARNING: {w}\n" for w in warnings) + f"lexid: lexicon error: {error}\n"
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == stderr.format(root=root)

    def test_an_unreadable_file_comes_after_the_lines_before_it(self, tmp_path, monkeypatch):
        write_lexicon_dir(tmp_path, {"a": (["Le"], ["é"]), "b": (["el"], ["ñ"])})
        read_text = lexicon._read_text

        def unreadable(path):
            if path.parent.name == "b":
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path)

        monkeypatch.setattr(lexicon, "_read_text", unreadable)
        findings = []
        with pytest.raises(PermissionError):
            load_lexicon(tmp_path, warnings_to=findings)
        path = tmp_path / "a" / "stopwords.txt"
        assert [f.message for f in findings] == [f"{path}:1: normalized 'Le' to 'le'"]

    def test_checks_each_list_once(self, tmp_path, monkeypatch):
        rng = random.Random(29)
        lex = LexiconSet(
            {
                code: LanguageLexicon(frozenset(canonical_words(rng, 200)), frozenset(letters))
                for code, letters in (("a", "éè"), ("b", "ñé"), ("c", "șț"))
            }
        )
        save_lexicon(lex, tmp_path)
        checked = []
        all_canonical = lexicon._all_canonical
        monkeypatch.setattr(
            lexicon, "_all_canonical", lambda k, t: checked.append((k, t)) or all_canonical(k, t)
        )
        assert load_lexicon(tmp_path) == lex
        assert checked == [
            (kind, terms)
            for language in lex.languages.values()
            for kind, terms in zip(lexicon._DICTIONARIES, language)
        ]

    @given(
        codes=st.lists(st.sampled_from(["a", "B", "b", "c", "und"]), min_size=1, max_size=3,
                       unique=True),
        stopwords=st.lists(
            word_list_parts(
                st.sampled_from(["le", "Le", "DE", " la ", "", "  ", "# x", "#", "\ufeff\ufeffdi",
                                 "cafe\u0301", "ÇA"])
            ),
            min_size=3,
            max_size=3,
        ),
        diacritics=st.lists(
            word_list_parts(st.sampled_from(["é", "É", "e\u0301", " ñ ", "", "# é"])),
            min_size=3,
            max_size=3,
        ),
        fault=st.sampled_from([b"", b"\xff\n", "bon jour\n".encode(), "x²y\n".encode(), b"1\n"]),
        faulty=st.integers(0, 5),
    )
    def test_matches_the_reference_loader(
        self, folder, codes, stopwords, diacritics, fault, faulty
    ):
        root = folder / "lex"
        shutil.rmtree(root, ignore_errors=True)
        write_lexicon_dir(root, {code: ([], []) for code in codes})
        files = [
            (root / code / name, parts)
            for code, parts in zip(codes, zip(stopwords, diacritics))
            for name, parts in zip(("stopwords.txt", "diacritics.txt"), parts)
        ]
        for number, (path, parts) in enumerate(files):
            path.write_bytes(word_list(parts) + (fault if number == faulty else b""))
        assert loaded(load_lexicon, root) == loaded(reference_load, root)

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reference")
