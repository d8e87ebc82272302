"""The raw-text path that ``evaluate`` and ``detect`` classify through.

``scoring._classify_text`` counts a text's tokens and only the lexicon's
diacritics, one whitespace-cut chunk at a time.  Its verdict and scores
must equal ``classify(normalize_text(t))`` bit for bit under every
preset: on hypothesis text, on the golden texts and at chunk boundaries.
"""

import contextlib
import io
import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from lexid import (
    PRESETS,
    LanguageLexicon,
    LexiconSet,
    augment_with_stripped_variants,
    classify,
    demo_lexicon_dir,
    load_lexicon,
    normalize_text,
)
from lexid import normalize
from lexid.cli import main
from lexid.normalize import _CHUNK, _chunks
from lexid.scoring import _classify_text
from test_normalize import (
    ROMANCE_LETTERS,
    TRICKY_PIECES,
    assert_term_counts,
    tricky_text,
    url_marker_text,
)
from test_scores_golden import TEXTS as GOLDEN_TEXTS

# Greek sigma lowercases by context (final "ς" or "σ"), so a lexicon
# listing both tells a cut that changed the context from one that did not.
EDGE_LEX = LexiconSet(
    {
        "a": LanguageLexicon(frozenset({"la", "casa", "y", "ος", "x"}), frozenset("éςü")),
        "b": LanguageLexicon(frozenset({"el", "casa", "y", "σας"}), frozenset("ñσé")),
        "c": LanguageLexicon(frozenset({"le", "z"}), frozenset()),
    }
)
# No language lists a diacritic, so only non-ASCII letters are counted.
NO_DIACRITICS_LEX = LexiconSet(
    {
        "a": LanguageLexicon(frozenset({"la", "le"}), frozenset()),
        "b": LanguageLexicon(frozenset({"la", "el"}), frozenset()),
    }
)
# ASCII letters listed as diacritics, which the raw path keeps among the
# characters it counts while it drops every other ASCII character.
ASCII_DIACRITICS_LEX = LexiconSet(
    {
        "a": LanguageLexicon(frozenset({"la", "casa"}), frozenset("aé")),
        "b": LanguageLexicon(frozenset({"el", "casa"}), frozenset("zñ")),
    }
)
# Stop words with letters no language lists as a diacritic ("ß", "ø"),
# which the raw path counts as characters and the scorer never reads.
NON_DIACRITIC_LETTERS_LEX = LexiconSet(
    {
        "de": LanguageLexicon(frozenset({"daß", "straße", "für"}), frozenset("ü")),
        "da": LanguageLexicon(frozenset({"kø", "sø", "og"}), frozenset("å")),
    }
)
DEMO_LEX = load_lexicon(demo_lexicon_dir())
LEXICONS = {
    "demo": DEMO_LEX,
    "stripped": augment_with_stripped_variants(DEMO_LEX),
    "edge": EDGE_LEX,
    "no-diacritics": NO_DIACRITICS_LEX,
    "ascii-diacritics": ASCII_DIACRITICS_LEX,
    "non-diacritic-letters": NON_DIACRITIC_LETTERS_LEX,
}

# Tricky pieces mixed with whole stop words, so that texts match terms.
STOPWORDS = sorted({w for lex in LEXICONS.values() for l in lex.languages.values()
                    for w in l.stopwords})
term_text = st.lists(
    st.one_of(
        st.sampled_from(ROMANCE_LETTERS),
        st.sampled_from(TRICKY_PIECES + ["Σ", "ΑΣ", "σ", "x²y", "e\u0301", "ß", "Ø", "’"]),
        st.sampled_from(STOPWORDS),
    ),
    max_size=40,
).map("".join)


def assert_same(raw, lexicons=LEXICONS.values()):
    nt = normalize_text(raw)
    for lex in lexicons:
        for cfg in PRESETS.values():
            verdict, scores = classify(nt, lex, cfg)
            got_verdict, values = _classify_text(raw, lex, cfg)
            assert got_verdict == verdict, (raw[:80], cfg)
            assert [v.hex() for v in values] == [v.hex() for v in scores.values()], (raw[:80], cfg)


@contextlib.contextmanager
def chunk_size(size):
    """Cut texts longer than ``size`` characters, so short texts cross chunks."""
    with mock.patch.object(normalize, "_CHUNK", size):
        yield


class TestHypothesis:
    @given(term_text)
    def test_term_text(self, raw):
        assert_same(raw)

    @given(tricky_text)
    def test_tricky_text(self, raw):
        assert_same(raw)

    @given(url_marker_text)
    def test_url_marker_text(self, raw):
        assert_same(raw)

    @given(st.text(max_size=200))
    def test_arbitrary_text(self, raw):
        assert_same(raw)

    @given(st.one_of(term_text, tricky_text, url_marker_text), st.integers(0, 8))
    def test_small_chunks(self, raw, size):
        with chunk_size(size):
            assert_same(raw)

    @given(st.one_of(term_text, tricky_text, st.text(max_size=100)), st.integers(0, 8))
    def test_chunks_are_cut_right_after_whitespace(self, raw, size):
        with chunk_size(size):
            chunks = list(_chunks(raw))
        assert "".join(chunks) == raw
        for chunk in chunks[:-1]:
            assert chunk[-1].isspace()
            assert not any(ch.isspace() for ch in chunk[size:-1])


class TestTermCounts:
    """The raw path counts what ``normalize_text`` counts, not only what scores alike."""

    @given(st.one_of(term_text, tricky_text, url_marker_text, st.text(max_size=100)),
           st.integers(0, 8))
    def test_counts_equal_normalize_text(self, raw, size):
        nt = normalize_text(raw)
        for lex in LEXICONS.values():
            with chunk_size(size):
                for text in (raw, raw + "\n"):
                    assert_term_counts(text, lex, nt)


def test_golden_texts():
    for text in GOLDEN_TEXTS:
        assert_same(text)


# Pieces are placed at the cut of chunks this long; the cut works alike at any size.
CUT = 100


def at_cut(before, after, offset=0):
    """``before``, a space ``offset`` characters from the chunk size ``CUT``, then ``after``."""
    filler = ("casa la é " * (CUT // 10 + 1))[: CUT + offset - len(before)]
    return f"{filler}{before} {after} y la"


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize(
    "before, after",
    [
        ("la", "http://casa.example/é casa"),
        ("http://casa.example/ñ", "casa"),
        ("la", "www.ñ.example"),
        ("casa", "\ufeffhttp://é.example ñ"),
        ("casa", "\ufeffla"),
        ("casa\ufeff", "la"),
        ("e", "\u0301"),
        ("e\u0301", "ñ"),
        ("ca", "\u0301sa"),
        ("ΑΣ", "ΑΣ"),
        ("Σ", "σας"),
        ("ΟΣ", "x"),
        ("x²y", "½la"),
        ("la", "x²y"),
    ],
)
def test_pieces_at_the_cut(before, after, offset):
    raw = at_cut(before, after, offset)
    with chunk_size(CUT):
        assert len(list(_chunks(raw))) == 2
        assert_same(raw, [EDGE_LEX, DEMO_LEX])


@pytest.mark.parametrize("length", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_text_about_one_chunk_long(length):
    # Ends in whitespace: one character past the chunk size is cut there.
    raw = ("la casa é ñ " * (_CHUNK // 12 + 1))[: length - 1] + " "
    assert len(raw) == length
    assert len(list(_chunks(raw))) == (1 if length <= _CHUNK else 2)
    assert_same(raw, [EDGE_LEX])


def test_multi_chunk_text_without_whitespace():
    raw = "la,casa,é,x²y," * (3 * _CHUNK // 14)
    assert list(_chunks(raw)) == [raw]
    assert_same(raw, [EDGE_LEX])


def test_whitespace_only_in_the_first_chunks():
    raw = "la casa é " * (_CHUNK // 4) + "el,ñ,σας," * (_CHUNK // 8)
    assert len(list(_chunks(raw))) == 3
    assert_same(raw, [EDGE_LEX])


def test_memory_is_bounded_by_one_chunk():
    def peak(raw):
        tracemalloc.start()
        try:
            _classify_text(raw, EDGE_LEX, PRESETS["test9"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = "la casa " * (_CHUNK // 8)
    assert len(list(_chunks(one_chunk))) == 1
    peak(one_chunk)  # build the byte table and the scorer before measuring
    raw = "la casa " * 100_000  # 800 kB, 200,000 tokens, 13 chunks
    # A second chunk's tokens held while the next is tokenized would double it.
    assert peak(raw) < 1.5 * peak(one_chunk)


def test_detect_scores_bytes_on_golden_texts(tmp_path):
    path = tmp_path / "golden.txt"
    # Extra lines end in a final sigma, a URL, a numeric and a \r; ``detect``
    # keeps each line's trailing \n, which must change none of their counts.
    extra = ["la casa ΑΣ", "el niño http://casa.example/é", "la é x²", "le café\r"]
    texts = [*GOLDEN_TEXTS, *extra]
    path.write_text("".join(f"{text}\n" for text in texts), encoding="utf-8")
    for name, cfg in PRESETS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["detect", "--lexicon", str(demo_lexicon_dir()), "--preset", name,
                         "--scores", "--file", str(path)])
        assert code == 0
        expected = []
        for text in texts:
            verdict, scores = classify(normalize_text(text), DEMO_LEX, cfg)
            record = {"language": verdict.language or "und", "reason": verdict.reason,
                      "scores": scores}
            expected.append(json.dumps(record, ensure_ascii=False) + "\n")
        assert out.getvalue() == "".join(expected)


def test_loading_builds_no_scorer():
    assert load_lexicon(demo_lexicon_dir())._scorers == {}


def test_classify_leaves_the_diacritic_table_unbuilt():
    lex = load_lexicon(demo_lexicon_dir())
    for text in GOLDEN_TEXTS:
        classify(normalize_text(text), lex, PRESETS["test9"])
    assert "_ascii_non_diacritics" not in vars(lex)
    _classify_text(GOLDEN_TEXTS[0], lex, PRESETS["test9"])
    assert "_ascii_non_diacritics" in vars(lex)
