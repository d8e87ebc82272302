import re
import string
import sys
import unicodedata
from collections import Counter
from itertools import groupby
from unittest import mock

from hypothesis import find, given, strategies as st

from lexid import NormalizedText, normalize, normalize_text
from lexid.normalize import _ASCII_NON_LETTER_TO_SPACE, _term_counts


def _reference_normalize(raw: str) -> NormalizedText:
    """The chunk-by-chunk, character-by-character tokenizer ``normalize_text`` replaced.

    Split on whitespace and U+FEFF, strip leading sigils, drop URL-like
    chunks, then cut each chunk into ``str.isalpha`` runs.
    """
    lowered = unicodedata.normalize("NFC", raw.lower())
    tokens = []
    for chunk in re.split(r"[\s\ufeff]+", lowered):
        chunk = chunk.lstrip("#@")
        if not chunk or re.match(r"(?:[a-z][a-z0-9+.-]*://|www\.)", chunk):
            continue
        tokens.extend("".join(run) for is_alpha, run in groupby(chunk, str.isalpha) if is_alpha)
    char_freq = Counter()
    for token in tokens:
        char_freq.update(token)
    return NormalizedText(
        tokens=tuple(tokens),
        char_freq=dict(char_freq),
        token_freq=dict(Counter(tokens)),
    )


# Letters of the supported languages, both cases; upper/lower round-trips
# cleanly for all of them (no ß-style expansions).
ROMANCE_LETTERS = (
    "abcdefghijklmnopqrstuvwxyz"
    "àâáãæçèéêëîïìíôòóõœùûüúñșşțţăî"
)
ROMANCE_LETTERS += ROMANCE_LETTERS.upper()

# Pieces that probe every branch of the tokenizer: non-letter numerics
# the letter-run class admits, "_", sigils, URL fragments and their parts,
# digits, a combining accent, separators str.split() knows beyond ASCII,
# the byte-order mark that also ends a URL chunk, and a lone surrogate.
# Drawn as often as single letters.
TRICKY_PIECES = [
    "²", "½", "৴", "_", "#", "@", ":", "/", ".", "w", *"0123456789",
    "\u0301", " ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "\udc80",
    "\ufeff", "http://", "www.",
]
tricky_text = st.lists(
    st.one_of(st.sampled_from(ROMANCE_LETTERS), st.sampled_from(TRICKY_PIECES)),
    max_size=40,
).map("".join)

# Texts on both sides of the URL-marker test that decides whether URL
# chunks are removed: the markers themselves, their uppercase and near misses.
url_marker_text = st.lists(
    st.one_of(
        st.sampled_from(ROMANCE_LETTERS),
        st.sampled_from(["://", "www.", "WWW.", "ww.", ":/", "w", " ", "#", "²", "1"]),
    ),
    max_size=30,
).map("".join)

ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
ASCII = "".join(map(chr, range(128)))

# Pieces around the byte-table split: every ASCII character, which the
# table turns into a space unless it is a letter; non-ASCII punctuation and
# emoji, which send their word through the per-word cut; a combining accent;
# and lone surrogates, which cross the UTF-8 round trip.  Drawn as often as
# single letters.
SPLIT_PIECES = [
    *ASCII, *"’«»“”—…¿¡", "\N{HEAVY BLACK HEART}\N{VARIATION SELECTOR-16}", "\U0001F600",
    "\N{COMBINING ACUTE ACCENT}", chr(0xDC80), chr(0xD83D),
]
split_text = st.lists(
    st.one_of(st.sampled_from(ROMANCE_LETTERS), st.sampled_from(SPLIT_PIECES)),
    max_size=40,
).map("".join)
# The letters whose counts ``_term_counts`` is asked for, as it is asked for
# a lexicon's diacritics.
COUNTED = re.compile(f"[{ROMANCE_LETTERS.lower()}]")

mixed_text = st.text(
    alphabet=st.sampled_from(list(ROMANCE_LETTERS + " \t\n.,;!?#@0123456789-")),
    max_size=80,
)


class TestNormalizeExamples:
    def test_tweet_with_punctuation(self):
        nt = normalize_text("buona sera, wagliù!")
        assert nt.tokens == ("buona", "sera", "wagliù")

    def test_empty_input(self):
        nt = normalize_text("")
        assert nt.tokens == ()
        assert nt.char_freq == {}

    def test_urls_sigils_digits_and_case(self):
        raw = "Café—CAFÉ http://t.co/x #café123"
        nt = normalize_text(raw)
        assert nt.tokens == ("café", "café", "café")
        assert nt.char_freq == {"c": 3, "a": 3, "f": 3, "é": 3}

    def test_www_prefix_dropped_whole(self):
        assert normalize_text("voir www.example.com demain").tokens == ("voir", "demain")

    def test_byte_order_mark_bounds_a_url_chunk(self):
        assert normalize_text("\ufeffhttp://t.co/abc le").tokens == ("le",)
        assert normalize_text("é http://t.co/a\ufeffle").tokens == ("é", "le")

    def test_at_sigil_stripped(self):
        assert normalize_text("@maria bonjour").tokens == ("maria", "bonjour")

    def test_decomposed_equals_composed(self):
        assert normalize_text("é") == normalize_text("é")

    def test_uppercase_diacritics_fold_to_lowercase(self):
        assert normalize_text("É").tokens == ("é",)


class TestCounts:
    def test_diacritic_count_present(self):
        assert normalize_text("allí estaré").char_freq["é"] == 1

    def test_diacritic_count_absent(self):
        assert "é" not in normalize_text("abc").char_freq

    def test_diacritic_count_recount(self):
        nt = normalize_text("ţară ţel")
        assert nt.char_freq["ţ"] == 2
        # brute-force recount over the tokens themselves
        assert sum(tok.count("ţ") for tok in nt.tokens) == 2

    def test_token_count_direct(self):
        assert normalize_text("la casa la").token_freq["la"] == 2

    def test_token_count_never_substring(self):
        assert "la" not in normalize_text("lala").token_freq

    def test_token_count_single_letter_word(self):
        assert normalize_text("il y a plongé son visage").token_freq["y"] == 1


class TestProperties:
    @given(st.text(max_size=200))
    def test_char_freq_recount(self, raw):
        nt = normalize_text(raw)
        assert sum(nt.char_freq.values()) == sum(len(tok) for tok in nt.tokens)
        for tok in nt.tokens:
            assert tok
            assert all(ch.isalpha() for ch in tok)
            assert unicodedata.normalize("NFC", tok) == tok

    @given(st.text(max_size=200))
    def test_token_freq_recount(self, raw):
        nt = normalize_text(raw)
        assert sum(nt.token_freq.values()) == len(nt.tokens)
        for tok in set(nt.tokens):
            assert nt.token_freq[tok] == sum(1 for t in nt.tokens if t == tok)

    @given(st.text(max_size=200))
    def test_idempotence(self, raw):
        nt = normalize_text(raw)
        again = normalize_text(" ".join(nt.tokens))
        assert again.tokens == nt.tokens
        assert again.char_freq == nt.char_freq

    @given(mixed_text)
    def test_composition_equivalence(self, raw):
        decomposed = unicodedata.normalize("NFD", raw)
        assert normalize_text(decomposed) == normalize_text(raw)

    @given(mixed_text)
    def test_case_fold(self, raw):
        assert normalize_text(raw.upper()).tokens == normalize_text(raw).tokens


class TestAgainstReference:
    """The one-pass tokenizer agrees exactly with the chunk-by-chunk one."""

    @given(tricky_text)
    def test_tricky_text(self, raw):
        nt, ref = normalize_text(raw), _reference_normalize(raw)
        assert nt == ref
        assert list(nt.char_freq.items()) == list(ref.char_freq.items())

    @given(st.text(max_size=200))
    def test_arbitrary_text(self, raw):
        assert normalize_text(raw) == _reference_normalize(raw)

    @given(url_marker_text)
    def test_url_marker_text(self, raw):
        nt, ref = normalize_text(raw), _reference_normalize(raw)
        assert nt == ref
        assert list(nt.char_freq.items()) == list(ref.char_freq.items())

    def test_examples(self):
        for raw in (
            "x²y ½z", "#@http://a.b c", "a_b৴c", "ok www.x.y/ö", "é\u2028ü\x85ç",
            "1www.x", "a:http://b", "##", "_é\u00a0www.é",
            # Near the URL-marker test that decides whether URL chunks are removed.
            "awww.b", "a://", "x www", "\uff37\uff37\uff37.a", "WWW.a b", "ww.a",
            "a:/b", "é://ü", "x www.", "é²www.a", "http:/a", "Ǉwww.a",
            # A removed URL chunk next to its neighbours: first, last,
            # between two other chunks and ended by unusual whitespace.
            "http://a.b é ü", "é ü www.a.b", "www.a\u3000http://b ç",
            "é\xa0www.a\xa0#http://b\xa0ü", "www.é\x85ü", "á http://x\u2028é",
            "é https://x/é é", "#@www.a@b c",
            # A byte-order mark ends a URL chunk as whitespace does.
            "\ufeffhttp://a.b é", "é\ufeffwww.a\ufeffü", "\ufeff#http://a\ufeff\ufeff",
        ):
            nt, ref = normalize_text(raw), _reference_normalize(raw)
            assert nt == ref, raw
            assert list(nt.char_freq.items()) == list(ref.char_freq.items()), raw


class TestCodePoints:
    """The regex classes the tokenizer relies on, checked on every code point."""

    def test_letter_class_is_isalpha_plus_non_letter_numerics(self):
        matched = set(re.findall(r"[^\W\d_]", ALL_CODE_POINTS))
        alpha = {ch for ch in ALL_CODE_POINTS if ch.isalpha()}
        assert alpha <= matched
        extras = matched - alpha
        # The extras exist, so the isalpha guard in the tokenizer is needed,
        # and every one is a numeric that must separate tokens.
        assert extras
        assert all(ch.isnumeric() and not ch.isalpha() for ch in extras)
        for ch in sorted(extras):
            raw = f"a{ch}b {ch}{ch}"
            assert normalize_text(raw) == _reference_normalize(raw), hex(ord(ch))

    def test_whitespace_class_is_isspace(self):
        spaces = {ch for ch in ALL_CODE_POINTS if ch.isspace()}
        assert set(re.findall(r"\s", ALL_CODE_POINTS)) == spaces
        assert ALL_CODE_POINTS.split() == re.findall(r"\S+", ALL_CODE_POINTS)
        for ch in sorted(spaces):
            raw = f"a{ch}#b{ch}www.c{ch}d"
            assert normalize_text(raw) == _reference_normalize(raw), hex(ord(ch))


def assert_matches_reference(raw):
    nt, ref = normalize_text(raw), _reference_normalize(raw)
    assert nt == ref, ascii(raw)
    assert list(nt.char_freq.items()) == list(ref.char_freq.items()), ascii(raw)
    counted = {ch: n for ch, n in ref.char_freq.items() if COUNTED.fullmatch(ch)}
    assert _term_counts(raw, COUNTED) == (ref.token_freq, counted), ascii(raw)


def cuts_a_word(raw):
    """Whether tokenizing ``raw`` cut some word into letter runs."""
    pattern = normalize._LETTER_RUN_RE
    with mock.patch.object(normalize, "_LETTER_RUN_RE", wraps=pattern) as wrapped:
        normalize_text(raw)
    return wrapped.findall.called


class TestByteTableSplit:
    """The translate-and-split tokenizer agrees with the reference on every character."""

    def test_table_spaces_exactly_the_ascii_non_letters(self):
        non_letters = {b for b in range(128) if chr(b) not in string.ascii_letters}
        assert len(non_letters) == 128 - 52
        assert len(_ASCII_NON_LETTER_TO_SPACE) == 256
        for b in range(256):
            assert _ASCII_NON_LETTER_TO_SPACE[b] == (0x20 if b in non_letters else b), b

    def test_every_ascii_character_around_letters(self):
        for c in ASCII:
            assert_matches_reference(f"{c}é{c}a{c} b{c}")

    @given(split_text)
    def test_split_text(self, raw):
        assert_matches_reference(raw)

    def test_split_text_takes_both_paths(self):
        # ``find`` fails when no text the strategy draws meets the condition.
        find(split_text, cuts_a_word)
        find(split_text, lambda raw: normalize_text(raw).tokens and not cuts_a_word(raw))
