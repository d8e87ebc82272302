import unicodedata

from hypothesis import given, strategies as st

from lexid import normalize_text

# Letters of the supported languages, both cases; upper/lower round-trips
# cleanly for all of them (no ß-style expansions).
ROMANCE_LETTERS = (
    "abcdefghijklmnopqrstuvwxyz"
    "àâáãæçèéêëîïìíôòóõœùûüúñșşțţăî"
)
ROMANCE_LETTERS += ROMANCE_LETTERS.upper()

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
        assert nt.raw_length == 0

    def test_urls_sigils_digits_and_case(self):
        raw = "Café—CAFÉ http://t.co/x #café123"
        nt = normalize_text(raw)
        assert nt.tokens == ("café", "café", "café")
        assert nt.char_freq == {"c": 3, "a": 3, "f": 3, "é": 3}
        assert nt.raw_length == len(raw)

    def test_www_prefix_dropped_whole(self):
        assert normalize_text("voir www.example.com demain").tokens == ("voir", "demain")

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
