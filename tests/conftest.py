import pytest

from lexid import LanguageLexicon, LexiconSet, demo_lexicon_dir, load_lexicon


@pytest.fixture(scope="session")
def demo_lex() -> LexiconSet:
    return load_lexicon(demo_lexicon_dir())


@pytest.fixture(scope="session")
def diacritics_only_lex(demo_lex) -> LexiconSet:
    """The five built-in diacritic sets with empty stop-word lists."""
    return LexiconSet(
        {
            code: LanguageLexicon(stopwords=frozenset(), diacritics=lexicon.diacritics)
            for code, lexicon in demo_lex.languages.items()
        }
    )


@pytest.fixture()
def ab_lex() -> LexiconSet:
    """Two-language toy lexicon: a={le,la,é}, b={el,la,ñ}."""
    return LexiconSet(
        {
            "a": LanguageLexicon(stopwords=frozenset({"le", "la"}), diacritics=frozenset("é")),
            "b": LanguageLexicon(stopwords=frozenset({"el", "la"}), diacritics=frozenset("ñ")),
        }
    )
