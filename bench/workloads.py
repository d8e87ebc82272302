"""Seeded input generators for the benchmark workloads.

Everything lexid sees during a run comes from here: labeled texts and,
for the big-lexicon workload, a lexicon directory written to disk.  The
generators live next to the benchmark, not in the test suite, so editing
the tests can never change what the benchmark measures.

Every generated document also carries the tokens its text must normalize
to.  The generator knows them because it assembled the text from whole
words plus decorations (sigils, URLs, digits, punctuation, emoji,
capitalisation, decomposed accents) that normalization is documented to
remove; the reference scorer works from these tokens, so it never calls
``normalize_text``.
"""

from __future__ import annotations

import hashlib
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

LANGUAGES = ("es", "fr", "it", "pt", "ro")

#: Per-language diacritic sets, kept here rather than read from the
#: package so the synthetic lexicon does not depend on the code under test.
DIACRITICS = {
    "es": "áéíóúñü",
    "fr": "àâæçèéêëîïôœùûü",
    "it": "àáèéìíòóùú",
    "pt": "áâãàçéêíóôõú",
    "ro": "ăâîșşțţ",
}

#: Ordinary vocabulary, mostly accent-bearing, so that texts carry
#: diacritic evidence besides their stop words.
CONTENT_WORDS = {
    "es": ["también", "niña", "mañana", "corazón", "ciudad", "trabajo", "después",
           "señora", "pequeño", "año", "árbol", "lápiz", "jardín", "música", "baño",
           "último", "pingüino", "camión", "fácil", "perro"],
    "fr": ["théâtre", "bibliothèque", "médecin", "épicerie", "journée", "fête",
           "première", "lumière", "ville", "maison", "travail", "soirée", "hôpital",
           "goût", "noël", "naïf", "garçon", "bœuf", "leçon", "forêt"],
    "it": ["ragazzo", "giornata", "lavoro", "famiglia", "possibilità", "felicità",
           "tè", "cucina", "domani", "andrò", "farò", "città", "caffè", "virtù",
           "perciò", "lunedì", "gioventù", "pietà", "bontà", "ciò"],
    "pt": ["irmão", "cidade", "trabalho", "você", "lição", "manhã", "pão", "órgão",
           "família", "amanhã", "pôr", "três", "saúde", "água", "coração", "avô",
           "canção", "português", "nação", "pé"],
    "ro": ["mâine", "câine", "țară", "frumoasă", "întâlnire", "oraș", "școală",
           "fată", "băiat", "ceașcă", "înapoi", "cânt", "străin", "tânăr", "încă",
           "viață", "pădure", "sâmbătă", "mulțumesc", "ţară"],
}

_SYLLABLE_ONSETS = "bcdfglmnprstvz"
_SYLLABLE_VOWELS = "aeiou"
_PUNCTUATION = (",", ".", "!", "?", "...", ";", ":")
_EMOJI = ("\U0001F642", "\U0001F600", "❤", "\U0001F44D")
_SPECIAL_FOLDS = {"æ": "ae", "œ": "oe"}


def fold(word: str) -> str:
    """Accent-stripped spelling: drop combining marks after decomposition."""
    out = []
    for ch in word:
        if ch in _SPECIAL_FOLDS:
            out.append(_SPECIAL_FOLDS[ch])
            continue
        out.extend(c for c in unicodedata.normalize("NFD", ch) if not unicodedata.combining(c))
    return "".join(out)


@dataclass(frozen=True)
class Document:
    """One generated text: gold label, raw text and its expected tokens."""

    gold: str
    text: str
    tokens: tuple[str, ...]


@dataclass
class Workload:
    """Generated inputs of one benchmark run.

    ``lexicon_words`` maps code to ``(stop words, diacritics)`` when the
    workload writes its own lexicon; ``None`` means the bundled demo
    lexicon is used.
    """

    documents: list[Document]
    lexicon_words: dict[str, tuple[frozenset[str], frozenset[str]]] | None

    def corpus_tsv(self) -> bytes:
        return "".join(f"{d.gold}\t{d.text}\n" for d in self.documents).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.corpus_tsv()).hexdigest()[:16]


def read_word_file(path: Path) -> list[str]:
    """Entries of a lexicon word file: trimmed, no blanks or ``#`` comments."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [unicodedata.normalize("NFC", t.lower()) for t in lines if t and not t.startswith("#")]


def _pseudo_word(rng: random.Random, syllables: tuple[int, int] = (2, 3)) -> str:
    return "".join(
        rng.choice(_SYLLABLE_ONSETS) + rng.choice(_SYLLABLE_VOWELS)
        for _ in range(rng.randint(*syllables))
    )


def _capitalized(word: str) -> str:
    cap = word[:1].upper() + word[1:]
    # Only when lowercasing restores the word exactly (no İ-style surprises).
    return cap if unicodedata.normalize("NFC", cap.lower()) == word else word


def _tweet(rng: random.Random, code: str, stop_pool: list[str], strip: bool) -> Document:
    words = []
    for _ in range(rng.randint(5, 10)):
        r = rng.random()
        if r < 0.5:
            words.append(rng.choice(stop_pool))
        elif r < 0.85:
            words.append(rng.choice(CONTENT_WORDS[code]))
        else:
            words.append(_pseudo_word(rng))
    if strip:
        words = [fold(w) for w in words]
    chunks = list(words)
    tokens = list(words)
    if rng.random() < 0.3:
        chunks[0] = _capitalized(chunks[0])
    if rng.random() < 0.3:
        i = rng.randrange(len(chunks))
        chunks[i] = "#" + chunks[i]
    if rng.random() < 0.5:
        chunks[-1] += rng.choice(_PUNCTUATION)
    if rng.random() < 0.15:
        handle = _pseudo_word(rng)
        chunks.insert(0, "@" + handle)
        tokens.insert(0, handle)
    if rng.random() < 0.2:
        chunks.append(rng.choice(("https://t.co/", "http://ex.am/", "www.")) + _alnum(rng))
    if rng.random() < 0.2:
        chunks.insert(rng.randrange(len(chunks) + 1), str(rng.randint(0, 2030)))
    if rng.random() < 0.1:
        chunks.append(rng.choice(_EMOJI))
    text = " ".join(chunks)
    if rng.random() < 0.1:
        text = unicodedata.normalize("NFD", text)
    return Document(gold=code, text=text, tokens=tuple(tokens))


def _alnum(rng: random.Random) -> str:
    return "".join(rng.choice("abcXYZ0123456789") for _ in range(rng.randint(4, 10)))


def _article(rng: random.Random, code: str, stop_pool: list[str], n_tokens: int) -> Document:
    tokens: list[str] = []
    chunks: list[str] = []
    while len(tokens) < n_tokens:
        length = min(rng.randint(8, 20), n_tokens - len(tokens))
        for j in range(length):
            r = rng.random()
            if r < 0.45:
                word = rng.choice(stop_pool)
            elif r < 0.8:
                word = rng.choice(CONTENT_WORDS[code])
            else:
                word = _pseudo_word(rng, (1, 4))
            tokens.append(word)
            chunk = _capitalized(word) if j == 0 else word
            if rng.random() < 0.03:
                chunk = f"({chunk})"
            if j == length - 1:
                chunk += rng.choice((".", ".", ".", "!", "?"))
            elif rng.random() < 0.1:
                chunk += ","
            chunks.append(chunk)
            if rng.random() < 0.02:
                chunks.append(str(rng.randint(1, 2030)))
    return Document(gold=code, text=" ".join(chunks), tokens=tuple(tokens))


def demo_stopwords(demo_dir: Path) -> dict[str, list[str]]:
    return {code: read_word_file(demo_dir / code / "stopwords.txt") for code in LANGUAGES}


def synthetic_lexicon(
    rng: random.Random, demo_dir: Path, per_language: int = 500
) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """About ``per_language`` stop words per language plus stripped variants.

    Each list starts from the demo stop words and is topped up with
    pseudo-words; about a third carry one of the language's diacritics
    and about one in ten is shared with other languages, so the
    specificity weights take several values.  Folded spellings of the
    accented words are then added, as ``lexid dict augment`` would.
    """
    shared_pool = sorted({_pseudo_word(rng) for _ in range(per_language // 5)})
    words = {code: set(base) for code, base in demo_stopwords(demo_dir).items()}
    for code in LANGUAGES:
        accents = DIACRITICS[code]
        while len(words[code]) < per_language:
            if rng.random() < 0.1:
                word = rng.choice(shared_pool)
            else:
                word = _pseudo_word(rng)
                if rng.random() < 0.35:
                    i = rng.randrange(len(word))
                    word = word[:i] + rng.choice(accents) + word[i + 1 :]
            words[code].add(word)
    return {
        code: (
            frozenset(words[code] | {fold(w) for w in words[code]}),
            frozenset(DIACRITICS[code]),
        )
        for code in LANGUAGES
    }


def write_lexicon(
    lexicon_words: dict[str, tuple[frozenset[str], frozenset[str]]], root: Path
) -> None:
    for code, (stopwords, diacritics) in lexicon_words.items():
        lang_dir = root / code
        lang_dir.mkdir(parents=True, exist_ok=True)
        (lang_dir / "stopwords.txt").write_text(
            "".join(f"{w}\n" for w in sorted(stopwords)), encoding="utf-8"
        )
        (lang_dir / "diacritics.txt").write_text(
            "".join(f"{c}\n" for c in sorted(diacritics)), encoding="utf-8"
        )


#: Documents per workload at scale 1, sized so one evaluation pass or
#: one CLI stream takes a few tenths of a second.
SIZES = {"tweets-demo": 4000, "tweets-biglex": 1200, "articles-demo": 200}
ARTICLE_TOKENS = 400


def generate(name: str, seed: int, demo_dir: Path, scale: float = 1.0) -> Workload:
    """Build the inputs of workload ``name`` from ``seed``."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(SIZES)}")
    rng = random.Random(f"{name}:{seed}")
    n_docs = max(len(LANGUAGES) * 2, round(SIZES[name] * scale))
    lexicon_words = None
    if name == "tweets-biglex":
        lexicon_words = synthetic_lexicon(rng, demo_dir)
        pools = {code: sorted(stop) for code, (stop, _) in lexicon_words.items()}
    else:
        pools = demo_stopwords(demo_dir)
    documents = []
    for i in range(n_docs):
        code = LANGUAGES[i % len(LANGUAGES)]
        pool = pools[code]
        if name == "articles-demo":
            documents.append(_article(rng, code, pool, ARTICLE_TOKENS))
        else:
            documents.append(_tweet(rng, code, pool, strip=(i // len(LANGUAGES)) % 2 == 1))
    return Workload(documents=documents, lexicon_words=lexicon_words)
