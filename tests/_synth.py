"""Deterministic synthetic corpora and randomized scoring instances.

The labeled corpus mixes each language's sample stop words with a small
pool of language-typical content words (all diacritic-bearing); half of
every language's documents keep their accents, the other half is
accent-stripped.  The random instance generator produces tiny lexicons
and token lists within the oracle-equivalence bounds (at most 5
languages, 30 dictionary terms, 40 tokens).
"""

import random

from lexid import LabeledDocument, LanguageLexicon, LexiconSet, strip_diacritics

CONTENT_WORDS = {
    "fr": ["français", "château", "forêt", "hôtel", "cœur", "sœur", "garçon",
           "étoile", "rêve", "île", "fenêtre", "août"],
    "it": ["città", "caffè", "università", "lunedì", "martedì", "giovedì",
           "venerdì", "verità", "libertà", "società", "qualità", "papà"],
    "pt": ["ação", "coração", "informação", "situação", "então", "português",
           "avô", "avó", "mãe", "irmã", "atenção", "opinião"],
    "ro": ["țară", "pâine", "mâine", "română", "școală", "băiat", "sâmbătă",
           "duminică", "înghețată", "cuvânt", "mulțumesc", "bătrân"],
    "es": ["español", "canción", "corazón", "mañana", "niño", "señor", "año",
           "música", "teléfono", "país", "día", "adiós"],
}


def make_corpus(lex: LexiconSet, per_language: int = 100, seed: int = 20250810):
    """Build ``per_language`` documents per language, half accent-stripped.

    Returns ``(documents, with_diacritics_ids)`` where the id set marks
    the accent-bearing half.
    """
    rng = random.Random(seed)
    documents: list[LabeledDocument] = []
    with_diacritics: set[int] = set()
    half = per_language // 2
    for code in lex.codes:
        stop_pool = sorted(lex.languages[code].stopwords)
        content_pool = CONTENT_WORDS[code]
        for i in range(per_language):
            words = rng.choices(stop_pool, k=rng.randint(3, 6))
            words += rng.choices(content_pool, k=rng.randint(2, 4))
            rng.shuffle(words)
            text = " ".join(words)
            doc_id = len(documents)
            if i < half:
                with_diacritics.add(doc_id)
            else:
                text = strip_diacritics(text)
            documents.append(LabeledDocument(gold=code, text=text, id=doc_id))
    return documents, with_diacritics


WORD_LETTERS = "abcdefgh"
ACCENTED_LETTERS = "àâáãçèéêíìñòóôõùúüșşțţăî"
NOISE_WORDS = ("zzz", "qx", "brumm", "kwik")


def random_instance(rng: random.Random):
    """One random scoring instance: plain dicts plus the LexiconSet twin.

    Returns ``(languages, lex, tokens)`` where ``languages`` maps code to
    ``(stopword set, diacritic set)`` for the brute-force oracle and
    ``lex`` is the equivalent package object.
    """
    n_langs = rng.randint(2, 5)
    languages = {}
    for i in range(n_langs):
        stopwords = set()
        for _ in range(rng.randint(0, 3)):
            word = "".join(rng.choice(WORD_LETTERS) for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.4:
                word += rng.choice(ACCENTED_LETTERS)
            stopwords.add(word)
        diacritics = {rng.choice(ACCENTED_LETTERS) for _ in range(rng.randint(0, 2))}
        languages[f"l{i}"] = (stopwords, diacritics)

    # Sorted, so the pool (and every draw from it) does not depend on
    # the per-process string hash order of the sets.
    pool = [w for stopwords, _ in languages.values() for w in sorted(stopwords)]
    pool += list(NOISE_WORDS)
    pool += [
        rng.choice(WORD_LETTERS) + rng.choice(ACCENTED_LETTERS) + rng.choice(WORD_LETTERS)
        for _ in range(3)
    ]
    tokens = rng.choices(pool, k=rng.randint(0, 40)) if pool else []

    lex = LexiconSet(
        {
            code: LanguageLexicon(stopwords=frozenset(sw), diacritics=frozenset(dia))
            for code, (sw, dia) in languages.items()
        }
    )
    return languages, lex, tokens
