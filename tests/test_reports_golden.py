"""Exact bytes of the table, CSV and JSON reports, pinned as SHA-256 digests.

A report is a pure function of the confusion counts, the per-reason
unclassified counts and the configuration, so a change to how the
report stores or derives its figures must leave every byte of every
format unchanged.  The cases cover seeded synthetic corpora on the demo
lexicon and on its accent-stripped augmentation, the empty corpus, a
corpus holding the ``allí estaré`` tie and the ``universitate facultate
istorie`` no-evidence anchor, and a lexicon with a language named
``overall``, whose row the CSV ACCURACY section prints next to the
``overall`` totals row.  Each case runs under all nine presets.
"""

import hashlib

import pytest
from _synth import make_corpus

from lexid import (
    PRESETS,
    LabeledDocument,
    LanguageLexicon,
    LexiconSet,
    augment_with_stripped_variants,
    demo_lexicon_dir,
    emit_report,
    evaluate,
    load_lexicon,
)

FORMATS = ("table", "csv", "json")

ANCHOR_TEXTS = [
    ("es", "allí estaré"),
    ("ro", "universitate facultate istorie"),
    ("fr", "Je ne sais pas si elle est déjà partie à la gare avec ses enfants."),
    ("it", "Non è vero che la città è più bella di notte, però è così per tutti."),
    ("pt", "nao sei se ele ja chegou a estacao mas a irma dele esta la"),
    ("es", "No sé si él ya llegó a la estación, pero su hermana está allí."),
    ("fr", "ou est la voiture que tu as achetee l annee derniere"),
]

OVERALL_TEXTS = [("overall", "le café"), ("overall", "zz"), ("b", "el"), ("b", "la ñ")]


def _documents(pairs):
    return [LabeledDocument(gold=g, text=t, id=i) for i, (g, t) in enumerate(pairs)]


@pytest.fixture(scope="module")
def cases():
    demo = load_lexicon(demo_lexicon_dir())
    stripped = augment_with_stripped_variants(demo)
    overall = LexiconSet(
        {
            "overall": LanguageLexicon(frozenset({"le", "la"}), frozenset("é")),
            "b": LanguageLexicon(frozenset({"el", "la"}), frozenset("ñ")),
        }
    )
    return {
        "demo": (make_corpus(demo, per_language=60, seed=7)[0], demo),
        "stripped": (make_corpus(stripped, per_language=60, seed=8)[0], stripped),
        "empty": ([], demo),
        "anchors": (_documents(ANCHOR_TEXTS), demo),
        "overall": (_documents(OVERALL_TEXTS), overall),
    }


def _digests(corpus, lex, preset):
    report = evaluate(corpus, lex, PRESETS[preset])
    return " ".join(
        hashlib.sha256(emit_report(report, fmt)).hexdigest()[:16] for fmt in FORMATS
    )


# (case, preset) -> space-separated digest prefixes of the table, CSV and JSON bytes.
GOLDEN = {
    ('demo', 'test1'): "3342baf212218159 5d368afccdc651db 6de81996481e063a",
    ('demo', 'test2'): "097b00e73bb82286 5d368afccdc651db a2e4eed4c7853576",
    ('demo', 'test3'): "09352d5cfdef001d 4d7a914e717807a8 ae17d69936e473dc",
    ('demo', 'test4'): "d01b9bb0f799b69b a8125dcb45aba992 80f64ac42499a2ba",
    ('demo', 'test5'): "4c3ee3b413f44095 4d7a914e717807a8 2a8d2557ab9253c0",
    ('demo', 'test6'): "cca6112bdcff0750 4d7a914e717807a8 f303f77860839299",
    ('demo', 'test7'): "cd69e227841a7abc a8125dcb45aba992 dfc9b346d0204aae",
    ('demo', 'test8'): "0f9d6f07d5bb313c a8125dcb45aba992 74d051c3a8496fcb",
    ('demo', 'test9'): "02361b18a938ef9e d19e9a87f5f7a9eb d6254da66e496ffb",
    ('stripped', 'test1'): "45808577a3e0a17c 3b638b68bd25f673 b841f9ea37d9c0ec",
    ('stripped', 'test2'): "4b80a79d08673f7d 3b638b68bd25f673 15a90f5331fae844",
    ('stripped', 'test3'): "eedceec7cc2e3366 a842e3ec3c0585f1 2942ed9c571c63af",
    ('stripped', 'test4'): "d2d36e2a711b9fcd a842e3ec3c0585f1 6a484c897f5369f1",
    ('stripped', 'test5'): "909794c7be08ad92 a842e3ec3c0585f1 e2ea7e21e937641a",
    ('stripped', 'test6'): "3f63096ef8966929 a842e3ec3c0585f1 a95e0c2cfff5bfbe",
    ('stripped', 'test7'): "213eeb13d9e3a716 a842e3ec3c0585f1 efee4e6d1967ae53",
    ('stripped', 'test8'): "c2a4c89a3dfcac49 a842e3ec3c0585f1 800dfd803e1691e3",
    ('stripped', 'test9'): "3793a15413bda905 a842e3ec3c0585f1 24021f48a25c742e",
    ('empty', 'test1'): "0005424b54c3c419 3d12f6aa1c23f790 aa08b18c1b3ccfdb",
    ('empty', 'test2'): "76d4e5db5bc0ecd8 3d12f6aa1c23f790 12bdd35a71b85cd8",
    ('empty', 'test3'): "beb78e2b068e4004 3d12f6aa1c23f790 3498f992a1a3700a",
    ('empty', 'test4'): "37ea865ffbfffc8a 3d12f6aa1c23f790 fcb7dfeb76111112",
    ('empty', 'test5'): "eb17446f5439d75a 3d12f6aa1c23f790 04540257f14429f0",
    ('empty', 'test6'): "953274b882dfeda2 3d12f6aa1c23f790 42b9aa5774876a83",
    ('empty', 'test7'): "9a2c10d353aa4b34 3d12f6aa1c23f790 bd1f4c6c5e177b60",
    ('empty', 'test8'): "1a89f8a3391e032b 3d12f6aa1c23f790 0b0a8d1612a3c4b6",
    ('empty', 'test9'): "20b6215c90296a0c 3d12f6aa1c23f790 cc0db52ed70a44d7",
    ('anchors', 'test1'): "768b51b6be1634ef b4e773f9ebaf5de6 26a747449293b580",
    ('anchors', 'test2'): "c2bb0e531ec2e9e4 b4e773f9ebaf5de6 ba430feaa1ce7b38",
    ('anchors', 'test3'): "9092c6c7110ecbcb 88a400879e3bd9bb c944c485dd27d167",
    ('anchors', 'test4'): "0a83436dcf7fd3f7 7e9af3546ff1d0f5 0eebd7a01d34d8fc",
    ('anchors', 'test5'): "f7351c1002a2ad6d 88a400879e3bd9bb ceff394ae2f385b8",
    ('anchors', 'test6'): "0a7597487c65f8bf 88a400879e3bd9bb cd62d83f69987555",
    ('anchors', 'test7'): "38281089057669aa 7e9af3546ff1d0f5 d703ddf2449bd0ad",
    ('anchors', 'test8'): "64a6abbcaf210363 7e9af3546ff1d0f5 2c68eba27c7bda3b",
    ('anchors', 'test9'): "59e7dd576a5646a7 7e9af3546ff1d0f5 0d22ec4abde6f414",
    ('overall', 'test1'): "2f15f3e4af0d1af0 f75e5b14cb7cfe1c 71a6e8d87277c024",
    ('overall', 'test2'): "aa6bf6d01027ed02 f75e5b14cb7cfe1c 218207006dca7f5e",
    ('overall', 'test3'): "ed21b07efe0a08cb f75e5b14cb7cfe1c 15ee4fff28954e86",
    ('overall', 'test4'): "38c806c146358332 f75e5b14cb7cfe1c b14ec57d2e34ae20",
    ('overall', 'test5'): "28a7f3975f4e88fa 9211694ab949bcd6 239b2b1a9163c7e7",
    ('overall', 'test6'): "1c0792c7eb1ef950 9211694ab949bcd6 0f753debde4d72f4",
    ('overall', 'test7'): "b07ebe6894d0ea2c 9211694ab949bcd6 ccfba0eeefc585ed",
    ('overall', 'test8'): "2c80c11794cc05b8 9211694ab949bcd6 b106ea5f99e05661",
    ('overall', 'test9'): "09c6cfe8ecefdffd 9211694ab949bcd6 3973d44d80518540",
}


def test_table_is_complete(cases):
    assert set(GOLDEN) == {(case, preset) for case in cases for preset in PRESETS}


@pytest.mark.parametrize("case", ["demo", "stripped", "empty", "anchors", "overall"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_reports_are_byte_identical(cases, case, preset):
    corpus, lex = cases[case]
    assert _digests(corpus, lex, preset) == GOLDEN[case, preset]
