"""Tokenizers: one casefold per text gives the tokens of one per token."""

import random
import re
import string
import sys

import pytest

from hopqg.textutil import STOPWORDS, clean_tokens, content_set, content_tokens, match_tokens
from oracles import oracle_match_tokens

# Casefolds that change a text's length or could depend on their
# neighbours, whitespace outside ASCII, and tokens of punctuation only.
TEXTS = [
    "Die Straße ist LANG.",  # ß folds to ss
    "İstanbul, ISTANBUL and istanbul",  # İ folds to i + combining dot
    "ŉ (ŉ) starts 'ŉa'",  # ŉ folds to ʼn
    "ΟΔΟΣ, ὈΔΌΣ. οδος and οδοσ",  # final and medial sigma both fold to σ
    "Ｆｕｌｌ Ａ ＡＢＣ. ＦＵＬＬ",  # fullwidth letters
    "ﬁsh ﬀ ǅ ᾈ",  # ligatures, a titlecase digraph, a Greek letter with iota
    "Tom\u00a0Cruise starred\u2028in Top\u3000Gun\u0085now",  # NBSP, U+2028, ideographic space, NEL
    "... -- !? (a) \"the\" 'Who' ?! ¿ «»",
    "The film is a remake; it was directed by Alfred Hitchcock.",
    "",
    " \t\n ",
]


def test_the_texts_change_length_under_casefold():
    assert any(len(text.casefold()) != len(text) for text in TEXTS)


@pytest.mark.parametrize("text", TEXTS)
def test_tokens_agree_with_the_per_token_oracle(text):
    want = oracle_match_tokens(text)
    assert match_tokens(text) == want
    assert content_tokens(text) == [t for t in want if t not in STOPWORDS]
    assert clean_tokens(text) == [t.strip(string.punctuation).casefold() for t in text.split()]
    assert content_set(clean_tokens(text)) == {t for t in want if t not in STOPWORDS}


def test_casefold_maps_each_character_apart_from_whitespace_and_punctuation():
    """What casefolding a text before splitting it relies on, checked for
    every code point: no character folds to nothing, to whitespace or to
    ASCII punctuation, and both of those fold to themselves."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = {c for c in every if c.isspace()}
    special = spaces | set(string.punctuation)
    changed = {}
    for c in every:
        folded = c.casefold()
        if folded != c:
            changed[c] = folded
    assert not special & changed.keys()
    assert all(folded and not special & set(folded) for folded in changed.values())
    # A text folds as its characters do, one by one, also where a
    # lowercasing would look at the neighbours (a word-final sigma).
    rng = random.Random(0)
    pool = sorted(changed) + sorted(special) + list("ΣσςAa")
    for text in TEXTS + ["".join(rng.choice(pool) for _ in range(12)) for _ in range(2000)]:
        assert text.casefold() == "".join(c.casefold() for c in text)
    # The rule QA finds its tokens' offsets with \S+ and cleans them with
    # str.split: both split at the same characters.
    assert set(re.findall(r"\s", every)) == spaces
