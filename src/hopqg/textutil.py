"""Small text helpers used for node matching, overlap scoring and filtering."""

from __future__ import annotations

import re
import string

PRONOUNS = {
    "it", "he", "she", "they", "him", "her", "them", "his", "hers", "its",
    "their", "theirs", "this", "that", "these", "those", "itself", "himself",
    "herself", "themselves", "i", "we", "you", "us", "me", "who", "which",
}

# Closed stopword list; enough for overlap scoring, not a linguistic resource.
STOPWORDS = {
    "a", "an", "the", "is", "are", "was", "were", "be", "been", "being",
    "of", "in", "on", "at", "to", "for", "with", "by", "from", "as",
    "and", "or", "but", "not", "no", "do", "does", "did", "has", "have",
    "had", "which", "who", "whom", "whose", "what", "where", "when", "why",
    "how", "that", "this", "these", "those", "it", "its", "he", "she",
    "they", "them", "his", "her", "their", "there", "also", "than", "then",
    "so", "such", "into", "about", "after", "before", "between", "during",
}

_PUNCT = string.punctuation
# str.translate table deleting each ASCII punctuation character.
_DROP_PUNCT = str.maketrans("", "", _PUNCT)
_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")


def collapse(text: str) -> str:
    """Normalize internal whitespace to single spaces."""
    return " ".join(text.split())


def norm_key(text: str) -> str:
    """Casefolded, whitespace-collapsed form used for exact node identity."""
    return collapse(text).casefold()


def strip_punct(token: str) -> str:
    return token.strip(_PUNCT)


def clean_tokens(text: str) -> list[str]:
    """Casefolded whitespace tokens with edge punctuation removed, one per
    token of text.split(): a token of punctuation only becomes ''."""
    return [raw.strip(_PUNCT) for raw in text.casefold().split()]


def content_set(tokens: list[str]) -> set[str]:
    """The set of content_tokens(text), from clean_tokens(text)."""
    return {t for t in tokens if t and t not in STOPWORDS}


def match_tokens(text: str) -> list[str]:
    """Casefolded tokens with edge punctuation removed; empty tokens dropped.

    The text is casefolded once, before it is split. Casefolding maps each
    character on its own to a non-empty string holding no whitespace and no
    ASCII punctuation, and leaves whitespace and ASCII punctuation as they
    are, so the tokens are those of casefolding each stripped token.
    """
    return [tok for raw in text.casefold().split() if (tok := raw.strip(_PUNCT))]


def content_tokens(text: str) -> list[str]:
    """match_tokens without STOPWORDS."""
    return [
        tok for raw in text.casefold().split()
        if (tok := raw.strip(_PUNCT)) and tok not in STOPWORDS
    ]


def normalize_answer(text: str) -> str:
    """SQuAD-style: lowercase, strip punctuation and articles, squeeze spaces."""
    text = text.lower().translate(_DROP_PUNCT)
    text = _ARTICLES_RE.sub(" ", text)
    return " ".join(text.split())
