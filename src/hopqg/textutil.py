"""Small text helpers used for node matching, overlap scoring and filtering."""

from __future__ import annotations

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


def collapse(text: str) -> str:
    """Normalize internal whitespace to single spaces."""
    return " ".join(text.split())


def norm_key(text: str) -> str:
    """Casefolded, whitespace-collapsed form used for exact node identity."""
    return collapse(text).casefold()


def strip_punct(token: str) -> str:
    return token.strip(_PUNCT)


def match_tokens(text: str) -> list[str]:
    """Casefolded tokens with edge punctuation removed; empty tokens dropped."""
    out = []
    for tok in text.split():
        tok = strip_punct(tok).casefold()
        if tok:
            out.append(tok)
    return out


def content_tokens(text: str) -> list[str]:
    return [t for t in match_tokens(text) if t not in STOPWORDS]
