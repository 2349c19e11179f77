"""Metric suite vs independent oracles plus published edge-case conventions."""

import collections
import functools
import hashlib
import json
import math
import os
import random
import re
import string
import subprocess
import sys

import pytest

import hopqg.evaluate
import hopqg.metrics
from hopqg.cli import DEFAULT_METRICS
from hopqg.errors import MetricError
from hopqg.evaluate import METRIC_NAMES, metric_report
from hopqg.metrics import (
    TokenTable,
    _align,
    _chunk_count,
    _NgramPass,
    bleu_n,
    cider,
    exact_match,
    lcs_length,
    light_stem,
    meteor_simplified,
    normalize_answer,
    rouge_l,
    token_f1,
    tokenize,
)
import oracles
from oracles import (
    oracle_align,
    oracle_bleu,
    oracle_cider,
    oracle_lcs,
    oracle_match_counts,
    oracle_meteor,
    oracle_normalize_answer,
    oracle_rouge_l,
    oracle_token_f1,
)

VOCAB = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "blue",
    "sky", "who", "directed", "film", "films", "gun", "top", "?", ",",
]


def random_corpus(rng, items, max_refs=3):
    corpus = []
    for _ in range(items):
        hyp = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
        refs = [
            " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
            for _ in range(rng.randint(1, max_refs))
        ]
        corpus.append((hyp, refs))
    return corpus


def test_tokenize_lowercases_and_detaches_punctuation():
    assert tokenize("Who directed Top Gun?") == ["who", "directed", "top", "gun", "?"]
    assert tokenize("a,b") == ["a", ",", "b"]
    assert tokenize("  spaced   out  ") == ["spaced", "out"]
    assert tokenize("") == []


# Characters whose class the tokenizer's pattern decides: word characters
# (letters, digits, "_", an astral letter, combining marks), ASCII and
# Unicode punctuation and symbols, every kind of whitespace str.split()
# splits on, letters whose lowercase grows, and a lone surrogate.
TOKENIZE_ALPHABET = (
    list("aZ09_?,.'-") + ["\u00bf", "\u00ab", "\u2014", "\u2026", "\u3001", "\u201c", "\u203d", "\u20ac", "\u00a9"]
    + [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
    + ["\u0301", "\u0308", "\U0001d518", "\U0001f600", "\u0130", "\u03a3", "\u00df", "\ud800"]
)


def test_tokenize_equals_the_substitution_form():
    # The published tokenizer is this substitution; tokenize must give its tokens.
    rng = random.Random(12)
    texts = ["", " ", "\u3000", "a_b", "x\u0301!", "\U0001f600?"] + [
        "".join(rng.choices(TOKENIZE_ALPHABET, k=rng.randint(0, 40))) for _ in range(3_000)
    ]
    for text in texts:
        assert tokenize(text) == re.sub(r"([^\w\s])", r" \1 ", text.lower()).split(), repr(text)


def test_lcs_kernel_matches_table_oracle():
    rng = random.Random(7)
    # Short pairs cover the empty and one-token cases; pairs of 60-150 tokens
    # carry the bit-parallel addition in lcs_length past 64 bits.
    lengths = [(0, 15)] * 200 + [(60, 150)] * 30
    for lo, hi in lengths:
        a = [rng.randint(0, 6) for _ in range(rng.randint(lo, hi))]
        b = [rng.randint(0, 6) for _ in range(rng.randint(lo, hi))]
        assert lcs_length(a, b) == oracle_lcs(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bleu_matches_oracle_on_random_corpora(n):
    rng = random.Random(100 + n)
    for _ in range(50):
        corpus = random_corpus(rng, rng.randint(2, 6))
        assert abs(bleu_n(corpus, n) - oracle_bleu(corpus, n)) <= 1e-9


def test_rouge_matches_oracle_on_random_pairs():
    rng = random.Random(5)
    for _ in range(100):
        hyp = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
        ref = " ".join(rng.choices(VOCAB, k=rng.randint(1, 12)))
        assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp, ref)) <= 1e-9


def test_cider_matches_oracle_on_random_corpora():
    rng = random.Random(31)
    for _ in range(50):
        corpus = random_corpus(rng, rng.randint(2, 5))
        assert abs(cider(corpus) - oracle_cider(corpus)) <= 1e-9



# sha256 over the JSON reports of every metric on 50 seeded corpora, taken
# when BLEU and CIDEr each counted their n-grams on their own.
REPORT_GOLDEN = "aadc79966264fb1254104cb2c44af9a4856e3049591a7c7c073e14ffd37aaa66"


def test_metric_report_golden_digest():
    digest = hashlib.sha256()
    rng = random.Random(1010)
    for _ in range(50):
        corpus = random_corpus(rng, rng.randint(2, 9), max_refs=rng.randint(1, 4))
        report = metric_report(corpus, list(METRIC_NAMES))
        digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == REPORT_GOLDEN


def test_bleu_and_cider_alone_equal_the_report_entries():
    # The report scores from one shared n-gram pass; each metric called on
    # the plain corpus runs its own pass, of its own order.
    rng = random.Random(2020)
    for _ in range(30):
        corpus = random_corpus(rng, rng.randint(2, 7))
        metrics = metric_report(corpus, list(METRIC_NAMES))["metrics"]
        for n in (1, 2, 3, 4):
            assert bleu_n(corpus, n) == metrics[f"bleu{n}"]
            assert metric_report(corpus, [f"bleu{n}"])["metrics"][f"bleu{n}"] == metrics[f"bleu{n}"]
        assert cider(corpus) == metrics["cider"]


NGRAM_EDGE_CORPORA = [
    # Hypotheses shorter than the higher orders.
    [("who", ["who directed top gun ?"]), ("top gun", ["top gun", "the top gun film"])],
    [("a b", ["a b c d e"]), ("c", ["c"]), ("a b c", ["a b c"])],
    # A hypothesis made only of punctuation.
    [("? , !", ["who directed it ?"]), ("who directed it ?", ["who directed it ?"])],
    [("?", ["?"]), ("...", ["who ?"]), ("the cat sat", ["the cat sat on the mat"])],
    # References of different lengths, the closest one shorter or longer.
    [("the cat sat on", ["the cat", "the cat sat on the mat", "a cat sat"]),
     ("on the mat the cat sat", ["the cat sat on the mat", "cat"]),
     ("the dog ran fast", ["the dog ran", "a dog ran very fast today"])],
]


@pytest.mark.parametrize("corpus", NGRAM_EDGE_CORPORA)
def test_ngram_metrics_match_oracles_on_edge_cases(corpus):
    metrics = metric_report(corpus, list(METRIC_NAMES))["metrics"]
    for n in (1, 2, 3, 4):
        assert abs(metrics[f"bleu{n}"] - oracle_bleu(corpus, n)) <= 1e-9
        assert bleu_n(corpus, n) == metrics[f"bleu{n}"]
    assert abs(metrics["cider"] - oracle_cider(corpus)) <= 1e-9
    assert cider(corpus) == metrics["cider"]


COUNTING_EDGE_CORPORA = [
    # A later reference repeats a gram more often than the first one.
    [("a a a b", ["a b", "b a a a b", "a a"]), ("a b a", ["c", "a b a b a"])],
    # Hypotheses that repeat grams.
    [("a b a b a b", ["a b a", "b a b a b"]), ("c c c c", ["c c", "c"])],
    # References shorter than the order, first and later.
    [("a b c d", ["a", "a b c d"]), ("a b c", ["a b c", "a", ""])],
    # Empty hypotheses, and one shorter than the order.
    [("", ["a b"]), ("", [""]), ("? a", ["? ? a"])],
]

COUNTING_VOCAB = ["a", "b", "c", "d", "?"]


def counting_corpus(rng):
    """Short texts over a five-word vocabulary, so that grams repeat within
    a hypothesis and across references, and some texts are empty."""
    def text():
        return " ".join(rng.choices(COUNTING_VOCAB, k=rng.randint(0, 10)))

    return [(text(), [text() for _ in range(rng.randint(1, 4))]) for _ in range(rng.randint(1, 6))]


def compare_ngram_pass_with_the_counter_oracle() -> int:
    """Asserts that the n-gram pass's clipped and total counts and its CIDEr
    terms (by hex), with CIDEr and without, equal those of the Counter
    oracle on the edge corpora and 500 seeded ones; returns the corpora
    compared."""
    rng = random.Random(3232)
    corpora = COUNTING_EDGE_CORPORA + [counting_corpus(rng) for _ in range(500)]
    for corpus in corpora:
        for with_cider in (True, False):
            ngrams = _NgramPass(corpus, 4, with_cider, TokenTable())
            items = [(tokenize(h), [tokenize(r) for r in refs]) for h, refs in corpus]
            clipped, total, terms = oracles.oracle_ngram_pass(items, 4, with_cider)
            assert (ngrams.clipped, ngrams.total) == (clipped, total), corpus
            if with_cider:
                assert [t.hex() for t in ngrams.cider_items] == [t.hex() for t in terms], corpus
            else:
                assert ngrams.cider_items is None and terms is None
    return len(corpora)


def test_ngram_pass_equals_the_counter_oracle():
    assert compare_ngram_pass_with_the_counter_oracle() == 504
    # The seeded corpora often hold what the clip and the reference maximum
    # are for: a hypothesis gram that repeats, and a later reference that
    # holds a gram more often than every reference before it.
    rng = random.Random(3232)
    repeats = later_max = 0
    for corpus in [counting_corpus(rng) for _ in range(500)]:
        for hyp, refs in corpus:
            for k in (1, 2):
                grams = collections.Counter(zip(*[tokenize(hyp)[i:] for i in range(k)]))
                repeats += any(c > 1 for c in grams.values())
                seen = collections.Counter()
                for ref in refs:
                    counts = collections.Counter(zip(*[tokenize(ref)[i:] for i in range(k)]))
                    later_max += bool(seen) and any(c > max(1, seen[g]) for g, c in counts.items())
                    seen |= counts
    assert repeats > 500 and later_max > 200


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_ngram_pass_equals_the_counter_oracle_under_a_fixed_hash_seed(hash_seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopqg.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    code = "import test_metrics; print(test_metrics.compare_ngram_pass_with_the_counter_oracle())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "504\n"), done.stderr


# Stem variants, and words no other text is likely to hold.
SHARED_VOCAB = VOCAB + ["glasses", "glass", "passed", "passes", "running", "runs", "run", "unseen"]

SHARED_TEXT_CORPORA = [
    # A hypothesis repeated across items, one item's hypothesis as another
    # item's reference, a reference repeated within an item, stem variants,
    # and a hypothesis gram ("unseen") that no reference holds.
    [("who passed the glasses ?", ["who passes the glass ?", "the dog runs", "who passes the glass ?"]),
     ("who passed the glasses ?", ["the running dog passed"]),
     ("the running dog passed", ["who passed the glasses ?", "the dog runs"]),
     ("an unseen running sky", ["the dog runs", "the dog runs"])],
    [("a b", ["a b", "a b"]), ("a b", ["a b"]), ("b a", ["a b", "b a"])],
]


def shared_text_corpus(rng):
    """Items drawn from a small pool of texts, so that hypotheses repeat,
    references repeat within an item, and hypotheses serve as references."""
    pool = [" ".join(rng.choices(SHARED_VOCAB, k=rng.randint(1, 12))) for _ in range(rng.randint(3, 6))]
    corpus = []
    for _ in range(rng.randint(2, 8)):
        refs = rng.choices(pool + [hyp for hyp, _ in corpus], k=rng.randint(1, 4))
        corpus.append((rng.choice(pool), refs))
    return corpus


# sha256 over the JSON reports of each metric alone and of the default set on
# corpora that share texts, taken when every metric tokenized its own texts.
SHARED_TEXT_GOLDEN = "a6929c8309dc22082c12107ccc05c55175b51981be2f0494c39a2897e1bd9034"


def test_metric_report_golden_digest_on_shared_texts():
    rng = random.Random(1515)
    corpora = SHARED_TEXT_CORPORA + [shared_text_corpus(rng) for _ in range(40)]
    digest = hashlib.sha256()
    for corpus in corpora:
        for names in [[name] for name in METRIC_NAMES] + [DEFAULT_METRICS.split(",")]:
            report = metric_report(corpus, names)
            digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == SHARED_TEXT_GOLDEN


def count_calls(monkeypatch, name):
    """Calls of hopqg.metrics.<name>, counted by first argument."""
    calls = collections.Counter()
    fn = getattr(hopqg.metrics, name)

    def counted(arg, *rest, **kwargs):
        calls[arg] += 1
        return fn(arg, *rest, **kwargs)

    monkeypatch.setattr(hopqg.metrics, name, counted)
    return calls


def corpus_texts(corpus):
    return {hyp for hyp, _ in corpus} | {ref for _, refs in corpus for ref in refs}


@pytest.mark.parametrize("corpus", SHARED_TEXT_CORPORA)
def test_report_tokenizes_each_text_once_and_stems_each_token_once(monkeypatch, corpus):
    tokenized = count_calls(monkeypatch, "tokenize")
    stemmed = count_calls(monkeypatch, "light_stem")
    metric_report(corpus, list(METRIC_NAMES))
    assert tokenized == dict.fromkeys(corpus_texts(corpus), 1)
    assert stemmed and set(stemmed.values()) == {1}

    tokenized.clear()
    stemmed.clear()
    metric_report(corpus, [name for name in METRIC_NAMES if name != "meteor-s"])
    assert tokenized == dict.fromkeys(corpus_texts(corpus), 1)
    assert not stemmed


def test_rebound_metric_functions_see_each_call(monkeypatch):
    # Rebound as a tracer rebinds them: every module attribute and every
    # module-level dict value that holds the function.
    calls = collections.Counter()
    for name in ("bleu_n", "cider", "rouge_l", "meteor_simplified"):
        fn = getattr(hopqg.metrics, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for module in (hopqg.metrics, hopqg.evaluate):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            monkeypatch.setitem(value, key, counted)
    tokenized = count_calls(monkeypatch, "tokenize")
    corpus = SHARED_TEXT_CORPORA[0]
    pairs = sum(len(refs) for _, refs in corpus)
    metric_report(corpus, list(METRIC_NAMES))
    assert calls == {"bleu_n": 4, "cider": 1, "rouge_l": pairs, "meteor_simplified": pairs}
    assert tokenized == dict.fromkeys(corpus_texts(corpus), 1)


BAD_CORPORA = [
    ([], "empty corpus"),
    ([("a b", [])], "item 0: at least one reference required"),
    ([(5, ["a"])], "item 0: hypothesis must be a string"),
    ([("a b", ["a b"]), ("a", ["a", 5])], "item 1: references must be a list of strings"),
    ([("a b", "a b")], "item 0: references must be a list of strings"),
]


@pytest.mark.parametrize("name", METRIC_NAMES)
@pytest.mark.parametrize("corpus,message", BAD_CORPORA)
def test_every_metric_rejects_a_bad_corpus(name, corpus, message):
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        metric_report(corpus, [name])


# Frozen outputs of the exhaustive-alignment oracle in oracles.py.
METEOR_GOLDENS = [
    ("who directed the film ?", "who directed the movie ?", 0.7500000000000001),
    ("tom cruise starred in top gun", "top gun starred tom cruise", 0.8745098039215687),
    ("who directs films in hollywood", "who directed film for hollywood", 0.7500000000000001),
    ("the composer founded a conservatory in lyon",
     "which composer founded the lyon conservatory ?", 0.5314285714285715),
    ("what place was he born in ?", "where was albert einstein born ?", 0.24590163934426232),
]


@pytest.mark.parametrize("hyp,ref,want", METEOR_GOLDENS)
def test_meteor_goldens(hyp, ref, want):
    assert abs(meteor_simplified(hyp, ref) - want) <= 1e-9
    assert abs(oracle_meteor(hyp, ref) - want) <= 1e-9


def test_meteor_matches_enumeration_on_short_random_pairs():
    rng = random.Random(77)
    for _ in range(60):
        hyp = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
        ref = " ".join(rng.choices(VOCAB, k=rng.randint(1, 6)))
        assert abs(meteor_simplified(hyp, ref) - oracle_meteor(hyp, ref)) <= 1e-9


# A pair on which an exhaustive search over every match count passes
# 100,000 nodes; its greedy fallback found 5 chunks where 3 are possible.
GOLDEN_GARDEN = (
    "What is based in the one that is founded by the one that is based in the city "
    "that Golden Garden 2 was born in?",
    "What is in the one that is founded by the one that is based in the city "
    "that Garden 2 was born in?",
)

STEM_VOCAB = VOCAB + ["directs", "directing", "runs", "running", "run", "cats"]


def align(hyp, ref, **kwargs):
    return _align(hyp, ref, [light_stem(t) for t in hyp], [light_stem(t) for t in ref], **kwargs)


def match_counts(hyp, ref, matches):
    return sum(1 for i, j in matches if hyp[i] == ref[j]), len(matches)


def test_meteor_golden_garden_pair_aligns_in_three_chunks():
    hyp, ref = (tokenize(text) for text in GOLDEN_GARDEN)
    matches, fell_back = align(hyp, ref)
    assert not fell_back
    assert match_counts(hyp, ref, matches) == oracle_match_counts(hyp, ref)
    assert _chunk_count(matches) == 3
    m = len(matches)
    p, r = m / len(hyp), m / len(ref)
    want = p * r / (0.9 * p + 0.1 * r) * (1 - 0.5 * (3 / m) ** 3)
    assert abs(meteor_simplified(*GOLDEN_GARDEN) - want) <= 1e-9


def test_align_reaches_closed_form_match_counts_on_long_pairs():
    # The counts hold whether the search finishes or stops at its budget
    # with the best alignment found so far; at 2,000 nodes both happen here.
    rng = random.Random(15)
    fallbacks = 0
    for _ in range(200):
        hyp = rng.choices(STEM_VOCAB, k=rng.randint(15, 30))
        ref = rng.choices(STEM_VOCAB, k=rng.randint(15, 30))
        matches, fell_back = align(hyp, ref, node_budget=2_000)
        fallbacks += fell_back
        assert sorted({i for i, _ in matches}) == [i for i, _ in matches]
        assert len({j for _, j in matches}) == len(matches)
        assert match_counts(hyp, ref, matches) == oracle_match_counts(hyp, ref)
    assert 0 < fallbacks < 200


def only_forced(hyp, ref):
    """Whether every stem class of hyp is absent from ref or has one
    position on each side, so that both match maxima fix its alignment."""
    hyp_stems = collections.Counter(light_stem(t) for t in hyp)
    ref_stems = collections.Counter(light_stem(t) for t in ref)
    return all(ref_stems[s] == 0 or ref_stems[s] == c == 1 for s, c in hyp_stems.items())


def test_align_fallback_reaches_both_maxima_and_is_counted(monkeypatch):
    rng = random.Random(16)
    pairs = [tuple(tokenize(text) for text in GOLDEN_GARDEN)] + [
        (rng.choices(STEM_VOCAB, k=rng.randint(1, 30)), rng.choices(STEM_VOCAB, k=rng.randint(1, 30)))
        for _ in range(50)
    ]
    # A pair with forced positions only is aligned without search, so it
    # never trips; every other pair trips at its second search node.
    forced = [only_forced(hyp, ref) for hyp, ref in pairs]
    assert sum(forced) == 11
    for (hyp, ref), no_search in zip(pairs, forced):
        matches, fell_back = align(hyp, ref, node_budget=1)
        assert fell_back == (not no_search)
        assert len({j for _, j in matches}) == len(matches)
        assert match_counts(hyp, ref, matches) == oracle_match_counts(hyp, ref)

    # "a b" against "a b" is forced, so two of the three alignments trip.
    corpus = [(GOLDEN_GARDEN[0], [GOLDEN_GARDEN[1], "who directed the film ?"]), ("a b", ["a b"])]
    assert metric_report(corpus, ["meteor-s"])["meteor_fallbacks"] == 0
    monkeypatch.setattr(hopqg.metrics, "_align", functools.partial(_align, node_budget=1))
    report = metric_report(corpus, ["meteor-s", "rouge-l"])
    assert report["meteor_fallbacks"] == 2
    assert set(report["metrics"]) == {"meteor-s", "rouge-l"}


def test_forced_pairs_never_search():
    hyp, ref = tokenize("who directed the film ?"), tokenize("who directs that film ?")
    assert align(hyp, ref, node_budget=0) == ([(0, 0), (1, 1), (3, 3), (4, 4)], False)
    # One repeated class ("the") is enough to search, within the budget.
    hyp, ref = tokenize("the cat saw the dog"), tokenize("the dog saw the cat")
    assert align(hyp, ref, node_budget=0) == ([(0, 0), (1, 4), (2, 2), (3, 3), (4, 1)], True)
    assert align(hyp, ref) == ([(0, 3), (1, 4), (2, 2), (3, 0), (4, 1)], False)


def test_align_equals_the_full_search_oracle():
    # oracle_align searches every position; where it finishes within its
    # budget, _align, which searches only where a stem class repeats, must
    # finish too and return the same alignment.
    rng = random.Random(22)
    random_pairs = [
        (rng.choices(STEM_VOCAB, k=rng.randint(1, 30)), rng.choices(STEM_VOCAB, k=rng.randint(1, 30)))
        for _ in range(300)
    ]
    goldens = [(tokenize(hyp), tokenize(ref)) for hyp, ref, _ in METEOR_GOLDENS]
    goldens.append(tuple(tokenize(text) for text in GOLDEN_GARDEN))
    compared = 0
    for pairs, budget in ((random_pairs, 2_000), (goldens, oracles.NODE_BUDGET)):
        for hyp, ref in pairs:
            stems = ([light_stem(t) for t in hyp], [light_stem(t) for t in ref])
            oracle_before = oracles.meteor_fallbacks()
            want = oracle_align(hyp, ref, *stems, node_budget=budget)
            if oracles.meteor_fallbacks() > oracle_before:
                continue
            assert _align(hyp, ref, *stems, node_budget=budget) == (want, False)
            compared += 1
    assert compared > 250


# sha256 of _align's returns on align_budget_pairs() at each of ALIGN_BUDGETS,
# taken from the full-set-up search that built every counter for every token.
ALIGN_BUDGET_GOLDEN = "e098411350f40e2a6b8ccb615094f5f70b5655c023e918211b9327a4cad554b2"
ALIGN_BUDGETS = (0, 1, 2, 3, 5, 8, 13, 100)


def align_budget_pairs():
    """300 seeded pairs, each with a stem class that repeats, so that each searches."""
    rng = random.Random(41)
    pairs = []
    while len(pairs) < 300:
        hyp = rng.choices(STEM_VOCAB, k=rng.randint(2, 24))
        ref = rng.choices(STEM_VOCAB, k=rng.randint(2, 24))
        if not only_forced(hyp, ref):
            pairs.append((hyp, ref))
    return pairs


def test_align_returns_at_small_budgets_match_the_golden():
    # Pins the alignments of searches that stop at their budget, which the
    # full-search oracle cannot check: the best complete alignment found, or
    # the greedy exact-then-stem pass when none was.
    returns = [[align(hyp, ref, node_budget=budget) for hyp, ref in align_budget_pairs()] for budget in ALIGN_BUDGETS]
    fell_back = [sum(f for _, f in per_budget) for per_budget in returns]
    assert fell_back[0] == 300 and 0 < fell_back[-1] < 300
    digest = hashlib.sha256(json.dumps(returns).encode()).hexdigest()
    assert digest == ALIGN_BUDGET_GOLDEN


def test_identity_scores_are_one():
    texts = [
        "Who directed Top Gun?",
        "Tom Cruise is an American actor.",
        "the cat sat on the mat , twice",
    ]
    corpus = [(t, [t]) for t in texts]
    for n in (1, 2, 3, 4):
        assert bleu_n(corpus, n) == pytest.approx(1.0, abs=1e-12)
    for t in texts:
        assert rouge_l(t, t) == pytest.approx(1.0, abs=1e-12)
        assert meteor_simplified(t, t) == pytest.approx(1.0, abs=1e-12)
        assert exact_match(t, t) == 1.0
        assert token_f1(t, t) == pytest.approx(1.0, abs=1e-12)
    # Identical pairs with fully distinct vocabularies: every n-gram has
    # df 1 over 3 items, so idf > 0, cosine 1, and the score hits the cap.
    distinct = [("a b c d e", ["a b c d e"]),
                ("f g h i j", ["f g h i j"]),
                ("k l m n o", ["k l m n o"])]
    assert cider(distinct) == pytest.approx(10.0, abs=1e-9)


def test_bleu_brevity_penalty_and_ref_length_tie():
    # Matching 2/2 unigrams against a longer ref: only BP lowers the score.
    corpus = [("the cat", ["the cat sat on the mat"])]
    assert bleu_n(corpus, 1) == pytest.approx(math.exp(1 - 6 / 2), abs=1e-12)
    # Refs at distance 1 both sides; clipping pulls every unigram from one
    # ref or the other, so precision is 1 and only the BP can move the score.
    # Choosing the shorter ref (r=2 < c=3) keeps BP at 1; choosing the longer
    # one would give exp(1 - 4/3).
    tie = [("the cat sat", ["the cat", "the cat sat on"])]
    assert bleu_n(tie, 1) == pytest.approx(1.0, abs=1e-12)


def test_bleu_zero_when_no_overlap_or_empty_hyp():
    assert bleu_n([("x y z", ["a b c"])], 1) == 0.0
    assert bleu_n([("", ["a b c"])], 1) == 0.0
    # An order with zero matches zeroes the whole geometric mean.
    assert bleu_n([("a c b", ["a b c"])], 2) == 0.0


def test_meteor_penalty_needs_multiple_chunks():
    # All four tokens match but in two chunks: penalty 0.5 * (2/4)**3.
    score = meteor_simplified("c d a b", "a b c d")
    assert score == pytest.approx(1.0 * (1 - 0.5 * (2 / 4) ** 3), abs=1e-12)


def test_light_stem_rules():
    assert light_stem("directed") == "direct"
    assert light_stem("directs") == "direct"
    assert light_stem("running") == "run"
    assert light_stem("films") == "film"
    assert light_stem("is") == "is"
    assert light_stem("was") == "was"
    assert light_stem("glasses") == "glass"
    # -es comes off whole, so a plural ending in "e" keeps no "e" and never
    # shares its singular's stem.
    assert [light_stem(t) for t in ("names", "games", "movies")] == ["nam", "gam", "movi"]
    assert [light_stem(t) for t in ("name", "game", "movie")] == ["name", "game", "movie"]


# Token -> stem pairs, each worked out by hand from the rules, not from a
# run of light_stem.
LIGHT_STEM_TABLE = [
    # -ing off a token of five letters or more
    ("singing", "sing"), ("bring", "br"), ("king", "king"), ("sing", "sing"),
    # -ed off a token of four letters or more
    ("directed", "direct"), ("agreed", "agre"), ("seed", "se"), ("red", "red"),
    # then a final double consonant undoubled, in a stem of three letters or
    # more; a double vowel or s stays
    ("running", "run"), ("stopped", "stop"), ("fizzed", "fiz"), ("ebbing", "eb"), ("zzing", "zz"), ("zzed", "zz"),
    ("seeing", "see"), ("passing", "pass"), ("passed", "pass"),
    # -sses to -ss past five letters; "asses" is too short, and as a -ses
    # token it loses only its -s
    ("passes", "pass"), ("glasses", "glass"), ("kisses", "kiss"), ("asses", "asse"),
    # -es, but not -ses, past three letters
    ("games", "gam"), ("goes", "go"), ("yes", "yes"), ("horses", "horse"),
    # -s, but not -ss, -us or -is, past three letters
    ("films", "film"), ("cats", "cat"), ("things", "thing"), ("gas", "gas"),
    ("class", "class"), ("bonus", "bonus"), ("basis", "basis"), ("this", "this"), ("film", "film"),
]


def test_light_stem_table():
    assert [(token, light_stem(token)) for token, _ in LIGHT_STEM_TABLE] == LIGHT_STEM_TABLE


def test_normalize_answer_and_squad_scores():
    assert normalize_answer("The  Top Gun!") == "top gun"
    assert normalize_answer("a walk in the park") == "walk in park"
    assert exact_match("Top Gun", "top gun") == 1.0
    assert exact_match("Top Gun", "Top Guns") == 0.0
    assert token_f1("Tom Cruise", "Cruise") == pytest.approx(2 / 3, abs=1e-12)
    assert exact_match("", "") == 1.0
    assert token_f1("", "") == 1.0
    assert token_f1("Cruise", "") == 0.0
    assert token_f1("", "Cruise") == 0.0


def test_token_f1_equals_the_counter_oracle():
    rng = random.Random(12)
    words = ["the", "a", "top", "gun", "Top", "cruise", "tom", "gun!", ","]
    for _ in range(2000):
        pred, gold = (" ".join(rng.choices(words, k=rng.randint(0, 6))) for _ in range(2))
        assert token_f1(pred, gold) == oracle_token_f1(pred, gold), (pred, gold)


def test_normalize_answer_matches_the_per_character_oracle():
    cases = [string.punctuation, "“Top” Gun…", "«Ｔｏｐ»—Gun¿", "The A-Team's: (an) 'the' end."]
    cases += [ch + " a" + ch + "x" for ch in string.punctuation]
    rng = random.Random(5)
    alphabet = string.punctuation + "aAtThHeEnN xÉß\t\u00a0“”…–’¡¿«»、。"
    cases += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))) for _ in range(3000)]
    for text in cases:
        assert normalize_answer(text) == oracle_normalize_answer(text), text


def test_metric_error_cases():
    with pytest.raises(MetricError):
        bleu_n([], 4)
    with pytest.raises(MetricError):
        bleu_n([("a", [])], 4)
    with pytest.raises(MetricError):
        bleu_n([("a", ["a"])], 5)
    with pytest.raises(MetricError):
        cider([("a", ["a"])])
    with pytest.raises(MetricError):
        cider([])
