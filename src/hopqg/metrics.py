"""Text-overlap metrics for generated questions and QA answers.

Tokenization for the n-gram metrics: lowercase, detach punctuation into
separate tokens, split on whitespace. This is recorded in every report
header. All scores are fractions in [0, 1] except CIDEr, which follows the
conventional x10 scale.
"""

from __future__ import annotations

import math
import re
# A private CPython helper, chosen on purpose: the C loop behind
# Counter.update, without Counter's own overhead. It exists on 3.10-3.13
# (each in CI); if an interpreter drops it, counting through Counter is the fix.
from collections import _count_elements
from functools import cache, reduce
from operator import add, mul

from .errors import MetricError
from .textutil import normalize_answer

TOKENIZER_SPEC = "lowercase; punctuation detached as separate tokens; whitespace split"

_PUNCT_RE = re.compile(r"([^\w\s])")


def tokenize(text: str) -> list[str]:
    # Spaces joining the split's pieces give the string sub(r" \1 ") built, with no template to expand.
    return " ".join(_PUNCT_RE.split(text.lower())).split()


def left_sum(values) -> float:
    """Floats added left to right, as sum() did before Python 3.12 compensated."""
    return reduce(add, values, 0)


def _check_corpus(corpus) -> None:
    if not corpus:
        raise MetricError("empty corpus")
    for i, (hyp, refs) in enumerate(corpus):
        if not isinstance(hyp, str):
            raise MetricError(f"item {i}: hypothesis must be a string")
        if not refs:
            raise MetricError(f"item {i}: at least one reference required")
        if isinstance(refs, str) or not all(isinstance(ref, str) for ref in refs):
            raise MetricError(f"item {i}: references must be a list of strings")


class TokenTable:
    """A report's scoring state: each distinct text tokenized once, each
    distinct token kept as one string object and stemmed once, and the
    count of METEOR-s alignments that fell back (see _align)."""

    def __init__(self):
        # The closures hold locals, not self, so the table makes no cycle.
        word = cache(lambda t: t)  # not sys.intern, which grows the interpreter's own table
        stem = cache(light_stem)
        self.tokens = tokens = cache(lambda text: list(map(word, tokenize(text))))
        self.stems = cache(lambda text: list(map(stem, tokens(text))))
        self.fallbacks = 0


def _counts(items) -> dict:
    """Each item's count, in order of first occurrence: a plain dict filled
    by the C loop Counter.update runs, without Counter's own overhead."""
    counts: dict = {}
    _count_elements(counts, items)
    return counts


def _ngrams(tokens: list[str], n: int) -> dict:
    """Counts of the order-n grams of tokens, in order of first occurrence.
    A unigram is its token, not a 1-tuple."""
    return _counts(tokens if n == 1 else zip(*[tokens[i:] for i in range(n)]))


class _NgramPass:
    """One pass over a corpus's n-grams, orders 1..order, read by bleu_n and
    cider alike.

    The texts' tokens come from a TokenTable. Per order it keeps BLEU's
    sufficient statistics (clipped and total gram counts) and, when
    ``cider`` is set, adds each item's CIDEr term for that order to the
    item's running sum, so the terms add up from order 1 upward. Gram counts
    are plain dicts in order of first occurrence (see _counts); one order's
    counts are dropped before the next order is counted.
    """

    def __init__(self, corpus, order: int, cider: bool, table: TokenTable):
        tokens = table.tokens
        self.items = [(tokens(h), [tokens(r) for r in refs]) for h, refs in corpus]
        self.clipped = [0] * (order + 1)
        self.total = [0] * (order + 1)
        self.hyp_len = sum(len(hyp) for hyp, _ in self.items)
        # The reference length closest to the hypothesis's, ties toward the shorter.
        self.ref_len = sum(
            min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1] for hyp, refs in self.items
        )
        self.cider_items = [0.0] * len(self.items) if cider else None
        for k in range(1, order + 1):
            self._count_order(k)

    @classmethod
    def of(cls, corpus, order: int, cider: bool) -> "_NgramPass":
        """corpus itself if it is a pass, else a checked pass over it."""
        if isinstance(corpus, cls):
            return corpus
        _check_corpus(corpus)
        return cls(corpus, order, cider, TokenTable())

    def _count_order(self, k: int) -> None:
        counted = []
        df: dict = {}
        clipped = total = 0
        for hyp, refs in self.items:
            hyp_counts = _ngrams(hyp, k)
            ref_counts = [_ngrams(r, k) for r in refs]
            # Each gram's highest count in any one reference.
            max_ref = ref_counts[0]
            if len(ref_counts) > 1:
                max_ref = dict(max_ref)
                for other in ref_counts[1:]:
                    for g, c in other.items():
                        if c > max_ref.get(g, 0):
                            max_ref[g] = c
            if hyp_counts:
                total += len(hyp) - k + 1
                clipped += sum(min(c, max_ref.get(g, 0)) for g, c in hyp_counts.items())
            if self.cider_items is not None:
                _count_elements(df, max_ref)
                counted.append((hyp_counts, ref_counts))
        self.clipped[k] = clipped
        self.total[k] = total
        if self.cider_items is None:
            return
        # Document frequency counts an item once per gram any of its
        # references holds; a gram no reference holds takes df 1. So every
        # reference gram has an idf, and a hypothesis gram may not.
        n_items = len(self.items)
        log_of = {d: math.log(n_items / d) for d in set(df.values())}
        idf = {g: log_of[d] for g, d in df.items()}
        unseen = math.log(n_items)
        # A vector's weights are count * idf, in its counts' order, and
        # norms and dot products add them in that order. The dot product
        # takes a reference weight from the counts and the idf table, not
        # from a dict of the reference's vector.
        for i, (hyp_counts, ref_counts) in enumerate(counted):
            hyp_idf = [idf.get(g, unseen) for g in hyp_counts]
            hyp_w = list(map(mul, hyp_counts.values(), hyp_idf))
            hn = math.sqrt(left_sum(map(mul, hyp_w, hyp_w)))
            if hn == 0:
                continue  # every cosine is 0
            cosines = []
            for counts in ref_counts:
                ref_w = list(map(mul, counts.values(), map(idf.__getitem__, counts)))
                rn = math.sqrt(left_sum(map(mul, ref_w, ref_w)))
                ref_count = counts.get
                dot = left_sum(w * (c * f) for g, w, f in zip(hyp_counts, hyp_w, hyp_idf) if (c := ref_count(g)))
                cosines.append(dot / (hn * rn) if rn else 0.0)
            self.cider_items[i] += left_sum(cosines) / len(cosines)


def bleu_n(corpus, n: int) -> float:
    """Corpus-level BLEU with modified n-gram precision and brevity penalty.

    Geometric mean over orders 1..n, no smoothing: a zero precision at any
    order zeroes the score. Reference length is the closest to the
    hypothesis length, ties resolved toward the shorter reference.
    ``corpus`` is a list of (hypothesis, references) pairs or an n-gram
    pass over one, of order n or more.
    """
    if not 1 <= n <= 4:
        raise MetricError(f"bleu order must be in 1..4, got {n}")
    ngrams = _NgramPass.of(corpus, n, cider=False)
    log_sum = 0.0
    for k in range(1, n + 1):
        if ngrams.clipped[k] == 0:  # clipped counts never exceed the total
            return 0.0
        log_sum += math.log(ngrams.clipped[k] / ngrams.total[k]) / n
    hyp_len, ref_len = ngrams.hyp_len, ngrams.ref_len
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum)


def lcs_length(a: list, b: list) -> int:
    """Longest-common-subsequence length, bit-parallel over the tokens of a.

    Allison & Dix (1986), as restated by Hyyro (2004): bit i of V is set
    while a[i] is not yet matched; each token t of b updates
    V' = (V + U) | (V - U) with U = V & M[t], where M[t] marks the
    positions of t in a. The LCS length is the number of cleared bits.
    """
    masks: dict = {}
    for i, t in enumerate(a):
        masks[t] = masks.get(t, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for t in b:
        u = v & masks.get(t, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


ROUGE_BETA = 1.2  # > 1 weights recall over precision


def rouge_l(hyp: str, ref: str, table: TokenTable | None = None) -> float:
    """LCS-based F-measure with ROUGE_BETA; the texts' tokens come from
    ``table`` when one is given."""
    table = table or TokenTable()
    hyp_toks = table.tokens(hyp)
    ref_toks = table.tokens(ref)
    lcs = lcs_length(hyp_toks, ref_toks)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hyp_toks), lcs / len(ref_toks)
    beta2 = ROUGE_BETA * ROUGE_BETA
    return (1 + beta2) * p * r / (r + beta2 * p)


def light_stem(token: str) -> str:
    """Tiny suffix stripper for the METEOR-s stem stage (not a full stemmer)."""
    if len(token) > 4 and token.endswith("ing"):
        stem = token[:-3]
    elif len(token) > 3 and token.endswith("ed"):
        stem = token[:-2]
    else:
        if len(token) > 5 and token.endswith("sses"):
            return token[:-2]
        if len(token) > 3 and token.endswith("es") and not token.endswith("ses"):
            return token[:-2]
        if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
            return token[:-1]
        return token
    # Undouble final consonants from -ing/-ed stems (running -> run) but keep
    # double s so "passed" and "passes" land on the same stem.
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "aeious":
        stem = stem[:-1]
    return stem


def _chunk_count(matches: list[tuple[int, int]]) -> int:
    """The runs of consecutive pairs in matches: (hyp, ref) index pairs in
    hyp order, as _align returns them, of which there is at least one."""
    chunks = 1
    for (i0, j0), (i1, j1) in zip(matches, matches[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return chunks


# Search nodes one alignment may visit before it falls back (see _align).
NODE_BUDGET = 100_000


def _align(
    hyp: list[str],
    ref: list[str],
    hyp_stems: list[str],
    ref_stems: list[str],
    node_budget: int = NODE_BUDGET,
):
    """Unigram alignment with the most exact matches, then the most matches,
    then the fewest chunks, as (hyp, ref) index pairs in hyp order. The
    stems are those of the tokens of hyp and ref.

    Equal tokens have equal stems, so both match maxima have a closed form
    and hold together: exact = sum over tokens of min(hyp count, ref count),
    total = the same sum over stem classes. They force a hyp position whose
    stem class ref lacks to stay unmatched, and one whose class has one
    position on each side to take it; these are placed without search.
    The depth-first search branches only where a class repeats, held to
    both maxima by three slack counters: per token, the hyp positions that
    may miss an exact match (miss) and the ref positions stem matches may
    take (lend); per stem class, the hyp positions that may stay unmatched
    (idle). The counters are made only for what the search reads: the
    tokens and stem classes of the branching positions, and the ref tokens
    at those classes' ref positions, the ones the branches can take. A
    branch stops before a counter would go below zero. The search tries the
    diagonal continuation first and cuts a branch once its chunks reach the
    best found; chunks never decrease along a path.

    Fewest chunks is a minimum common string partition, which is NP-hard,
    so past node_budget search nodes the search stops and falls back to the
    best complete alignment found, or else to a greedy exact-then-stem pass,
    which reaches both maxima. Returns (pairs, whether it fell back).
    """
    m, n = len(hyp), len(ref)
    positions: dict[str, list[int]] = {}
    for j, s in enumerate(ref_stems):
        positions.setdefault(s, []).append(j)
    hyp_class = _counts(hyp_stems)
    path = [-1] * m
    stop = [m] * (m + 1)  # the first position from i on whose class repeats, or m
    branching = []
    for i in range(m - 1, -1, -1):
        opts = positions.get(hyp_stems[i], ())
        if len(opts) > 1 or opts and hyp_class[hyp_stems[i]] > 1:
            stop[i] = i
            branching.append(i)
        else:
            stop[i] = stop[i + 1]
            path[i] = opts[0] if opts else -1
    if not branching:
        return [(i, j) for i, j in enumerate(path) if j >= 0], False
    hyp_count, ref_count = _counts(hyp), _counts(ref)
    miss, lend, idle = {}, {}, {}
    for i in branching:
        t, s = hyp[i], hyp_stems[i]
        miss[t] = hyp_count[t] - min(hyp_count[t], ref_count.get(t, 0))
        if s not in idle:
            opts = positions[s]
            idle[s] = hyp_class[s] - min(hyp_class[s], len(opts))
            for u in map(ref.__getitem__, opts):
                lend[u] = ref_count[u] - min(ref_count[u], hyp_count.get(u, 0))
    used = [False] * n  # no branch reaches a forced ref position
    best, best_chunks = None, m + 1

    def children(i: int, prev: int, chunks: int):
        """The children of a search node. The counters, used and path hold
        each child's choice until the next child is asked for."""
        t, s = hyp[i], hyp_stems[i]
        diag = prev + 1
        opts = positions[s]
        if 0 <= diag < n and ref_stems[diag] == s:
            opts = [diag] + [j for j in opts if j != diag]
        for j in opts:
            c = chunks + (j != diag)
            if used[j] or c >= best_chunks:
                continue
            u = ref[j]
            stem_match = u != t
            if stem_match:
                if not (miss[t] and lend[u]):
                    continue
                miss[t] -= 1
                lend[u] -= 1
            used[j] = True
            path[i] = j
            yield i + 1, j, c
            used[j] = False
            if stem_match:
                miss[t] += 1
                lend[u] += 1
        if miss[t] and idle[s] and chunks < best_chunks:
            miss[t] -= 1
            idle[s] -= 1
            path[i] = -1
            yield i + 1, -2, chunks
            miss[t] += 1
            idle[s] += 1

    # Depth-first on an explicit stack of child generators, so a long
    # hypothesis does not run into the recursion limit.
    stack = [iter([(0, -2, 0)])]
    nodes = 0
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > node_budget:
            break
        i, prev, chunks = node
        # Walk the forced positions up to the next one whose class repeats.
        for k in range(i, stop[i]):
            j = path[k]
            chunks += j >= 0 and j != prev + 1
            prev = j if j >= 0 else -2
        i = stop[i]
        if chunks >= best_chunks:
            continue
        if i == m:
            best, best_chunks = list(path), chunks
            continue
        stack.append(children(i, prev, chunks))
    if best is None:
        best, taken = [-1] * m, set()
        for exact_pass in (True, False):
            for i in range(m):
                if best[i] < 0:
                    opts = positions.get(hyp_stems[i], ())
                    best[i] = next((j for j in opts if j not in taken and (ref[j] == hyp[i] or not exact_pass)), -1)
                    taken.add(best[i])
    return [(i, j) for i, j in enumerate(best) if j >= 0], nodes > node_budget


METEOR_ALPHA, METEOR_BETA, METEOR_GAMMA = 0.9, 3.0, 0.5


def meteor_simplified(hyp: str, ref: str, table: TokenTable | None = None) -> float:
    """Two-stage (exact, stem) unigram METEOR with fragmentation penalty.

    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA, defined as 0
    when the alignment forms a single chunk so identical strings score 1.
    The texts' tokens and stems come from ``table`` when one is given, and
    an alignment that falls back adds one to its ``fallbacks``.
    """
    table = table or TokenTable()
    hyp_toks = table.tokens(hyp)
    ref_toks = table.tokens(ref)
    matches, fell_back = _align(hyp_toks, ref_toks, table.stems(hyp), table.stems(ref))
    table.fallbacks += fell_back
    m = len(matches)
    if m == 0:
        return 0.0
    p, r = m / len(hyp_toks), m / len(ref_toks)
    f_mean = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
    chunks = _chunk_count(matches)
    penalty = 0.0 if chunks <= 1 else METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return f_mean * (1.0 - penalty)


CIDER_ORDER = 4


def cider(corpus) -> float:
    """tf-idf n-gram cosine consensus, averaged over orders 1..CIDER_ORDER, x10.

    Document frequency counts each item once when any of its references
    contains the n-gram; idf = log(N / max(df, 1)). ``corpus`` is a list of
    (hypothesis, references) pairs or an n-gram pass over one, of order
    CIDER_ORDER with its CIDEr terms.
    """
    ngrams = _NgramPass.of(corpus, CIDER_ORDER, cider=True)
    if len(ngrams.items) < 2:
        raise MetricError("cider needs at least two items for meaningful idf")
    total = left_sum(item_score / CIDER_ORDER for item_score in ngrams.cider_items)
    return 10.0 * total / len(ngrams.items)


def exact_match(pred: str, gold: str) -> float:
    return float(normalize_answer(pred) == normalize_answer(gold))


def token_f1(pred: str, gold: str) -> float:
    pred_toks = normalize_answer(pred).split()
    gold_toks = normalize_answer(gold).split()
    if not pred_toks and not gold_toks:
        return 1.0
    gold_count = _counts(gold_toks)
    overlap = sum(min(c, gold_count.get(t, 0)) for t, c in _counts(pred_toks).items())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_toks)
    recall = overlap / len(gold_toks)
    return 2 * precision * recall / (precision + recall)
