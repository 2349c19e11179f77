"""Output checks made apart from the program.

Each check returns a list of problem strings (empty when the output is
right). The evaluate checks also return the items whose METEOR-s falls
below the benchmark's own alignment: those are counted as failed
operations, not as wrong output.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
from collections import Counter

from hopqg.metrics import light_stem, tokenize

TOL = 1e-9


# ------------------------------------------------------------------ gen-*


def _preorder_ok(parents: list[int | None]) -> bool:
    """Parent indices describe a tree numbered in preorder: node i's parent
    lies on the path from the root to node i-1."""
    if not parents or parents[0] is not None:
        return False
    for i in range(1, len(parents)):
        p = parents[i]
        if p is None or not 0 <= p < i:
            return False
        k = i - 1
        while k is not None and k != p:
            k = parents[k]
        if k != p:
            return False
    return True


def check_traces(lines: list[str], d: int, triples_by_context: dict[str, set], template: bool) -> list[str]:
    problems = []
    for n, line in enumerate(lines):
        trace = json.loads(line)
        where = f"trace {n}"
        nodes = trace["chain"]["nodes"]
        if trace["d"] != d or trace["chain"]["d"] != d:
            problems.append(f"{where}: d is {trace['d']}, asked {d}")
        if len(nodes) != d + 1 or len(trace["intermediates"]) != d - 1:
            problems.append(f"{where}: {len(nodes)} chain nodes, {len(trace['intermediates'])} intermediates")
            continue
        if [node["i"] for node in nodes] != list(range(d + 1)):
            problems.append(f"{where}: chain nodes out of order")
            continue
        parents = [node["parent"] for node in nodes]
        if not _preorder_ok(parents):
            problems.append(f"{where}: parents {parents} are not a preorder tree")
            continue
        triples = triples_by_context.get(trace["context"])
        if triples is None:
            problems.append(f"{where}: context is not one the generator wrote")
            continue
        for node in nodes[1:]:
            i, parent = node["i"], nodes[node["parent"]]
            first_child = min(k for k, p in enumerate(parents) if p == node["parent"])
            want = None if i == 1 else ("Bridge" if first_child == i else "Intersection")
            if node["rewrite_type"] != want:
                problems.append(f"{where}: node {i} is {node['rewrite_type']}, want {want}")
            if node["edge_dir"] == "child_to_parent":
                edge = (node["sentence"], node["surface"], node["edge"], parent["surface"])
            else:
                edge = (node["sentence"], parent["surface"], node["edge"], node["surface"])
            if edge not in triples:
                problems.append(f"{where}: chain edge {edge} was not written")
        if template:
            answer = trace["answer"].casefold()
            for q in trace["intermediates"] + [trace["question"]]:
                if answer in q.casefold():
                    problems.append(f"{where}: answer {trace['answer']!r} appears in {q!r}")
    return problems


# --------------------------------------------------------------- evaluate


def load_oracles(root: str):
    """tests/oracles.py: the brute-force metric references of the test suite."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def longest_run_alignment(hyp: list[str], ref: list[str]) -> list[tuple[int, int]]:
    """Exact matches then stem matches, each stage taking the longest run of
    unmatched, pairwise-equal tokens first (ties to the leftmost). Each stage
    runs until no equal unmatched pair is left, so it reaches the most exact
    matches, then the most stem matches, any alignment can have."""
    matched: list[tuple[int, int]] = []
    used_h: set[int] = set()
    used_r: set[int] = set()
    for key in (lambda t: t, light_stem):
        hk = [key(t) for t in hyp]
        rk = [key(t) for t in ref]
        while True:
            best = (0, 0, 0)
            for i in range(len(hyp)):
                if i in used_h:
                    continue
                for j in range(len(ref)):
                    length = 0
                    while (
                        i + length < len(hyp) and j + length < len(ref)
                        and i + length not in used_h and j + length not in used_r
                        and hk[i + length] == rk[j + length]
                    ):
                        length += 1
                    if length > best[0]:
                        best = (length, i, j)
            length, i, j = best
            if length == 0:
                break
            for k in range(length):
                matched.append((i + k, j + k))
                used_h.add(i + k)
                used_r.add(j + k)
    return sorted(matched)


def max_matches(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """Closed-form (exact, exact + stem) maximum of any unigram alignment."""
    ch, cr = Counter(hyp), Counter(ref)
    exact = sum(min(c, cr[t]) for t, c in ch.items())
    rest_h, rest_r = Counter(), Counter()
    for t, c in ch.items():
        rest_h[light_stem(t)] += c - min(c, cr[t])
    for t, c in cr.items():
        rest_r[light_stem(t)] += c - min(c, ch[t])
    stem = sum(min(c, rest_r[s]) for s, c in rest_h.items())
    return exact, exact + stem


def meteor_of(matches, n_hyp: int, n_ref: int, alpha=0.9, beta=3.0, gamma=0.5) -> float:
    m = len(matches)
    if m == 0:
        return 0.0
    p, r = m / n_hyp, m / n_ref
    f_mean = p * r / (alpha * p + (1 - alpha) * r)
    chunks = sum(
        1 for k, (i, j) in enumerate(matches)
        if k == 0 or i != matches[k - 1][0] + 1 or j != matches[k - 1][1] + 1
    )
    penalty = 0.0 if chunks <= 1 else gamma * (chunks / m) ** beta
    return f_mean * (1.0 - penalty)


def _enumeration_size(hyp: list[str], ref: list[str]) -> int:
    """Leaves of the oracle's full enumeration, ignoring injectivity."""
    hs, rs = [light_stem(t) for t in hyp], [light_stem(t) for t in ref]
    size = 1
    for t, s in zip(hyp, hs):
        size *= 1 + sum(1 for u, v in zip(ref, rs) if t == u or s == v)
    return size


def own_cider(corpus, n_max: int = 4) -> float:
    """CIDEr with document frequencies counted once for the corpus."""
    items = [(tokenize(h), [tokenize(r) for r in refs]) for h, refs in corpus]
    n_items = len(items)

    def grams(tokens, k):
        return Counter(tuple(tokens[i : i + k]) for i in range(len(tokens) - k + 1))

    df = [Counter() for _ in range(n_max + 1)]
    for _, refs in items:
        for k in range(1, n_max + 1):
            df[k].update({g for r in refs for g in grams(r, k)})

    def weights(tokens, k):
        return {g: c * math.log(n_items / max(df[k][g], 1)) for g, c in grams(tokens, k).items()}

    total = 0.0
    for hyp, refs in items:
        score = 0.0
        for k in range(1, n_max + 1):
            hv = weights(hyp, k)
            hn = math.sqrt(sum(w * w for w in hv.values()))
            sims = 0.0
            for r in refs:
                rv = weights(r, k)
                rn = math.sqrt(sum(w * w for w in rv.values()))
                if hn > 0 and rn > 0:
                    sims += sum(w * rv[g] for g, w in hv.items() if g in rv) / (hn * rn)
            score += sims / len(refs)
        total += score / n_max
    return 10.0 * total / n_items


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_report(report: dict, corpus, oracles, meteor_fn, feasible: int = 20_000):
    """Returns (problems, failed item indices).

    METEOR-s is checked per item: against the oracle's full enumeration
    where it has at most ``feasible`` leaves, else against the longest-run
    alignment, which must reach the closed-form match maximum. An item
    whose best METEOR-s is below that alignment's is a failed operation.
    """
    problems: list[str] = []
    failed: list[int] = []
    metrics = report.get("metrics", {})
    if report.get("items") != len(corpus):
        problems.append(f"report counts {report.get('items')} items, corpus has {len(corpus)}")
    for n in (3, 4):
        want = oracles.oracle_bleu(corpus, n)
        if not _close(metrics.get(f"bleu{n}", math.nan), want):
            problems.append(f"bleu{n} {metrics.get(f'bleu{n}')} != oracle {want}")
    rouge = sum(max(oracles.oracle_rouge_l(h, r) for r in refs) for h, refs in corpus) / len(corpus)
    if not _close(metrics.get("rouge-l", math.nan), rouge):
        problems.append(f"rouge-l {metrics.get('rouge-l')} != oracle {rouge}")
    cider = own_cider(corpus)
    if not _close(metrics.get("cider", math.nan), cider):
        problems.append(f"cider {metrics.get('cider')} != own {cider}")

    program_total = 0.0
    for n, (hyp, refs) in enumerate(corpus):
        got_best, own_best = -1.0, -1.0
        for ref in refs:
            got = meteor_fn(hyp, ref)
            got_best = max(got_best, got)
            h, r = tokenize(hyp), tokenize(ref)
            if not h or not r:
                own_best = max(own_best, 0.0)
                continue
            if _enumeration_size(h, r) <= feasible:
                want = oracles.oracle_meteor(hyp, ref)
                if not _close(got, want):
                    problems.append(f"item {n}: meteor-s {got} != oracle {want}")
                own_best = max(own_best, want)
                continue
            matches = longest_run_alignment(h, r)
            exact = sum(1 for i, j in matches if h[i] == r[j])
            if (exact, len(matches)) != max_matches(h, r):
                problems.append(f"item {n}: own alignment misses the match maximum")
            own_best = max(own_best, meteor_of(matches, len(h), len(r)))
        program_total += got_best
        if got_best < own_best - TOL:
            failed.append(n)
    meteor = program_total / len(corpus)
    if not _close(metrics.get("meteor-s", math.nan), meteor):
        problems.append(f"meteor-s {metrics.get('meteor-s')} != mean of per-item scores {meteor}")
    return problems, failed


# ---------------------------------------------------------- build-dataset


def check_dataset(stats: dict, examples: list[dict], records: dict, expected: dict) -> list[str]:
    problems = []
    skips = stats["skips"]
    if stats["examples"] + sum(skips.values()) + stats["errors"] != stats["records"]:
        problems.append(f"examples + skips + errors != records in {stats}")
    if stats["errors"]:
        problems.append(f"{stats['errors']} records raised errors")
    if stats["records"] != len(records):
        problems.append(f"stats count {stats['records']} records, input has {len(records)}")
    want_examples = {rid for rid, want in expected.items() if want["outcome"] == "example"}
    want_filtered = len(expected) - len(want_examples)
    got = {ex["id"]: ex for ex in examples}
    if set(got) != want_examples:
        missing = sorted(want_examples - set(got))[:5]
        extra = sorted(set(got) - want_examples)[:5]
        problems.append(f"examples missing {missing}, unexpected {extra}")
    if skips.get("type-filtered") != want_filtered or sum(skips.values()) != want_filtered:
        problems.append(f"skips {skips}, want {want_filtered} type-filtered and no others")
    for rid, ex in got.items():
        want, record = expected.get(rid), records.get(rid)
        if want is None or record is None:
            continue
        nodes = ex["chain"]["nodes"]
        if nodes[0]["surface"] != want["answer"] or nodes[1]["surface"] != want["bridge"]:
            problems.append(f"{rid}: chain {[n['surface'] for n in nodes]}, want {want['answer']!r}, {want['bridge']!r}")
        if ex["q2"] != record["question"] or ex["a2"] != record["answer"]:
            problems.append(f"{rid}: q2/a2 do not match the record")
    return problems
