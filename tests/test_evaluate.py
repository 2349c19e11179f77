"""Filters, probe harness, reports, and augmentation accounting."""

import hashlib
import json
import math
import re

import pytest

from hopqg.errors import AnnotationError, BackendError, MetricError
from hopqg.evaluate import (
    REASON_LEAK,
    REASON_LENGTH,
    _check_trace,
    difficulty_probe,
    emit_augmentation,
    filter_generated,
    metric_report,
    oversample_factor,
    read_traces,
    write_jsonl,
)
from hopqg.metrics import TOKENIZER_SPEC


def qa(question, answer, d=1, context="ctx"):
    return {"question": question, "answer": answer, "d": d, "context": context}


def words(n):
    return " ".join(f"w{i}" for i in range(n))


def test_filter_length_boundaries_inclusive():
    items = [qa(words(n) + " ?", "x") for n in (4, 5, 29, 30)]
    # The appended "?" token makes the questions 5, 6, 30, and 31 words long.
    kept, dropped = filter_generated(items)
    assert [len(k["question"].split()) for k in kept] == [6, 30]
    assert [(len(i["question"].split()), r) for i, r in dropped] == [
        (5, REASON_LENGTH),
        (31, REASON_LENGTH),
    ]


def test_filter_drops_answer_leak():
    leak = qa("Who starred in Top Gun according to this?", "Top Gun")
    clean = qa("Who starred in the famous aviation film?", "Top Gun")
    kept, dropped = filter_generated([leak, clean])
    assert kept == [clean]
    assert dropped == [(leak, REASON_LEAK)]


def test_filter_leak_uses_normalized_forms():
    item = qa("Which film did the top gun, so to speak, appear in?", "The Top Gun!")
    _, dropped = filter_generated([item])
    assert dropped == [(item, REASON_LEAK)]
    # Punctuation is deleted, not blanked: "Top-Gun" normalizes to "topgun",
    # which no longer matches the spaced phrase in the question.
    hyphen = qa("Which film did the top gun, so to speak, appear in?", "Top-Gun")
    kept, _ = filter_generated([hyphen])
    assert kept == [hyphen]


def test_filter_empty_answer_cannot_leak():
    item = qa("Who starred in the famous aviation film?", "the")
    # "the" normalizes to "" (article removal); the leak check must not
    # treat the empty string as a universal substring.
    kept, dropped = filter_generated([item])
    assert kept == [item] and not dropped


def test_filter_partitions_and_is_idempotent():
    items = [qa(words(n), "zz") for n in range(1, 40)]
    kept, dropped = filter_generated(items)
    assert len(kept) + len(dropped) == len(items)
    kept2, dropped2 = filter_generated(kept)
    assert kept2 == kept and dropped2 == []


class OracleQa:
    name = "oracle"

    def __init__(self, traces):
        self.gold = {t["question"]: t["answer"] for t in traces}

    def answer(self, question, context):
        return self.gold[question]


class EmptyQa:
    name = "empty"

    def answer(self, question, context):
        return ""


class FlakyQa:
    name = "flaky"

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def answer(self, question, context):
        if question in self.fail_on:
            raise BackendError("boom")
        return "alfred hitchcock"


def make_traces():
    return [
        qa("q one?", "Alfred Hitchcock", d=1),
        qa("q two?", "Alfred Hitchcock won", d=1),
        qa("q three?", "Tony Scott", d=2),
        qa("q four?", "Tony Scott", d=2),
    ]


def test_probe_oracle_backend_scores_one_everywhere():
    traces = make_traces()
    result = difficulty_probe(traces, OracleQa(traces), concurrency=2)
    assert result.backend == "oracle" and not result.incomplete
    for d in (1, 2):
        assert result.buckets[d].count == 2
        assert result.buckets[d].em == 1.0
        assert result.buckets[d].f1 == 1.0


def test_probe_empty_backend_scores_zero():
    result = difficulty_probe(make_traces(), EmptyQa())
    for bucket in result.buckets.values():
        assert bucket.em == 0.0 and bucket.f1 == 0.0


def test_probe_em_never_exceeds_f1():
    result = difficulty_probe(make_traces(), FlakyQa(fail_on=set()))
    for bucket in result.buckets.values():
        assert bucket.em <= bucket.f1 + 1e-12


def test_probe_flags_incomplete_on_backend_failure():
    traces = make_traces()
    result = difficulty_probe(traces, FlakyQa(fail_on={"q three?"}))
    assert result.incomplete and result.failures == 1
    assert result.buckets[2].count == 1
    report = result.to_json()
    assert report["incomplete"] is True
    assert set(report["per_d"]) == {"1", "2"}


def test_probe_table_mentions_buckets():
    result = difficulty_probe(make_traces(), EmptyQa())
    table = result.format_table()
    lines = table.splitlines()
    assert lines[0].split() == ["d", "count", "EM", "F1"]
    assert len(lines) == 3


def test_metric_report_names_and_header():
    corpus = [("who directed top gun ?", ["who directed top gun ?"])] * 2
    report = metric_report(corpus, ["bleu3", "bleu4", "rouge-l", "meteor-s", "cider"])
    assert report["tokenizer"] == TOKENIZER_SPEC
    assert report["items"] == 2
    for name in ("bleu3", "bleu4", "rouge-l", "meteor-s"):
        assert report["metrics"][name] == pytest.approx(1.0)
    with pytest.raises(MetricError):
        metric_report(corpus, ["bleu9"])


def test_metric_report_pairwise_takes_best_reference():
    corpus = [("a b c d", ["x y z", "a b c d"])]
    report = metric_report(corpus, ["rouge-l"])
    assert report["metrics"]["rouge-l"] == pytest.approx(1.0)


def test_oversample_factor_examples():
    assert oversample_factor(50, 100, 4.0) == 8
    assert oversample_factor(120, 100, 1.0) == 1
    assert oversample_factor(0, 100, 4.0) == 1
    assert oversample_factor(100, 0, 4.0) == 1
    with pytest.raises(MetricError):
        oversample_factor(10, 10, 0.5)


def test_emit_augmentation_accounting_and_determinism(tmp_path):
    generated = [qa(f"gen {i}?", "a") for i in range(100)]
    originals = [qa(f"orig {i}?", "b") for i in range(50)]
    mixed = emit_augmentation(generated, originals, ratio=4.0, seed=9)
    assert len(mixed) == 50 * 8 + 100
    n_orig = sum(1 for r in mixed if r["source"] == "original")
    assert n_orig == 400 and n_orig >= 4.0 * 100
    again = emit_augmentation(generated, originals, ratio=4.0, seed=9)
    assert mixed == again
    other = emit_augmentation(generated, originals, ratio=4.0, seed=10)
    assert mixed != other

    path = tmp_path / "aug.jsonl"
    write_jsonl(mixed, str(path))
    assert read_traces(str(path), path.read_text(encoding="utf-8")) == mixed


def _dumps_lines(records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def test_write_jsonl_writes_the_bytes_json_dumps_gives(tmp_path):
    records = [
        {"text": "Straße İzmir ☃ 𝄞 \u2028", "esc": 'quote " back \\ slash / tab\t nl\n'},
        {"control": "".join(map(chr, range(32))) + "\x7f\x80"},
        {"nested": [[], {}, [1, [2, {"a": []}]], {"b": {"c": {}}}], "": {}, "list": []},
        {"floats": [0.1 + 0.2, 1e300, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1.0, 2.5e-7]},
        {"ints": [2**100, -(2**70), 0], "none": None, "flags": [True, False], 7: "int key", None: "null key"},
        {},
    ]
    path = tmp_path / "out.jsonl"
    digest = write_jsonl(records, str(path))
    assert path.read_bytes() == _dumps_lines(records)
    assert digest == hashlib.sha256(_dumps_lines(records)).hexdigest()


def _cyclic() -> dict:
    record = {"a": []}
    record["a"].append(record)
    return record


@pytest.mark.parametrize("bad", [{"tags": {"x"}}, _cyclic()], ids=["set", "cycle"])
def test_write_jsonl_raises_as_json_dumps_on_an_unencodable_record_and_writes_nothing(tmp_path, bad):
    with pytest.raises((TypeError, ValueError)) as want:
        json.dumps(bad, ensure_ascii=False)
    path = tmp_path / "out.jsonl"
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        write_jsonl([{"ok": [1]}, bad], str(path))
    assert not path.exists()
    # A failed call leaves nothing behind that a later one sees.
    write_jsonl([{"ok": [1]}, {"again": {"b": []}}], str(path))
    assert path.read_bytes() == _dumps_lines([{"ok": [1]}, {"again": {"b": []}}])


def test_emit_augmentation_ratio_one_no_duplication():
    generated = [qa("gen?", "a")] * 10
    originals = [qa("orig?", "b")] * 20
    mixed = emit_augmentation(generated, originals, ratio=1.0)
    assert len(mixed) == 30


@pytest.mark.parametrize(
    "trace, message",
    [
        ({"answer": "a", "context": "c", "d": 1}, "record has no 'question'"),
        (qa(5, "a"), "'question' must be a string, got an integer"),
        (qa("q ?", "a", d=0), "'d' must be >= 1, got 0"),
        ({**qa("q ?", "a", d=2), "intermediates": [1]}, "'intermediates' must be an array of strings"),
        ({**qa("q ?", "a", d=3), "intermediates": ["q1 ?"]}, "'d' must be one more than the 1 intermediates, got 3"),
    ],
    ids=["missing", "kind", "d-below-one", "intermediates", "d-against-intermediates"],
)
def test_check_trace_errors_name_no_place(trace, message):
    """Where a record sits is named by the reader of its file, not here."""
    with pytest.raises(AnnotationError) as info:
        _check_trace(trace, required=("question", "answer", "context", "d"))
    assert str(info.value) == message
