"""End-to-end command tests: exit codes, outputs, manifests, reruns."""

import gc
import json
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import hopqg
import hopqg.cli
from hopqg.cli import main
from hopqg.context import AnnotatedContext
from hopqg.evaluate import write_jsonl
from hopqg.pipeline import generate_for_context
from hopqg.template import TemplateBackend
from util import (
    comparison_record_doc,
    film3_context_doc,
    film_context_doc,
    prize_record_doc,
    remake_record_doc,
)

HERE = os.path.dirname(__file__)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_json(path, doc):
    return write(path, json.dumps(doc))


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.readlines()


def read_manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- build-graph


def test_build_graph_matches_golden(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "graph.json")
    assert main(["build-graph", "--context", ctx, "--out", out]) == 0
    with open(os.path.join(HERE, "data", "film_graph.json")) as fh:
        golden = fh.read()
    with open(out) as fh:
        assert fh.read() == golden
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["command"] == "build-graph"
    assert len(manifest["inputs"][ctx]) == 64
    assert out in manifest["outputs"]
    assert manifest["stages"]["build"]["count"] == 1


def test_build_graph_idempotent_rerun(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "graph.json")
    assert main(["build-graph", "--context", ctx, "--out", out]) == 0
    first = Path(out).read_bytes()
    assert main(["build-graph", "--context", ctx, "--out", out]) == 0
    assert Path(out).read_bytes() == first


def test_build_graph_malformed_json_exits_2(tmp_path, capsys):
    ctx = write(tmp_path / "ctx.json", '{"context": "x", "sentences": [,]}')
    assert main(["build-graph", "--context", ctx, "--out", str(tmp_path / "g.json")]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_build_graph_invalid_context_exits_2(tmp_path):
    doc = {"context": "x", "sentences": [{"start": 0, "end": 99}]}
    ctx = write_json(tmp_path / "ctx.json", doc)
    assert main(["build-graph", "--context", ctx, "--out", str(tmp_path / "g.json")]) == 2


def test_build_graph_missing_file_exits_2(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["build-graph", "--context", missing, "--out", str(tmp_path / "g.json")]) == 2


def test_manifest_only_skips_outputs(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "graph.json")
    assert main(["build-graph", "--context", ctx, "--out", out, "--manifest-only"]) == 0
    assert not os.path.exists(out)
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["outputs"] == {} and manifest["stages"] == {}
    assert ctx in manifest["inputs"]


def test_multi_line_context_errors_name_their_line(tmp_path, capsys):
    pretty = write(tmp_path / "pretty.json", json.dumps(film_context_doc(), indent=2))
    assert main(["build-graph", "--context", pretty, "--out", str(tmp_path / "g.json")]) == 0
    ctx = write(tmp_path / "ctx.json", '{\n  "context": "x",\n  "sentences": [,]\n}\n')
    assert main(["build-graph", "--context", ctx, "--out", str(tmp_path / "g2.json")]) == 2
    assert f"{ctx}:3: invalid JSON" in capsys.readouterr().err


# ------------------------------------------------------------------- generate


def test_generate_template_d2(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    code = main([
        "generate", "--context", ctx, "--d", "2", "--seed", "0",
        "--backend", "template", "--answer", "Tom Cruise", "--out", out,
    ])
    assert code == 0
    lines = [json.loads(l) for l in read_lines(out) if l.strip()]
    assert len(lines) == 1
    trace = lines[0]
    assert trace["d"] == 2 and trace["answer"] == "Tom Cruise"
    assert trace["question"].endswith("?")
    assert len(trace["intermediates"]) == 1
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["rewrite"]["count"] == 1
    assert manifest["stages"]["failed"]["count"] == 0


def test_generate_d1_never_rewrites(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    assert main(["generate", "--context", ctx, "--d", "1", "--out", out]) == 0
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["rewrite"]["count"] == 0
    assert manifest["stages"]["initial"]["count"] == 1


def test_generate_same_seed_identical_bytes(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film_context_doc()])
    out_a = str(tmp_path / "a.jsonl")
    out_b = str(tmp_path / "b.jsonl")
    args = ["generate", "--context", ctx, "--d", "2", "--seed", "5", "--count", "3"]
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    assert Path(out_a).read_bytes() == Path(out_b).read_bytes()
    assert len(read_lines(out_a)) == 6


def test_generate_per_item_failures_exit_1(tmp_path, caplog):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    code = main([
        "generate", "--context", ctx, "--answer", "No Such Entity", "--out", out,
    ])
    assert code == 1
    assert Path(out).read_text() == ""
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["failed"]["count"] == 1


def count_builds(monkeypatch) -> list:
    """Patch the CLI's graph builder; returns a weak reference per graph built."""
    built = []
    real_build = hopqg.cli.build_context_graph

    def counting_build(ctx):
        graph = real_build(ctx)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(hopqg.cli, "build_context_graph", counting_build)
    return built


def test_generate_builds_one_graph_per_context(tmp_path, monkeypatch):
    built = count_builds(monkeypatch)
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film3_context_doc()])
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--d", "2", "--seed", "3", "--count", "4", "--out", out]
    assert main(args) == 0
    assert len(built) == 2
    stages = read_manifest(out + ".manifest.json")["stages"]
    assert stages["build"]["count"] == 2
    assert stages["plan"]["count"] == stages["generate"]["count"] == 8


def test_generate_drops_each_graph_after_its_last_seed(tmp_path, monkeypatch):
    built = count_builds(monkeypatch)
    alive_at_build = []
    real_build = hopqg.cli.build_context_graph

    def build_and_look(ctx):
        # The planner's recursive closure leaves cycles that hold a graph
        # until the cycle collector runs; collect them first.
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in built))
        return real_build(ctx)

    monkeypatch.setattr(hopqg.cli, "build_context_graph", build_and_look)
    docs = [film_context_doc(), film3_context_doc(), film_context_doc()]
    ctx = write_json(tmp_path / "ctx.json", docs)
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--count", "3", "--config", cfg, "--out", out]
    assert main(args) == 0
    # With one worker a context's jobs finish before the next context's
    # build, so no earlier graph is still held.
    assert alive_at_build == [0, 0, 0]


def test_generate_shared_state_under_thread_stress(tmp_path, monkeypatch):
    built = count_builds(monkeypatch)
    docs = [film_context_doc(), film3_context_doc()] * 3
    ctx = write_json(tmp_path / "ctx.json", docs)
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": 8})
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--count", "8", "--config", cfg, "--out", out]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(args) == 0
    finally:
        sys.setswitchinterval(interval)
    # A lost check-then-act would build a graph twice; a lost update would
    # drop a stage count.
    assert len(built) == len(docs)
    stages = read_manifest(out + ".manifest.json")["stages"]
    assert stages["build"]["count"] == len(docs)
    assert stages["plan"]["count"] == stages["generate"]["count"] == 8 * len(docs)
    assert len((tmp_path / "traces.jsonl").read_text().splitlines()) == 8 * len(docs)


def test_generate_shared_graph_output_equals_per_seed_helper(tmp_path):
    docs = [film_context_doc(), film3_context_doc()]
    ctx = write_json(tmp_path / "ctx.json", docs)
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--d", "2", "--seed", "3", "--count", "4", "--out", out]
    assert main(args) == 0
    expected = str(tmp_path / "expected.jsonl")
    write_jsonl(
        [
            generate_for_context(AnnotatedContext.from_json(doc), 2, 3 + k, TemplateBackend()).to_json()
            for doc in docs
            for k in range(4)
        ],
        expected,
    )
    assert (tmp_path / "traces.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_generate_seeds_of_one_context_run_in_parallel(tmp_path, monkeypatch):
    class BarrierBackend(TemplateBackend):
        # Each initial call waits for a second one: two seed jobs of the
        # same context must be in flight at once, or the barrier breaks.
        barrier = threading.Barrier(2, timeout=5)

        def initial(self, gi, info):
            self.barrier.wait()
            return super().initial(gi, info)

    monkeypatch.setattr(hopqg.cli, "_generator_backend", lambda name, config: BarrierBackend())
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": 2})
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--count", "2", "--config", cfg, "--out", out]
    assert main(args) == 0
    assert len((tmp_path / "traces.jsonl").read_text().splitlines()) == 2


def test_generate_stage_seconds_within_wall_time(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film3_context_doc()])
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--d", "2", "--count", "3", "--config", cfg, "--out", out]
    start = time.perf_counter()
    assert main(args) == 0
    wall = time.perf_counter() - start
    stages = read_manifest(out + ".manifest.json")["stages"]
    assert [stages[name]["count"] for name in ("build", "plan", "generate")] == [2, 6, 6]
    timed = sum(stages[name]["seconds"] for name in ("build", "plan", "generate"))
    assert 0 < timed <= wall
    assert stages["initial"] == {"count": 6, "seconds": 0.0}
    assert stages["rewrite"] == {"count": 6, "seconds": 0.0}


def test_generate_bad_jsonl_line_names_path_and_line(tmp_path, capsys):
    text = "\n" + json.dumps(film_context_doc()) + "\n" + '{"context": "x",\n'
    ctx = write(tmp_path / "ctx.jsonl", text)
    assert main(["generate", "--context", ctx, "--out", str(tmp_path / "t.jsonl")]) == 2
    assert f"{ctx}:3: invalid JSON" in capsys.readouterr().err


def test_generate_remote_without_endpoint_exits_2(tmp_path):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    code = main([
        "generate", "--context", ctx, "--backend", "remote",
        "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--d", "0"), ("--count", "0"), ("--count", "-2")])
def test_generate_rejects_d_or_count_below_one(tmp_path, capsys, flag, value):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = tmp_path / "t.jsonl"
    for extra in ([], ["--manifest-only"]):
        assert main(["generate", "--context", ctx, flag, value, "--out", str(out)] + extra) == 2
        assert f"error: {flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "t.jsonl.manifest.json").exists()


def test_generate_remote_manifest_only_without_endpoint_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("HOPQG_GENERATOR_URL", raising=False)
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    manifest = tmp_path / "m.json"
    code = main([
        "generate", "--context", ctx, "--backend", "remote", "--manifest-only",
        "--manifest", str(manifest), "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    assert not manifest.exists()


# -------------------------------------------------------------- build-dataset


def test_build_dataset_three_records(tmp_path):
    records = [remake_record_doc(), comparison_record_doc(), prize_record_doc()]
    hotpot = write_json(tmp_path / "hotpot.json", records)
    out = str(tmp_path / "examples.jsonl")
    stats_path = str(tmp_path / "stats.json")
    code = main([
        "build-dataset", "--hotpot", hotpot, "--out", out, "--stats", stats_path,
    ])
    assert code == 0
    examples = [json.loads(l) for l in read_lines(out) if l.strip()]
    assert len(examples) == 2
    assert {e["type"] for e in examples} == {"Bridge", "Intersection"}
    stats = json.loads(Path(stats_path).read_text())
    assert stats["records"] == 3
    assert stats["skips"]["type-filtered"] == 1
    assert stats["examples"] + sum(stats["skips"].values()) + stats["errors"] == 3
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["build"]["count"] == 2
    assert manifest["stages"]["skipped"]["count"] == 1


def test_build_dataset_rerun_is_byte_identical(tmp_path):
    records = [remake_record_doc(), prize_record_doc()]
    hotpot = write_json(tmp_path / "hotpot.json", records)
    out = str(tmp_path / "examples.jsonl")
    assert main(["build-dataset", "--hotpot", hotpot, "--out", out]) == 0
    first = Path(out).read_bytes()
    assert main(["build-dataset", "--hotpot", hotpot, "--out", out]) == 0
    assert first != b""
    assert Path(out).read_bytes() == first


def test_build_dataset_remote_without_endpoints_exits_2(tmp_path):
    hotpot = write_json(tmp_path / "hotpot.json", [remake_record_doc()])
    out = str(tmp_path / "examples.jsonl")
    code = main(["build-dataset", "--hotpot", hotpot, "--backends", "remote", "--out", out])
    assert code == 2
    # Fails before any record is processed.
    assert not os.path.exists(out)


def test_build_dataset_bad_json_names_path_and_line(tmp_path, capsys):
    hotpot = write(tmp_path / "hotpot.json", '[\n  {"_id": "a",\n   "question": }\n]\n')
    assert main(["build-dataset", "--hotpot", hotpot, "--out", str(tmp_path / "ex.jsonl")]) == 2
    assert f"{hotpot}:3: invalid JSON" in capsys.readouterr().err


# ------------------------------------------------------------------- evaluate


def test_evaluate_identity_scores(tmp_path, capsys):
    lines = ["who directed top gun ?", "tom cruise starred in top gun"]
    hyp = write(tmp_path / "hyp.txt", "\n".join(lines) + "\n")
    ref = write(tmp_path / "ref.txt", "\n".join(lines) + "\n")
    out = str(tmp_path / "report.json")
    code = main(["evaluate", "--hyp", hyp, "--ref", ref, "--out", out, "--table"])
    assert code == 0
    report = json.loads(Path(out).read_text())
    metrics = report["metrics"]
    for name in ("bleu3", "bleu4", "rouge-l", "meteor-s"):
        assert metrics[name] == pytest.approx(1.0)
    assert metrics["cider"] == pytest.approx(10.0)
    assert report["items"] == 2
    assert "tokenizer" in report
    table = capsys.readouterr().out
    assert "rouge-l" in table and "1.000000" in table


def test_evaluate_multi_reference_lines(tmp_path, capsys, monkeypatch):
    # Without --out, evaluate writes its manifest into the working directory.
    monkeypatch.chdir(tmp_path)
    hyp = write(tmp_path / "hyp.txt", "the cat sat\n")
    ref = write(tmp_path / "ref.txt", json.dumps(["a dog ran", "the cat sat"]) + "\n")
    code = main(["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "rouge-l"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["rouge-l"] == pytest.approx(1.0)
    assert (tmp_path / "hopqg-evaluate-manifest.json").is_file()


def test_evaluate_bad_inputs_exit_2(tmp_path):
    hyp = write(tmp_path / "hyp.txt", "a b c\n")
    ref = write(tmp_path / "ref.txt", "a b c\nextra line\n")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref]) == 2
    ref2 = write(tmp_path / "ref2.txt", "a b c\n")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref2, "--metrics", "bleu9"]) == 2


def test_evaluate_bad_reference_array_names_path_and_line(tmp_path, capsys):
    hyp = write(tmp_path / "hyp.txt", "a b c\na b c\n")
    ref = write(tmp_path / "ref.txt", 'a b c\n\n["a b c",]\n')
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--out", str(tmp_path / "r.json")]) == 2
    assert f"{ref}:3: invalid JSON" in capsys.readouterr().err


# --------------------------------------------------------------------- filter


def test_filter_command(tmp_path):
    def q(n):
        return " ".join(f"w{i}" for i in range(n - 1)) + " ?"

    items = [
        {"question": q(5), "answer": "x"},
        {"question": q(6), "answer": "x"},
        {"question": q(30), "answer": "x"},
        {"question": q(31), "answer": "x"},
        {"question": "Who starred in Top Gun exactly ?", "answer": "Top Gun"},
    ]
    traces = write(tmp_path / "t.jsonl", "\n".join(json.dumps(i) for i in items) + "\n")
    out = str(tmp_path / "kept.jsonl")
    rejects = str(tmp_path / "rejects.jsonl")
    assert main(["filter", "--traces", traces, "--out", out, "--rejects", rejects]) == 0
    kept = [json.loads(l) for l in read_lines(out)]
    assert [len(k["question"].split()) for k in kept] == [6, 30]
    dropped = [json.loads(l) for l in read_lines(rejects)]
    assert [d["reason"] for d in dropped] == ["length", "length", "leak"]
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["filter"]["count"] == 2
    assert manifest["stages"]["dropped"]["count"] == 3


def test_filter_bad_jsonl_line_names_path_and_line(tmp_path, capsys):
    text = json.dumps({"question": "one two three four five six ?", "answer": "x"}) + '\n{"question": 5,,}\n'
    traces = write(tmp_path / "t.jsonl", text)
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", "--traces", traces, "--out", out]) == 2
    assert f"{traces}:2: invalid JSON" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_filter_respects_bound_flags(tmp_path):
    items = [{"question": "one two three four", "answer": "z"}]
    traces = write(tmp_path / "t.jsonl", json.dumps(items[0]) + "\n")
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", "--traces", traces, "--out", out, "--min-words", "2"]) == 0
    assert len(read_lines(out)) == 1


# ---------------------------------------------------------------------- probe


def probe_traces():
    return [
        {
            "question": "Who won the Marlowe Prize?",
            "context": "Victor Reyes won the Marlowe Prize in 1996.",
            "answer": "Victor Reyes",
            "d": 1,
        },
        {
            "question": "Who starred in the film directed by Kyle Ross?",
            "context": "Kyle Ross directed Night Fair. Dana Cole starred in Night Fair.",
            "answer": "Dana Cole",
            "d": 2,
        },
    ]


def test_probe_rule_backend(tmp_path, capsys):
    traces = write(
        tmp_path / "t.jsonl", "\n".join(json.dumps(t) for t in probe_traces()) + "\n"
    )
    out = str(tmp_path / "probe.json")
    code = main(["probe", "--traces", traces, "--backend", "rule", "--out", out])
    assert code == 0
    report = json.loads(Path(out).read_text())
    assert report["per_d"]["1"]["em"] == pytest.approx(1.0)
    assert report["per_d"]["1"]["count"] == 1
    assert report["backend"] == "rule-qa"
    table = capsys.readouterr().out
    assert "EM" in table and "F1" in table


def test_probe_remote_without_endpoint_exits_2(tmp_path):
    traces = write(tmp_path / "t.jsonl", json.dumps(probe_traces()[0]) + "\n")
    assert main(["probe", "--traces", traces]) == 2


# -------------------------------------------------------------------- augment


def test_augment_mix_counts(tmp_path):
    generated = [{"question": f"gen {i} ?", "answer": "a"} for i in range(2)]
    originals = [{"question": f"orig {i} ?", "answer": "b"} for i in range(3)]
    traces = write(tmp_path / "gen.jsonl", "\n".join(json.dumps(g) for g in generated) + "\n")
    orig = write_json(tmp_path / "orig.json", originals)
    out = str(tmp_path / "mixed.jsonl")
    assert main(["augment", "--traces", traces, "--originals", orig, "--out", out]) == 0
    mixed = [json.loads(l) for l in read_lines(out)]
    # factor = ceil(4.0 * 2 / 3) = 3, so 3 * 3 originals + 2 generated.
    assert len(mixed) == 11
    assert sum(1 for m in mixed if m["source"] == "generated") == 2

    out2 = str(tmp_path / "mixed2.jsonl")
    assert main(["augment", "--traces", traces, "--originals", orig, "--out", out2]) == 0
    assert Path(out).read_bytes().replace(b"mixed", b"") == Path(out2).read_bytes().replace(b"mixed2", b"")


def test_augment_ratio_flag(tmp_path):
    generated = [{"question": "gen ?", "answer": "a"}]
    originals = [{"question": "orig ?", "answer": "b"}]
    traces = write(tmp_path / "gen.jsonl", json.dumps(generated[0]) + "\n")
    orig = write_json(tmp_path / "orig.json", originals)
    out = str(tmp_path / "mixed.jsonl")
    code = main([
        "augment", "--traces", traces, "--originals", orig, "--ratio", "1.0", "--out", out,
    ])
    assert code == 0
    assert len(read_lines(out)) == 2


def test_augment_bad_originals_array_names_path_and_line(tmp_path, capsys):
    traces = write(tmp_path / "gen.jsonl", json.dumps({"question": "gen ?", "answer": "a"}) + "\n")
    orig = write(tmp_path / "orig.json", '[\n  {"question": "q ?"},\n  {"question": }\n]\n')
    code = main(["augment", "--traces", traces, "--originals", orig, "--out", str(tmp_path / "m.jsonl")])
    assert code == 2
    assert f"{orig}:3: invalid JSON" in capsys.readouterr().err


# --------------------------------------------------------------------- config


def test_cli_uses_config_file(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"min_words": 2, "max_words": 3})
    item = {"question": "too short ?", "answer": "z"}
    traces = write(tmp_path / "t.jsonl", json.dumps(item) + "\n")
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", "--traces", traces, "--out", out, "--config", cfg]) == 0
    assert len(read_lines(out)) == 1


def test_cli_invalid_config_exits_2(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"d": 0})
    item = {"question": "q ?", "answer": "z"}
    traces = write(tmp_path / "t.jsonl", json.dumps(item) + "\n")
    assert main(["filter", "--traces", traces, "--out", str(tmp_path / "k.jsonl"), "--config", cfg]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "hopqg 0.1.0" in capsys.readouterr().out


def test_malformed_config_files_name_path_and_line(tmp_path, capsys):
    item = {"question": "q one two three four five six ?", "answer": "z"}
    traces = write(tmp_path / "t.jsonl", json.dumps(item) + "\n")
    args = ["filter", "--traces", traces, "--out", str(tmp_path / "k.jsonl"), "--config"]
    cfg = write(tmp_path / "cfg.json", '{\n  "min_words": }\n')
    assert main(args + [cfg]) == 2
    assert f"{cfg}:2: config is not valid JSON" in capsys.readouterr().err
    cats = write(tmp_path / "cats.json", '{\n  "Top Gun": }\n')
    cfg = write_json(tmp_path / "cfg2.json", {"category_overrides_file": cats})
    assert main(args + [cfg]) == 2
    assert f"{cats}:2: invalid JSON" in capsys.readouterr().err


# -------------------------------------------------------------- dependencies


def test_cli_import_pulls_in_no_third_party_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopqg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, hopqg.cli; "
        "print(sorted(m for m in ('numpy', 'numba', 'requests', 'urllib3') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
