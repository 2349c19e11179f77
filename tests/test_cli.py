"""End-to-end command tests: exit codes, outputs, manifests, reruns."""

import argparse
import builtins
import concurrent.futures
import gc
import hashlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

import hopqg
import hopqg.cli
import hopqg.graph
import hopqg.manifest
import hopqg.template
from hopqg.cli import main
from hopqg.context import AnnotatedContext
from hopqg.dataset_builder import RuleDecomposer, RuleQa, RuleTypeClassifier
from hopqg.errors import AnnotationError, BackendError
from hopqg.evaluate import read_traces, write_jsonl
from hopqg.hotpot import load_hotpot
from hopqg.template import TemplateBackend
from util import (
    FILM_NES,
    FILM_SENTENCES,
    FILM_TRIPLES,
    comparison_record_doc,
    film3_context_doc,
    film_context_doc,
    generate_for_context,
    make_context_doc,
    marked_film_context_doc,
    novel_record_doc,
    prize_record_doc,
    remake_record_doc,
    serve_http,
)

HERE = os.path.dirname(__file__)
MISSING = object()


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["triples"][0]["object"].update(start=23.0), None),
        (lambda doc: doc["triples"][0]["object"].update(start=23.7, end="33"),
         "triple 0 object: 'start' must be an integer, got a number"),
        (lambda doc: doc["triples"][1]["relation"].update(end="33"),
         "triple 1 relation: 'end' must be an integer, got a string"),
        (lambda doc: doc["sentences"][1].update(start=True), "sentence 1: 'start' must be an integer, got a boolean"),
        (lambda doc: doc["named_entities"][2].update(sent=False),
         "named entity 2: 'sent' must be an integer, got a boolean"),
        (lambda doc: doc.update(coref_clusters=[[{"sent": 0, "start": 0.5, "end": 3}, {"sent": 0, "start": 0, "end": 3}]]),
         "coref cluster 0 mention: 'start' must be an integer, got a number"),
        (lambda doc: doc.update(sentences=5), "'sentences' must be an array, got an integer"),
        (lambda doc: doc.update(triples={}), "'triples' must be an array, got an object"),
        (lambda doc: doc.update(coref_clusters=[{"sent": 0}]), "coref cluster 0 must be an array, got an object"),
        (lambda doc: doc.update(named_entities=None), "'named_entities' must be an array, got null"),
        (lambda doc: doc["named_entities"][1].update(start=23.0), None),
        # Both mentions are of Top Gun's node already, so the cluster merges nothing.
        (lambda doc: doc.update(coref_clusters=[[{"sent": 0, "start": 0.0, "end": 7}, {"sent": 2, "start": 66, "end": 73.0}]]),
         None),
        (lambda doc: doc["triples"][2]["subject"].update(sent=True),
         "triple 2 subject: 'sent' must be an integer, got a boolean"),
    ],
    ids=["integral-float", "fraction", "string", "boolean-sentence", "boolean-entity", "fraction-mention",
         "sentences", "triples", "cluster", "named-entities", "integral-float-entity", "integral-float-mention",
         "boolean-triple-sentence"],
)
def test_build_graph_takes_offsets_only_as_integral_numbers(tmp_path, capsys, edit, message):
    doc = film_context_doc()
    edit(doc)
    ctx = write_json(tmp_path / "ctx.json", doc)
    out = tmp_path / "graph.json"
    if message is None:
        assert main(["build-graph", "--context", ctx, "--out", str(out)]) == 0
        assert out.read_text() == Path(HERE, "data", "film_graph.json").read_text()
        return
    assert main(["build-graph", "--context", ctx, "--out", str(out)]) == 2
    assert f"error: {ctx}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argument", ["  ", "( Foo"], ids=["blank", "bare-punctuation"])
def test_build_graph_without_named_entities_takes_no_empty_token_for_a_name(tmp_path, argument):
    """With no named_entities, a node is a named entity when a mention is a
    capitalized run; a blank mention has no token and "(" is empty once its
    punctuation is stripped, so neither is a run."""
    doc = make_context_doc(
        [f"Oslo faces {argument} now.", "Ships sail to North Bay."],
        [(0, "Oslo", "faces", argument), (1, "Ships", "sail to", "North Bay")],
    )
    assert "named_entities" not in doc
    ctx = write_json(tmp_path / "ctx.json", doc)
    out = tmp_path / "graph.json"
    assert main(["build-graph", "--context", ctx, "--out", str(out)]) == 0
    nodes = json.loads(out.read_text())["nodes"]
    assert {n["surface"]: n["is_named_entity"] for n in nodes} == {
        "Oslo": False, " ".join(argument.split()): False, "Ships": False, "North Bay": True,
    }


def test_build_graph_on_two_contexts_exits_2(tmp_path, capsys):
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film3_context_doc()])
    out = tmp_path / "graph.json"
    assert main(["build-graph", "--context", ctx, "--out", str(out)]) == 2
    assert "error: build-graph expects exactly one annotated context\n" in capsys.readouterr().err
    assert not out.exists()


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


def test_build_graph_non_string_context_exits_2(tmp_path, capsys):
    ctx = write_json(tmp_path / "ctx.json", {"context": 1})
    assert main(["build-graph", "--context", ctx, "--out", str(tmp_path / "g.json")]) == 2
    assert "'context' field must be a string, got an integer" in capsys.readouterr().err

def test_build_graph_missing_file_exits_2(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["build-graph", "--context", missing, "--out", str(tmp_path / "g.json")]) == 2


# Each command's input options.
COMMAND_INPUTS = {
    "build-graph": ("context",),
    "generate": ("context",),
    "build-dataset": ("hotpot",),
    "evaluate": ("hyp", "ref"),
    "filter": ("traces",),
    "probe": ("traces",),
    "augment": ("traces", "originals"),
}


def command_argv(tmp_path, command, options):
    """argv of command over small valid input files, with options (an option
    None or False is not given), and the input files it names."""
    files = {
        "context": write_json(tmp_path / "ctx.json", film_context_doc()),
        "hotpot": write_json(tmp_path / "hotpot.json", [remake_record_doc(), prize_record_doc()]),
        "hyp": write(tmp_path / "hyp.txt", "a b c\nd e f\n"),
        "ref": write(tmp_path / "ref.txt", "a b c\nd e f\n"),
        "traces": write(tmp_path / "t.jsonl", "".join(json.dumps(t) + "\n" for t in probe_traces())),
        "originals": write_json(tmp_path / "orig.json", [{"question": "q ?", "answer": "b"}]),
    }
    inputs = {name: files[name] for name in COMMAND_INPUTS[command]}
    argv = [command]
    for name, value in {**inputs, **options}.items():
        if value is not None and value is not False:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv, inputs


def every_output(tmp_path, command):
    """Options of a run of command that writes every output file it can."""
    out = str(tmp_path / "out")
    return {
        "build-dataset": {"out": out, "stats": str(tmp_path / "stats.json")},
        "filter": {"out": out, "rejects": str(tmp_path / "rejects.jsonl")},
        "probe": {"backend": "rule", "out": out},
    }.get(command, {"out": out})


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_manifest_only_skips_outputs(tmp_path, command):
    # Every other option is given its default.
    out = str(tmp_path / "out")
    options = {
        "build-graph": {"out": out},
        "generate": {"d": 2, "seed": 0, "backend": "template", "answer": None, "count": 1, "out": out},
        "build-dataset": {"backends": "rule", "out": out, "stats": None},
        "evaluate": {"metrics": hopqg.cli.DEFAULT_METRICS, "out": None, "table": False},
        "filter": {"out": out, "rejects": None, "min_words": None, "max_words": None},
        "probe": {"backend": "rule", "out": None},
        "augment": {"ratio": None, "seed": 0, "out": out},
    }[command]
    argv, inputs = command_argv(tmp_path, command, options)
    assert main(argv + ["--manifest-only"]) == 0
    assert not os.path.exists(out)
    # Without --out the manifest lands beside the first input.
    beside = tmp_path / f"hopqg-{command}-manifest.json"
    manifest = read_manifest(out + ".manifest.json" if options["out"] else beside)
    assert set(manifest["inputs"]) == set(inputs.values())
    assert manifest["outputs"] == {} and manifest["stages"] == {}
    expected = {"command": command, "config": None, "manifest": None, **inputs, **options}
    assert manifest["arguments"] == expected


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_every_run_times_its_read_and_write(tmp_path, command):
    argv, _ = command_argv(tmp_path, command, every_output(tmp_path, command))
    before = set(tmp_path.iterdir())
    assert main(argv) == 0
    written = {str(path) for path in set(tmp_path.iterdir()) - before}
    manifest_path = str(tmp_path / "out.manifest.json")
    manifest = read_manifest(manifest_path)
    # The manifest digests exactly the files the run wrote.
    assert set(manifest["outputs"]) == written - {manifest_path} and len(written) >= 2
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
    for stage in ("read", "write"):
        assert manifest["stages"][stage]["count"] == 0 and manifest["stages"][stage]["seconds"] > 0


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_an_output_that_cannot_be_written_exits_2_before_the_run_writes(tmp_path, command, capsys):
    """An output or manifest path that is a directory, or whose directory
    does not exist, is named and stops the run before it reads anything."""
    options = every_output(tmp_path, command)
    argv, _ = command_argv(tmp_path, command, options)
    folder = tmp_path / "folder"
    folder.mkdir()
    before = sorted(tmp_path.rglob("*"))
    outputs = [value for name, value in options.items() if name != "backend"]
    for bad in (str(folder), str(tmp_path / "missing" / "out")):
        runs = [[bad if arg == path else arg for arg in argv] for path in outputs]
        for args in runs + [argv + ["--manifest", bad]]:
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and bad in err and "Traceback" not in err
            assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_an_input_that_is_a_directory_exits_2_naming_it(tmp_path, command, capsys):
    argv, inputs = command_argv(tmp_path, command, every_output(tmp_path, command))
    config = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    folder = tmp_path / "folder"
    folder.mkdir()
    for path in [*inputs.values(), config]:
        assert main([str(folder) if arg == path else arg for arg in argv + ["--config", config]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err and "Traceback" not in err


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_a_run_opens_each_file_once(tmp_path, command, monkeypatch):
    """A run opens each input, each output and the manifest once: it digests
    the bytes it read and the bytes it wrote. --manifest-only reads no input
    but digests each from disk, and writes only the manifest."""
    options = every_output(tmp_path, command)
    argv, inputs = command_argv(tmp_path, command, options)
    outputs = [value for name, value in options.items() if name != "backend"]
    manifest = str(tmp_path / "out.manifest.json")
    opened, digested = [], []
    real_open, sha256_file = builtins.open, hopqg.manifest.sha256_file

    def spy_open(file, mode="r", *args, **kwargs):
        if str(file).startswith(str(tmp_path)):
            opened.append((str(file), "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_digest(path):
        digested.append(path)
        return sha256_file(path)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(hopqg.manifest, "sha256_file", spy_digest)
    assert main(argv) == 0
    reads = [(path, False) for path in inputs.values()]
    assert sorted(opened) == sorted(reads + [(path, True) for path in outputs + [manifest]])
    assert digested == []
    opened.clear()
    assert main(argv + ["--manifest-only"]) == 0
    assert sorted(opened) == sorted(reads + [(manifest, True)])
    assert digested == list(inputs.values())


@pytest.mark.parametrize(
    "command, first, second",
    [
        ("build-dataset", "out", "stats"),
        ("build-dataset", "out", "manifest"),
        ("filter", "out", "rejects"),
        ("filter", "rejects", "manifest"),
        ("generate", "out", "manifest"),
    ],
)
def test_two_written_paths_naming_one_file_exit_2_before_reading(tmp_path, capsys, command, first, second):
    """Two outputs, or an output and the manifest, that name one file (here
    one of them through a ".." step) stop the run before it reads its
    inputs: the later write would replace the earlier one."""
    (tmp_path / "sub").mkdir()
    same = str(tmp_path / "same")
    options = {**every_output(tmp_path, command), first: same, second: str(tmp_path / "sub" / ".." / "same")}
    argv, inputs = command_argv(tmp_path, command, options)
    missing = str(tmp_path / "missing")
    argv = [missing if arg in inputs.values() else arg for arg in argv]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --{first} and --{second} name one file: {options[second]}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_an_empty_output_path_exits_2_naming_the_option_before_reading(tmp_path, capsys, command):
    """An output or manifest path given as '' is not an output left out: it
    stops the run, naming the option, before the run reads its (here
    missing) inputs, and nothing is written."""
    missing = str(tmp_path / "missing")
    options = every_output(tmp_path, command)
    for name in [name for name in options if name != "backend"] + ["manifest"]:
        argv, inputs = command_argv(tmp_path, command, {**options, name: ""})
        argv = [missing if arg in inputs.values() else arg for arg in argv]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --{name} names no file: the path is empty\n"
        assert sorted(tmp_path.rglob("*")) == before


def test_a_run_may_write_the_file_it_read(tmp_path):
    traces = write(tmp_path / "t.jsonl", "".join(json.dumps(t) + "\n" for t in probe_traces()))
    assert main(["filter", "--traces", traces, "--out", traces, "--min-words", "6"]) == 0
    assert [record["d"] for record in read_traces(traces, Path(traces).read_text(encoding="utf-8"))] == [2]


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


def test_generate_per_item_failures_exit_1(tmp_path, capsys):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    code = main([
        "generate", "--context", ctx, "--answer", "No Such Entity", "--out", out,
    ])
    assert code == 1
    assert capsys.readouterr().err == "WARNING hopqg.cli: context 0 seed 0 failed: no node overlaps 'No Such Entity'\n"
    assert Path(out).read_text() == ""
    manifest = read_manifest(out + ".manifest.json")
    assert manifest["stages"]["failed"]["count"] == 1


def test_generate_logs_the_step_a_bad_input_failed_at(tmp_path, capsys):
    ctx = write_json(tmp_path / "ctx.json", marked_film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    code = main(["generate", "--context", ctx, "--d", "2", "--answer", "Tom Cruise", "--out", out])
    assert code == 1
    assert capsys.readouterr().err == (
        "WARNING hopqg.cli: context 0 seed 0 failed: input of step 2 cannot be assembled: "
        "context sentence contains reserved marker <edge>\n"
    )


def count_builds(monkeypatch) -> list:
    """Patch the graph builder the CLI calls; returns a weak reference per
    graph built."""
    built = []
    real_build = hopqg.graph.build_context_graph

    def counting_build(ctx):
        graph = real_build(ctx)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(hopqg.graph, "build_context_graph", counting_build)
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


def test_generate_answer_tokenizes_each_node_once_per_graph(tmp_path, monkeypatch):
    """--answer with no exact match: the seeds of a context share the
    graph's node token sets, so only each seed's query is tokenized again."""
    doc = film_context_doc()
    nodes = len(hopqg.graph.build_context_graph(AnnotatedContext.from_json(doc)).nodes)
    calls = []
    real_tokens = hopqg.graph.match_tokens

    def counting_tokens(text):
        calls.append(text)
        return real_tokens(text)

    monkeypatch.setattr(hopqg.graph, "match_tokens", counting_tokens)
    ctx = write_json(tmp_path / "ctx.json", doc)
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--answer", "Cruise", "--d", "1", "--count", "50", "--out", out]
    assert main(args) == 0
    assert len(read_lines(out)) == 50
    assert {json.loads(line)["answer"] for line in read_lines(out)} == {"Tom Cruise"}
    assert len(calls) <= nodes + 50
    assert calls.count("Cruise") == 50


def test_generate_drops_each_graph_after_its_last_seed(tmp_path, monkeypatch):
    built = count_builds(monkeypatch)
    alive_at_build = []
    real_build = hopqg.graph.build_context_graph

    def build_and_look(ctx):
        alive_at_build.append(sum(ref() is not None for ref in built))
        return real_build(ctx)

    monkeypatch.setattr(hopqg.graph, "build_context_graph", build_and_look)
    docs = [film_context_doc(), film3_context_doc(), film_context_doc()]
    ctx = write_json(tmp_path / "ctx.json", docs)
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--count", "3", "--config", cfg, "--out", out]
    assert main(args) == 0
    # With one worker a context's jobs finish before the next context's
    # build, and reference counting alone frees each graph (main pauses
    # the cycle collector), so no earlier graph is still held.
    assert alive_at_build == [0, 0, 0]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case, code", [("ok", 0), ("partial", 1), ("bad-read", 2)])
def test_main_pauses_the_collector_over_a_run_and_leaves_it_as_found(tmp_path, monkeypatch, enabled, case, code):
    during = []
    real_build = hopqg.graph.build_context_graph

    def build_and_look(ctx):
        during.append(gc.isenabled())
        return real_build(ctx)

    monkeypatch.setattr(hopqg.graph, "build_context_graph", build_and_look)
    if case == "bad-read":
        ctx = write(tmp_path / "ctx.json", "{")
    else:
        ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    args = ["generate", "--context", ctx, "--count", "2", "--out", str(tmp_path / "traces.jsonl")]
    if case == "partial":
        args += ["--answer", "No Such Entity"]
    was = gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        assert main(args) == code
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()
    assert during == ([] if case == "bad-read" else [False])


def unreachable_after(argv: list[str], code: int) -> int:
    """Objects in reference cycles that a run of main leaves behind; the
    caller has the collector disabled."""
    gc.collect()
    assert main(argv) == code
    return gc.collect()


# The runs of acyclic_runs: every command, and the partial runs that fail some items.
ACYCLIC_RUNS = ["build-graph", "generate", "generate-partial", "build-dataset", "evaluate", "filter", "probe-partial", "augment"]


def acyclic_runs(tmp_path, monkeypatch, run: str):
    """argv of run over an input of n items, given n, and its exit code."""
    if run == "generate-partial":
        def fail(self, gi, info):
            raise BackendError("no service")

        monkeypatch.setattr(TemplateBackend, "rewrite", fail)
    if run.startswith("generate"):
        def argv(n):
            ctx = write_json(tmp_path / f"ctx{n}.json", [film_context_doc(), film3_context_doc()] * n)
            return ["generate", "--context", ctx, "--count", "3", "--out", str(tmp_path / f"t{n}.jsonl")]

        return argv, 1 if run == "generate-partial" else 0
    if run == "build-dataset":
        bad = remake_record_doc()
        bad["annotations"]["coref_clusters"] = 5
        records = [prize_record_doc(), remake_record_doc(), comparison_record_doc(), bad]

        def argv(n):
            hotpot = write_json(tmp_path / f"hotpot{n}.json", records * n)
            out, stats = tmp_path / f"ex{n}.jsonl", tmp_path / f"stats{n}.json"
            return ["build-dataset", "--hotpot", hotpot, "--out", str(out), "--stats", str(stats)]

        return argv, 1
    if run == "probe-partial":
        def fail(self, question, context):
            raise BackendError("no service")

        monkeypatch.setattr(RuleQa, "answer", fail)

        def argv(n):
            traces = write(tmp_path / f"t{n}.jsonl", "".join(json.dumps(t) + "\n" for t in probe_traces() * n))
            return ["probe", "--traces", traces, "--backend", "rule", "--out", str(tmp_path / f"probe{n}.json")]

        return argv, 1
    if run == "build-graph":
        # build-graph takes one context, so the film story is told n times in it.
        def argv(n):
            triples = [(sent + k * len(FILM_SENTENCES), *rest) for k in range(n) for sent, *rest in FILM_TRIPLES]
            nes = [(sent + k * len(FILM_SENTENCES), text) for k in range(n) for sent, text in FILM_NES]
            ctx = write_json(tmp_path / f"ctx{n}.json", make_context_doc(FILM_SENTENCES * n, triples, named_entities=nes))
            return ["build-graph", "--context", ctx, "--out", str(tmp_path / f"graph{n}.json")]

        return argv, 0
    if run in ("filter", "augment"):
        items = [
            {"question": "Who directed the film that starred Tom Cruise ?", "answer": "Tony Scott"},
            {"question": "Who directed Top Gun ?", "answer": "Top Gun"},  # leaks its answer
            {"question": "Who ?", "answer": "x"},  # too short
        ]

        def argv(n):
            traces = write(tmp_path / f"t{n}.jsonl", "".join(json.dumps(i) + "\n" for i in items * n))
            out = str(tmp_path / f"{run}{n}.jsonl")
            if run == "filter":
                return ["filter", "--traces", traces, "--out", out, "--rejects", str(tmp_path / f"rejects{n}.jsonl")]
            return ["augment", "--traces", traces, "--originals", traces, "--out", out]

        return argv, 0
    lines = ["who directed top gun ?", "tom cruise starred in top gun", "which film did the director of it make ?"]

    def argv(n):
        hyp = write(tmp_path / f"hyp{n}.txt", "\n".join(lines * n) + "\n")
        ref = write(tmp_path / f"ref{n}.txt", "\n".join(reversed(lines * n)) + "\n")
        return ["evaluate", "--hyp", hyp, "--ref", ref, "--out", str(tmp_path / f"report{n}.json")]

    return argv, 0


@pytest.mark.parametrize("run", ACYCLIC_RUNS)
def test_run_data_is_acyclic(tmp_path, monkeypatch, run):
    """main runs with the cycle collector paused, so a cycle in per-item
    data would be held for the whole run: the garbage a run leaves in
    cycles must not grow with its input."""
    argv, code = acyclic_runs(tmp_path, monkeypatch, run)
    was = gc.isenabled()
    gc.disable()
    try:
        unreachable_after(argv(1), code)  # loads the modules the run imports
        small, large = (unreachable_after(argv(n), code) for n in (1, 6))
    finally:
        if was:
            gc.enable()
    assert small == large


def young_at_resume(monkeypatch, argv: list[str], code: int) -> list[int]:
    """The tracked objects in the young generation each time one run of main
    turns the cyclic collector back on: what the next young collection walks.
    The caller has the collector enabled."""
    young = []
    real_enable = gc.enable

    def enable():
        young.append(len(gc.get_objects(generation=0)))
        real_enable()

    gc.collect()
    with monkeypatch.context() as patch:
        patch.setattr(gc, "enable", enable)
        assert main(argv) == code
    return young


@pytest.mark.parametrize("run", ACYCLIC_RUNS)
def test_a_run_releases_its_data_before_the_collector_resumes(tmp_path, monkeypatch, run):
    """main frees what a run read, made and wrote while the collector is
    still paused, so the collection that follows the pause does not walk
    it: what the young generation holds when the collector resumes does not
    grow with the input. (Whether a collection starts then does: objects
    freed into the interpreter's free lists do not lower the young
    generation's allocation count.)"""
    argv, code = acyclic_runs(tmp_path, monkeypatch, run)
    was = gc.isenabled()
    gc.enable()
    try:
        young_at_resume(monkeypatch, argv(1), code)  # loads the modules the run imports
        small, large = (young_at_resume(monkeypatch, argv(n), code) for n in (1, 20))
    finally:
        if not was:
            gc.disable()
    assert len(small) == 1
    assert small == large


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


@pytest.mark.parametrize("command, concurrency", [
    pytest.param(command, n, id=command if n == 1 else f"{command}-{n}")
    for n in (1, 8) for command in ("generate", "build-dataset", "probe")
])
def test_one_worker_runs_every_job_on_the_calling_thread(tmp_path, monkeypatch, command, concurrency):
    # Local services run on one worker at any concurrency: no pool starts,
    # and each generate chain, build-dataset record and probe trace runs on
    # the thread that called main.
    threads = []
    for cls, name in ((TemplateBackend, "initial"), (RuleTypeClassifier, "classify"), (RuleQa, "answer")):

        def spy(self, *args, real=getattr(cls, name)):
            threads.append(threading.get_ident())
            return real(self, *args)

        monkeypatch.setattr(cls, name, spy)
    config = write_json(tmp_path / "cfg.json", {"concurrency": concurrency})
    options = {"out": str(tmp_path / "out"), "config": config}
    if command == "generate":
        options["count"] = 2
    if command == "probe":
        options["backend"] = "rule"
    argv, _ = command_argv(tmp_path, command, options)
    assert main(argv) == 0
    assert len(threads) >= 2 and set(threads) == {threading.get_ident()}


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
    timed = sum(stages[name]["seconds"] for name in ("read", "build", "plan", "generate", "write"))
    assert 0 < timed <= wall
    assert stages["initial"] == {"count": 6, "seconds": 0.0}
    assert stages["rewrite"] == {"count": 6, "seconds": 0.0}


def test_generate_bad_jsonl_line_names_path_and_line(tmp_path, capsys):
    text = "\n" + json.dumps(film_context_doc()) + "\n" + '{"context": "x",\n'
    ctx = write(tmp_path / "ctx.jsonl", text)
    assert main(["generate", "--context", ctx, "--out", str(tmp_path / "t.jsonl")]) == 2
    assert f"{ctx}:3: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"context":\n "x"}\n' + json.dumps(film_context_doc()) + "\n",
    '{"context": "x"} ' + json.dumps(film_context_doc()) + "\n",
    "{} {}",
], ids=["spans-lines", "shares-its-line", "no-newline"])
def test_jsonl_whose_first_value_is_not_a_line_of_its_own_fails_at_line_1(tmp_path, capsys, text):
    ctx = write(tmp_path / "ctx.jsonl", text)
    assert main(["generate", "--context", ctx, "--out", str(tmp_path / "t.jsonl")]) == 2
    assert f"error: {ctx}:1: invalid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "build-graph"])
def test_context_error_names_the_context(tmp_path, capsys, command):
    good, bad = film_context_doc(), film_context_doc()
    bad["triples"][0]["object"]["end"] = 99
    error = "triple 0 object: span"
    for name, text, where in [
        ("ctx.jsonl", "\n".join(json.dumps(doc) for doc in (good, good, bad)) + "\n", ":3"),
        ("ctx.json", json.dumps([good, bad]), ": context 1"),
        ("one.json", json.dumps(bad), ""),
    ]:
        ctx = write(tmp_path / name, text)
        assert main([command, "--context", ctx, "--out", str(tmp_path / "out")]) == 2
        assert f"error: {ctx}{where}: {error}" in capsys.readouterr().err


def _bad_context():
    doc = film_context_doc()
    doc["triples"][0]["object"]["end"] = 99
    return doc


def records_reader(kind):
    """A records reader: what it reads, a good record, a record its parser
    rejects, the noun of an array item, and the parser's message."""
    return {
        "context": (
            hopqg.cli._load_context_docs, film_context_doc(), _bad_context(), "context",
            "triple 0 object: span [23,99) outside its sentence",
        ),
        "record": (load_hotpot, prize_record_doc(), {**remake_record_doc(), "question": " "}, "record", "empty question"),
        "trace": (
            lambda path, text: read_traces(path, text, required=("question", "answer", "context", "d")),
            probe_traces()[1], {**probe_traces()[1], "intermediates": []}, "record",
            "'d' must be one more than the 0 intermediates, got 2",
        ),
    }[kind]


@pytest.mark.parametrize("layout", ["one", "array", "jsonl"])
@pytest.mark.parametrize("kind", ["context", "record", "trace"])
def test_a_parser_error_is_prefixed_with_where_its_record_sits(tmp_path, kind, layout):
    read, good, bad, noun, message = records_reader(kind)
    text, where = {
        "one": (json.dumps(bad, indent=2), ""),
        "array": (json.dumps([good, good, bad]), f": {noun} 2"),
        "jsonl": ("\n" + json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", ":4"),
    }[layout]
    path = write(tmp_path / "records", text)
    with pytest.raises(AnnotationError) as info:
        read(path, text)
    assert str(info.value) == f"{path}{where}: {message}"


def test_a_record_that_is_no_object_is_reported_before_any_record_is_parsed(tmp_path, capsys):
    no_answer = {name: value for name, value in remake_record_doc().items() if name != "answer"}
    hotpot = write_json(tmp_path / "hotpot.json", [no_answer, 5])
    assert main(["build-dataset", "--hotpot", hotpot, "--out", str(tmp_path / "ex.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {hotpot}: record 1: record must be an object, got an integer\n"


def test_generate_decodes_each_jsonl_context_once(tmp_path, monkeypatch):
    # Contexts, --hotpot records and --traces records alike.
    files = [
        (hopqg.cli._load_context_docs, [film_context_doc(), film3_context_doc(), film_context_doc()]),
        (load_hotpot, [remake_record_doc(), prize_record_doc()]),
        (read_traces, probe_traces()),
    ]
    decoded = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, s, idx=0):
        decoded.append(s[idx:idx + 12])
        return raw_decode(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    for k, (read, docs) in enumerate(files):
        path = write(tmp_path / f"{k}.jsonl", "\n" + "\n".join(json.dumps(d) for d in docs) + "\n")
        decoded.clear()
        assert len(read(path, Path(path).read_text(encoding="utf-8"))) == len(docs)
        # One decode per line: the first record is not decoded twice.
        assert decoded == [json.dumps(d)[:12] for d in docs]


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


def test_generate_remote_manifest_only_records_no_remote_stage(tmp_path, monkeypatch):
    # Nothing listens there, and a manifest-only run calls no service.
    monkeypatch.setenv("HOPQG_GENERATOR_URL", "http://127.0.0.1:9/generate")
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = tmp_path / "t.jsonl"
    assert main(["generate", "--context", ctx, "--backend", "remote", "--manifest-only", "--out", str(out)]) == 0
    assert not out.exists()
    assert read_manifest(str(out) + ".manifest.json")["stages"] == {}


@pytest.mark.parametrize("url", [
    "http://127.0.0.1:abc/x", "http://127.0.0.1:99999/x", "http://127.0.0.1/a b", "http://user:pw@127.0.0.1:9/x",
])
def test_generate_remote_endpoint_that_can_never_be_posted_to_exits_2(tmp_path, monkeypatch, capsys, url):
    monkeypatch.setenv("HOPQG_GENERATOR_URL", url)
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = tmp_path / "t.jsonl"
    assert main(["generate", "--context", ctx, "--backend", "remote", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: endpoints.generator (or HOPQG_GENERATOR_URL) must " in err
    assert "pw@" not in err
    assert not out.exists()


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


def test_build_dataset_counts_a_malformed_annotation_as_one_record_error(tmp_path):
    bad = remake_record_doc()
    bad["annotations"]["coref_clusters"] = 5
    hotpot = write_json(tmp_path / "hotpot.json", [prize_record_doc(), bad])
    out, stats = tmp_path / "ex.jsonl", tmp_path / "stats.json"
    assert main(["build-dataset", "--hotpot", hotpot, "--out", str(out), "--stats", str(stats)]) == 1
    assert json.loads(stats.read_text())["errors"] == 1
    assert len(read_lines(out)) == 1
    # Annotations that are no object, or have no context, fail only their record.
    for k, annotations in enumerate([5, {"sentences": []}]):
        bad = dict(remake_record_doc(), annotations=annotations)
        hotpot = write_json(tmp_path / f"hotpot{k}.json", [prize_record_doc(), bad])
        assert main(["build-dataset", "--hotpot", hotpot, "--out", str(out), "--stats", str(stats)]) == 1
        assert json.loads(stats.read_text())["errors"] == 1
        assert len(read_lines(out)) == 1


@pytest.mark.parametrize("service, method, reply, skip", [
    (RuleTypeClassifier, "classify", "Other", None),
    (RuleDecomposer, "decompose", None, "decompose-failed"),
    (RuleDecomposer, "decompose", (" ", "Who directed Dial M for Murder?"), "decompose-failed"),
    (RuleDecomposer, "decompose", ("Who directed Dial M for Murder?", "\t"), "decompose-failed"),
    (RuleQa, "answer", "", "qa-failed"),
], ids=["unknown-label", "no-split", "blank-first-split", "blank-second-split", "no-answer"])
def test_build_dataset_counts_what_a_service_could_not_give(tmp_path, monkeypatch, capsys, service, method, reply, skip):
    monkeypatch.setattr(service, method, lambda self, *args: reply)
    hotpot = write_json(tmp_path / "hotpot.json", [remake_record_doc()])
    out, stats_path = tmp_path / "ex.jsonl", tmp_path / "stats.json"
    code = main(["build-dataset", "--hotpot", hotpot, "--out", str(out), "--stats", str(stats_path)])
    stats = json.loads(stats_path.read_text())
    assert (code, stats["examples"], out.read_text()) == (0 if skip else 1, 0, "")
    assert stats["skips"] == {reason: int(reason == skip) for reason in stats["skips"]}
    assert stats["errors"] == (0 if skip else 1)
    if skip is None:
        assert stats["types"] == {"Other": 1}
    warning = "WARNING hopqg.builder: record failed: remake-1: unknown type label 'Other'\n"
    assert capsys.readouterr().err == ("" if skip else warning)


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


@pytest.mark.parametrize(
    "fields,message",
    [
        (None, "record must be an object, got an array"),
        ({"context": None}, "context must be a list"),
        ({"supporting_facts": [["A Perfect Murder", "1"], ["Dial M for Murder", 0]]}, "[title, index] pairs"),
        ({"supporting_facts": [["A Perfect Murder"], ["Dial M for Murder", 0]]}, "[title, index] pairs"),
        ({"answer": ["Alfred Hitchcock"]}, "answer must be a string"),
        ({"supporting_facts": [["A Perfect Murder", 1.7], ["Dial M for Murder", 0]]}, "[title, index] pairs"),
        ({"supporting_facts": [["A Perfect Murder", 1], ["Dial M for Murder", False]]}, "[title, index] pairs"),
        ({"question": MISSING}, "missing field 'question'"),
        ({"question": "  "}, "empty question"),
        ({"supporting_facts": [["A Perfect Murder", 1], ["Nowhere", 0]]}, "unknown paragraph 'Nowhere'"),
        ({"supporting_facts": [["A Perfect Murder", 9], ["Dial M for Murder", 0]]}, "out of range"),
        ({"supporting_facts": [["A Perfect Murder", 0], ["A Perfect Murder", 1]]}, "span 1 paragraphs"),
    ],
)
def test_build_dataset_malformed_record_exits_2(tmp_path, capsys, fields, message):
    # fields=None stands for a record that is not an object at all; a field
    # set to MISSING is left out.
    if fields is None:
        bad = ["not", "an", "object"]
    else:
        bad = {name: value for name, value in {**remake_record_doc(), **fields}.items() if value is not MISSING}
    hotpot = write_json(tmp_path / "hotpot.json", [prize_record_doc(), bad])
    out = tmp_path / "ex.jsonl"
    assert main(["build-dataset", "--hotpot", hotpot, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {hotpot}: record 1: " in err and message in err
    if fields == {"question": MISSING}:
        assert f"error: {hotpot}: record 1: missing field 'question'\n" in err
    assert not out.exists()


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
    # Without --out, evaluate writes its manifest beside --hyp.
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


@pytest.mark.parametrize("line", ["[]", '["a b c", 1]'])
def test_evaluate_bad_reference_lines_name_path_and_line(tmp_path, capsys, line):
    hyp = write(tmp_path / "hyp.txt", "a b c\na b c\n")
    ref = write(tmp_path / "ref.txt", f"a b c\n{line}\n")
    args = ["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "rouge-l", "--out", str(tmp_path / "r.json")]
    assert main(args) == 2
    assert f"{ref}:2: reference lines must be strings or non-empty JSON string arrays" in capsys.readouterr().err


def test_evaluate_pairs_lines_by_number(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    # A blank line opposite a non-blank one would shift every later pair.
    hyp = write(tmp_path / "hyp.txt", "a b c\n\nd e f\ng h i\n")
    ref = write(tmp_path / "ref.txt", "a b c\nd e f\n\ng h i\n")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "bleu1", "--out", out]) == 2
    assert f"{hyp}:2: blank line opposite a non-blank line of {ref}" in capsys.readouterr().err
    ref = write(tmp_path / "ref.txt", "a b c\n \nd e f\ng h i\n")
    hyp = write(tmp_path / "hyp.txt", "a b c\nx y z\nd e f\ng h i\n")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "bleu1", "--out", out]) == 2
    assert f"{ref}:2: blank line opposite a non-blank line of {hyp}" in capsys.readouterr().err
    # A file of blank lines only holds no line.
    blank = write(tmp_path / "blank.txt", "\n \n\n")
    for pair, message in [((blank, blank), "empty corpus"), ((blank, ref), "line counts differ: 0 vs 4"),
                          ((hyp, blank), "line counts differ: 4 vs 0")]:
        assert main(["evaluate", "--hyp", pair[0], "--ref", pair[1], "--metrics", "bleu1", "--out", out]) == 2
        assert capsys.readouterr().err.endswith(message + "\n")
    # Blank lines opposite each other are skipped, and trailing ones are allowed.
    hyp = write(tmp_path / "hyp.txt", "a b c\n\nx y z\n\n\n")
    ref = write(tmp_path / "ref.txt", "a b c\n \nx y z")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "bleu1", "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["items"] == 2 and report["metrics"]["bleu1"] == pytest.approx(1.0)


@pytest.mark.parametrize("metrics", ["", " , ,"])
def test_evaluate_without_metric_names_exits_2(tmp_path, capsys, metrics):
    hyp = write(tmp_path / "hyp.txt", "a b c\n")
    out = tmp_path / "r.json"
    for extra in ([], ["--manifest-only"]):
        assert main(["evaluate", "--hyp", hyp, "--ref", hyp, "--metrics", metrics, "--out", str(out)] + extra) == 2
        assert "no metrics named" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "r.json.manifest.json").exists()


def test_evaluate_with_an_unknown_metric_exits_2_in_both_modes(tmp_path, capsys):
    hyp = write(tmp_path / "hyp.txt", "a b c\na b d\n")
    out = tmp_path / "r.json"
    for extra in ([], ["--manifest-only"]):
        assert main(["evaluate", "--hyp", hyp, "--ref", hyp, "--metrics", "bleu1,bleu9", "--out", str(out)] + extra) == 2
        known = "bleu1, bleu2, bleu3, bleu4, cider, meteor-s, rouge-l"
        assert f"unknown metric 'bleu9' (known: {known})" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "r.json.manifest.json").exists()


def test_evaluate_and_probe_manifests_land_beside_the_first_input(tmp_path, capsys, monkeypatch):
    inputs, cwd = tmp_path / "inputs", tmp_path / "cwd"
    inputs.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    hyp = write(inputs / "hyp.txt", "the cat sat\n")
    ref = write(inputs / "ref.txt", "the cat sat\n")
    assert main(["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "meteor-s"]) == 0
    assert json.loads(capsys.readouterr().out)["meteor_fallbacks"] == 0
    manifest = read_manifest(inputs / "hopqg-evaluate-manifest.json")
    assert manifest["stages"]["meteor-fallback"]["count"] == 0
    traces = write(inputs / "t.jsonl", json.dumps(probe_traces()[0]) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 0
    assert (inputs / "hopqg-probe-manifest.json").is_file()
    assert list(cwd.iterdir()) == []
    # An explicit --manifest wins, and so does <out>.manifest.json.
    chosen = tmp_path / "chosen.json"
    args = ["evaluate", "--hyp", hyp, "--ref", ref, "--metrics", "meteor-s", "--manifest", str(chosen)]
    assert main(args) == 0
    assert read_manifest(chosen)["command"] == "evaluate"
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--traces", traces, "--backend", "rule", "--out", out]) == 0
    assert read_manifest(out + ".manifest.json")["command"] == "probe"


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


# JSON escapes: a lone surrogate, which UTF-8 cannot hold, and the pair
# that decodes to one astral character (U+1F600), which it can.
LONE_SURROGATE, SURROGATE_PAIR = "\\ud800", "\\ud83d\\ude00"


def filter_with(tmp_path, escape):
    lines = [
        json.dumps({"question": "who directed the film that starred the actor ?", "answer": "x"}),
        '{"question": "who directed the film that starred the %s actor ?", "answer": "x"}' % escape,
    ]
    traces = write(tmp_path / "t.jsonl", "\n".join(lines) + "\n")
    out = str(tmp_path / "kept.jsonl")
    return ["filter", "--traces", traces, "--out", out, "--rejects", str(tmp_path / "rejects.jsonl")], out, 2


def generate_with(tmp_path, escape):
    # One character for one: the spans of the context still hold.
    text = json.dumps(film_context_doc()).replace("Cruise", "Cr%sise" % escape)
    ctx = write(tmp_path / "ctx.json", text)
    out = str(tmp_path / "traces.jsonl")
    return ["generate", "--context", ctx, "--d", "2", "--answer", "Tom Cruise", "--out", out], out, 1


def build_dataset_with(tmp_path, escape):
    novel = json.dumps(novel_record_doc()).replace("the novel", "the %s novel" % escape)
    hotpot = write(tmp_path / "hotpot.json", "[%s, %s]" % (json.dumps(remake_record_doc()), novel))
    out = str(tmp_path / "examples.jsonl")
    return ["build-dataset", "--hotpot", hotpot, "--out", out, "--stats", str(tmp_path / "stats.json")], out, 2


@pytest.mark.parametrize("command", [filter_with, generate_with, build_dataset_with])
def test_a_lone_surrogate_in_an_output_exits_2_naming_its_line_and_writes_nothing(tmp_path, capsys, command):
    argv, out, line = command(tmp_path, LONE_SURROGATE)
    inputs = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {out}:{line}: lone surrogate U+D800 cannot be written as UTF-8\n"
    assert sorted(os.listdir(tmp_path)) == inputs

    argv, out, line = command(tmp_path, SURROGATE_PAIR)
    assert main(argv) == 0
    assert "\U0001f600" in read_lines(out)[line - 1]
    assert os.path.exists(out + ".manifest.json")


def test_filter_bad_jsonl_line_names_path_and_line(tmp_path, capsys):
    text = json.dumps({"question": "one two three four five six ?", "answer": "x"}) + '\n{"question": 5,,}\n'
    traces = write(tmp_path / "t.jsonl", text)
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", "--traces", traces, "--out", out]) == 2
    assert f"{traces}:2: invalid JSON" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_filter_bad_record_schema_names_path_and_line(tmp_path, capsys):
    good = {"question": "one two three four five six ?", "answer": "x"}
    traces = write(tmp_path / "t.jsonl", json.dumps(good) + "\n" + json.dumps({"question": 5}) + "\n")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--traces", traces, "--out", str(out)]) == 2
    assert f"{traces}:2: 'question' must be a string, got an integer" in capsys.readouterr().err
    assert not out.exists()


def test_filter_reads_a_missing_answer_as_empty(tmp_path):
    traces = write(tmp_path / "t.jsonl", json.dumps({"question": "one two three four five six ?"}) + "\n")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--traces", traces, "--out", str(out)]) == 0
    assert len(read_lines(out)) == 1


def test_filter_respects_bound_flags(tmp_path):
    items = [{"question": "one two three four", "answer": "z"}]
    traces = write(tmp_path / "t.jsonl", json.dumps(items[0]) + "\n")
    out = str(tmp_path / "kept.jsonl")
    assert main(["filter", "--traces", traces, "--out", out, "--min-words", "2"]) == 0
    assert len(read_lines(out)) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--min-words", "40", "--max-words", "5"], "filter bounds must satisfy 0 <= min <= max, got (40, 5)"),
        (["--min-words", "-3"], "filter bounds must satisfy 0 <= min <= max, got (-3, 30)"),
    ],
    ids=["min-above-max", "negative-min"],
)
def test_filter_bad_bound_flags_exit_2(tmp_path, capsys, flags, message):
    traces = write(tmp_path / "t.jsonl", json.dumps({"question": "one two three four", "answer": "z"}) + "\n")
    out = tmp_path / "kept.jsonl"
    assert main(["filter", "--traces", traces, "--out", str(out)] + flags) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


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


def test_probe_record_without_context_names_path_and_line(tmp_path, capsys):
    first, second = probe_traces()
    del second["context"]
    traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n\n" + json.dumps(second) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 2
    assert f"{traces}:3: record has no 'context'" in capsys.readouterr().err


def test_probe_accepts_any_d_that_int_reads(tmp_path, capsys):
    first, second = probe_traces()
    first["d"], second["d"] = 1.0, "x"
    traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n")
    out = tmp_path / "probe.json"
    assert main(["probe", "--traces", traces, "--backend", "rule", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["per_d"]["1"]["count"] == 1
    traces = write(tmp_path / "bad.jsonl", json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 2
    assert f"{traces}:2: 'd' must be an integer, got a string" in capsys.readouterr().err


@pytest.mark.parametrize("d", [0, -2, 0.0])
def test_probe_rejects_d_below_one(tmp_path, capsys, d):
    first, second = probe_traces()
    second["d"] = d
    traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 2
    assert f"{traces}:2: 'd' must be >= 1, got {d}" in capsys.readouterr().err


@pytest.mark.parametrize("d, kind", [(1.7, "a number"), (True, "a boolean"), ("3", "a string")])
def test_probe_takes_d_only_as_an_integral_number(tmp_path, capsys, d, kind):
    first, second = probe_traces()
    second["d"] = d
    traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 2
    assert f"{traces}:2: 'd' must be an integer, got {kind}" in capsys.readouterr().err


def test_probe_checks_d_against_the_intermediates(tmp_path, capsys):
    # Every trace generate writes has one intermediate question less than d.
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    generated = str(tmp_path / "generated.jsonl")
    assert main(["generate", "--context", ctx, "--d", "2", "--count", "2", "--out", generated]) == 0
    out = tmp_path / "probe.json"
    assert main(["probe", "--traces", generated, "--backend", "rule", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["per_d"]["2"]["count"] == 2
    first, second = probe_traces()
    for intermediates, d, message in [
        (["Who directed Night Fair?"], 1_000_000, "'d' must be one more than the 1 intermediates, got 1000000"),
        ([], 2, "'d' must be one more than the 0 intermediates, got 2"),
        ("Who directed Night Fair?", 2, "'intermediates' must be an array of strings"),
        ([1], 2, "'intermediates' must be an array of strings"),
        (None, 2, "'intermediates' must be an array of strings"),
    ]:
        second.update(intermediates=intermediates, d=d)
        traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n" + json.dumps(second) + "\n")
        assert main(["probe", "--traces", traces, "--backend", "rule"]) == 2
        assert f"{traces}:2: {message}" in capsys.readouterr().err
    # A trace that lists no intermediates may take any d.
    del second["intermediates"]
    second["d"] = 1_000_000
    traces = write(tmp_path / "t.jsonl", json.dumps(first) + "\n" + json.dumps(second) + "\n")
    assert main(["probe", "--traces", traces, "--backend", "rule"]) == 0


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


def test_manifest_config_holds_the_flags_the_run_used(tmp_path):
    traces = write(tmp_path / "t.jsonl", json.dumps({"question": "one two three four", "answer": "z"}) + "\n")
    orig = write_json(tmp_path / "orig.json", [{"question": "orig ?", "answer": "b"}])
    out = str(tmp_path / "out.jsonl")
    runs = [
        (["filter", "--traces", traces, "--min-words", "2", "--max-words", "9"], {"min_words": 2, "max_words": 9}),
        (["augment", "--traces", traces, "--originals", orig, "--ratio", "1.5"], {"oversample_ratio": 1.5}),
    ]
    for args, fields in runs:
        for extra in ([], ["--manifest-only"]):
            assert main(args + ["--out", out] + extra) == 0
            config = read_manifest(out + ".manifest.json")["config"]
            assert {name: config[name] for name in fields} == fields
            os.remove(out + ".manifest.json")


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_augment_non_finite_ratio_exits_2(tmp_path, capsys, ratio):
    traces = write(tmp_path / "gen.jsonl", json.dumps({"question": "gen ?", "answer": "a"}) + "\n")
    orig = write_json(tmp_path / "orig.json", [{"question": "orig ?", "answer": "b"}])
    out = tmp_path / "mixed.jsonl"
    assert main(["augment", "--traces", traces, "--originals", orig, "--ratio", ratio, "--out", str(out)]) == 2
    assert f"error: oversample_ratio must be finite, got {ratio}" in capsys.readouterr().err
    assert not out.exists()


def test_augment_bad_originals_array_names_path_and_line(tmp_path, capsys):
    traces = write(tmp_path / "gen.jsonl", json.dumps({"question": "gen ?", "answer": "a"}) + "\n")
    orig = write(tmp_path / "orig.json", '[\n  {"question": "q ?"},\n  {"question": }\n]\n')
    code = main(["augment", "--traces", traces, "--originals", orig, "--out", str(tmp_path / "m.jsonl")])
    assert code == 2
    assert f"{orig}:3: invalid JSON" in capsys.readouterr().err


def test_augment_non_object_records_name_where_they_are(tmp_path, capsys):
    good = json.dumps({"question": "gen ?", "answer": "a"}) + "\n"
    orig = write_json(tmp_path / "orig.json", [{"question": "q ?", "answer": "b"}])
    out = tmp_path / "m.jsonl"
    traces = write(tmp_path / "gen.jsonl", good + "[1,2]\n")
    assert main(["augment", "--traces", traces, "--originals", orig, "--out", str(out)]) == 2
    assert f"{traces}:2: record must be an object, got an array" in capsys.readouterr().err
    traces = write(tmp_path / "gen2.jsonl", good)
    bad_orig = write(tmp_path / "orig2.json", "[1, 2]\n")
    assert main(["augment", "--traces", traces, "--originals", bad_orig, "--out", str(out)]) == 2
    assert f"{bad_orig}: record 0: record must be an object, got an integer" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- records files


def _records_run(command, tmp_path):
    """The records one command reads from its records file, and its argv
    for a records file and an output path."""
    if command == "generate":
        return [film_context_doc(), film3_context_doc()], lambda f, out: [
            "generate", "--context", f, "--count", "2", "--out", out]
    if command == "build-dataset":
        return [remake_record_doc(), comparison_record_doc(), prize_record_doc()], lambda f, out: [
            "build-dataset", "--hotpot", f, "--out", out]
    items = [
        {"question": "who directed the film that starred tom cruise ?", "answer": "tony scott"},
        {"question": "too short ?", "answer": "x"},
        {"question": "which film did tony scott direct in 1986 ?", "answer": "top gun", "d": 1},
    ]
    if command == "filter":
        return items, lambda f, out: ["filter", "--traces", f, "--out", out]
    traces = write(tmp_path / "gen.jsonl", json.dumps({"question": "gen ?", "answer": "a"}) + "\n")
    return items, lambda f, out: ["augment", "--traces", traces, "--originals", f, "--seed", "3", "--out", out]


@pytest.mark.parametrize("command", ["generate", "build-dataset", "filter", "augment"])
def test_every_records_file_may_hold_one_value_an_array_or_jsonl(tmp_path, command):
    records, argv = _records_run(command, tmp_path)

    def run(name, text):
        path = write(tmp_path / name, text)
        out = str(tmp_path / (name + ".out"))
        assert main(argv(path, out)) == 0
        return Path(out).read_bytes()

    array = run("array.json", json.dumps(records, indent=2))
    assert array
    assert run("lines.jsonl", "".join(json.dumps(r) + "\n" for r in records)) == array
    one = run("one.json", json.dumps(records[0], indent=2))
    assert one and one == run("one-array.json", json.dumps(records[:1]))
    # An empty file holds no records, as [] does.
    assert run("empty.json", "") == run("empty-array.json", "[]")


NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.mark.parametrize("command", ["generate", "build-dataset", "filter", "evaluate"])
def test_lines_may_end_in_crlf_or_a_lone_cr(tmp_path, command):
    """Contexts, records, traces and hypothesis and reference lines read the
    same whether their lines end in \\n, \\r\\n or \\r: the outputs are
    byte-identical."""
    if command == "evaluate":
        files = {
            "hyp": "who directed top gun ?\n\nthe cat sat\n",
            "ref": json.dumps(["who directs top gun", "top gun ?"]) + "\n\nthe cat sat on the mat\n",
        }

        def argv(paths, out):
            return ["evaluate", "--hyp", paths["hyp"], "--ref", paths["ref"], "--out", out]
    else:
        records, records_argv = _records_run(command, tmp_path)
        files = {"records": "".join(json.dumps(r) + "\n" for r in records)}

        def argv(paths, out):
            return records_argv(paths["records"], out)

    outputs = set()
    for style, newline in NEWLINES.items():
        paths = {name: str(tmp_path / f"{style}.{name}") for name in files}
        for name, text in files.items():
            Path(paths[name]).write_bytes(text.replace("\n", newline).encode())
        out = str(tmp_path / f"{style}.out")
        assert main(argv(paths, out)) == 0
        outputs.add(Path(out).read_bytes())
    assert len(outputs) == 1 and outputs != {b""}


@pytest.mark.parametrize(
    "hyp",
    ["a b c\nd e f\n", "a b c\r\nd e f\r\n", "caf\u00e9 \u00fcber\nna\u00efve\n", "\ufeffa b c\nd e f\n"],
    ids=["lf", "crlf", "non-ascii", "bom"],
)
def test_an_input_digest_is_of_the_bytes_on_disk(tmp_path, hyp):
    files = {"hyp": hyp.encode(), "ref": "a b c\nd e f\n".encode()}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    digests = []
    for extra in (["--manifest-only"], ["--out", str(tmp_path / "report.json")]):
        manifest = str(tmp_path / "m.json")
        argv = ["evaluate", "--hyp", str(tmp_path / "hyp"), "--ref", str(tmp_path / "ref"), "--manifest", manifest]
        assert main(argv + extra) == 0
        digests.append(read_manifest(manifest)["inputs"])
    expected = {str(tmp_path / name): hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == [expected, expected]


@pytest.mark.parametrize(
    "command, jsonl", [(command, False) for command in COMMAND_INPUTS] + [("generate", True)],
    ids=[*COMMAND_INPUTS, "generate-jsonl"],
)
def test_a_leading_byte_order_mark_changes_no_result(tmp_path, capsys, command, jsonl):
    """Each input file and the config, written with a leading byte-order
    mark, give the exit code, stdout and outputs of the plain file."""
    options = every_output(tmp_path, command)
    argv, inputs = command_argv(tmp_path, command, options)
    if jsonl:
        write(tmp_path / "ctx.json", "".join(json.dumps(doc) + "\n" for doc in (film_context_doc(), film3_context_doc())))
    config = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    argv += ["--config", config]
    outputs = [Path(value) for name, value in options.items() if name != "backend"]

    def run():
        for path in outputs:
            path.unlink(missing_ok=True)
        code = main(argv)
        return code, capsys.readouterr().out, [path.read_bytes() for path in outputs]

    plain = run()
    assert plain[0] == 0 and all(plain[2])
    for path in [*inputs.values(), config]:
        data = Path(path).read_bytes()
        Path(path).write_bytes(b"\xef\xbb\xbf" + data)
        assert run() == plain, path
        Path(path).write_bytes(data)


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


def test_cli_category_override_outside_the_categories_exits_2(tmp_path, capsys):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    args = ["generate", "--context", ctx, "--out", str(tmp_path / "t.jsonl"), "--config"]
    cfg = write_json(tmp_path / "cfg.json", {"category_overrides": ["Tom Cruise"]})
    assert main(args + [cfg]) == 2
    assert "error: category_overrides must be a JSON object, got ['Tom Cruise']" in capsys.readouterr().err
    cfg = write_json(tmp_path / "cfg.json", {"category_overrides": {"Tom Cruise": "actor"}})
    assert main(args + [cfg]) == 2
    assert "error: category_overrides['Tom Cruise'] must be one of person, location, other" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


def test_generate_keys_the_overrides_once_per_run(tmp_path, monkeypatch):
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film_context_doc()])
    overrides = {"  tom   CRUISE ": "location", "Top Gun": "other"}
    cfg = write_json(tmp_path / "cfg.json", {"category_overrides": overrides})
    keyed = []
    norm_key = hopqg.template.norm_key

    def counted(text):
        keyed.append(text)
        return norm_key(text)

    monkeypatch.setattr(hopqg.template, "norm_key", counted)
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--d", "2", "--count", "3", "--answer", "Tom Cruise", "--config", cfg]
    assert main(args + ["--out", out]) == 0
    questions = [json.loads(line)["question"] for line in read_lines(out)]
    assert len(questions) == 6 and all(q.startswith("Which place ") for q in questions)
    # Each override is keyed once per run, not once per (context, seed) job.
    assert sorted(t for t in keyed if t in overrides) == sorted(overrides)
    # The manifest shows the overrides as the config wrote them.
    assert read_manifest(out + ".manifest.json")["config"]["category_overrides"] == overrides


def test_cli_endpoint_that_is_no_http_url_exits_2(tmp_path, capsys, monkeypatch):
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = tmp_path / "t.jsonl"
    cfg = write_json(tmp_path / "cfg.json", {"endpoints": {"generator": 5}})
    for backend in ("remote", "template"):
        args = ["generate", "--context", ctx, "--backend", backend, "--out", str(out), "--config", cfg]
        assert main(args) == 2
        assert "error: endpoints.generator (or HOPQG_GENERATOR_URL) must be an http(s) URL with a host, got 5" in capsys.readouterr().err
    monkeypatch.setenv("HOPQG_QA_URL", "ftp://x")
    hotpot = write_json(tmp_path / "hotpot.json", [remake_record_doc()])
    assert main(["build-dataset", "--hotpot", hotpot, "--backends", "remote", "--out", str(out)]) == 2
    assert "error: endpoints.qa (or HOPQG_QA_URL) must be an http(s) URL with a host, got 'ftp://x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({"timeout": 0}, "timeout must be positive, got 0"),
    ({"max_tokens": 0}, "max_tokens must be >= 1, got 0"),
    ({"endpoints": []}, "endpoints must be a JSON object"),
], ids=["timeout", "max-tokens", "endpoints"])
def test_cli_config_value_out_of_range_exits_2(tmp_path, capsys, doc, message):
    cfg = write_json(tmp_path / "cfg.json", doc)
    traces = write(tmp_path / "t.jsonl", json.dumps({"question": "q ?", "answer": "z"}) + "\n")
    out = tmp_path / "k.jsonl"
    assert main(["filter", "--traces", traces, "--out", str(out), "--config", cfg]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"concurrency": "8"})
    traces = write(tmp_path / "t.jsonl", json.dumps({"question": "q ?", "answer": "z"}) + "\n")
    assert main(["filter", "--traces", traces, "--out", str(tmp_path / "k.jsonl"), "--config", cfg]) == 2
    assert "error: concurrency must be an integer, got '8'" in capsys.readouterr().err


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
    assert f"{cfg}:2: invalid JSON" in capsys.readouterr().err
    cats = write(tmp_path / "cats.json", '{\n  "Top Gun": }\n')
    cfg = write_json(tmp_path / "cfg2.json", {"category_overrides_file": cats})
    assert main(args + [cfg]) == 2
    assert f"{cats}:2: invalid JSON" in capsys.readouterr().err


# ------------------------------------------------------------------- warnings


UNFIT = "component has 5 nodes; difficulty 9 needs 10 (max attainable d = 4)"
NO_CONTEXT = "annotated context must be an object with a 'context' field"
# A run of each command that warns and exits 1, with the lines it warns:
# the 5-node film graph holds no 9-hop chain, so every generate job fails,
# and a build-dataset record has annotations with no context.
WARNING_RUNS = {
    "generate": (
        ["generate", "--context", "ctx.json", "--d", "9", "--count", "2", "--out", "out.jsonl"],
        "".join(f"WARNING hopqg.cli: context 0 seed {seed} failed: {UNFIT}\n" for seed in (0, 1)),
    ),
    "build-dataset": (
        ["build-dataset", "--hotpot", "hotpot.json", "--out", "out.jsonl", "--stats", "stats.json"],
        f"WARNING hopqg.builder: record failed: remake-1: {NO_CONTEXT}\n",
    ),
}
WARNING_INPUTS = ("ctx.json", "hotpot.json")


def warning_run(where, command) -> list[str]:
    """argv of command's warning run, with its inputs written to where."""
    write_json(where / "ctx.json", film_context_doc())
    write_json(where / "hotpot.json", [prize_record_doc(), dict(remake_record_doc(), annotations=5)])
    return WARNING_RUNS[command][0]


def written_files(where, inputs) -> dict:
    """The files in where but the inputs named: bytes, or a manifest with
    its seconds masked."""
    written = {}
    for path in sorted(where.iterdir()):
        if path.name.endswith("manifest.json"):
            manifest = read_manifest(path)
            for stage in manifest["stages"].values():
                stage["seconds"] = 0.0
            written[path.name] = manifest
        elif path.name not in inputs:
            written[path.name] = path.read_bytes()
    return written


class BrokenPipe:
    def write(self, text):
        raise BrokenPipeError("stderr is a pipe no one reads")

    def flush(self):
        pass


def closed_file():
    file = io.StringIO()
    file.close()
    return file


@pytest.mark.parametrize("stderr", [BrokenPipe, lambda: None, closed_file], ids=["broken-pipe", "none", "closed"])
@pytest.mark.parametrize("command", list(WARNING_RUNS))
def test_a_stderr_that_cannot_be_written_loses_the_warnings_not_the_run(tmp_path, monkeypatch, capsys, command, stderr):
    runs = {}
    for name in ("open", "broken"):
        where = tmp_path / name
        where.mkdir()
        monkeypatch.chdir(where)
        argv = warning_run(where, command)
        with monkeypatch.context() as patch:
            if name == "broken":
                patch.setattr(sys, "stderr", stderr())
            assert main(argv) == 1
        runs[name] = written_files(where, WARNING_INPUTS)
    assert capsys.readouterr().err == WARNING_RUNS[command][1]  # the open run's
    assert runs["broken"] == runs["open"] and "out.jsonl" in runs["open"]


@pytest.mark.parametrize("command", list(WARNING_RUNS))
def test_a_launch_with_stderr_closed_writes_what_an_open_one_does(tmp_path, monkeypatch, command):
    closed, opened = tmp_path / "closed", tmp_path / "open"
    for where in (closed, opened):
        where.mkdir()
    # The shell closes the interpreter's stderr, so sys.stderr is None.
    launch = ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "hopqg.cli", *warning_run(closed, command)]
    done = subprocess.run(launch, cwd=closed, env=checkout_env(), stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (1, b"")
    monkeypatch.chdir(opened)
    assert main(warning_run(opened, command)) == 1
    assert written_files(closed, WARNING_INPUTS) == written_files(opened, WARNING_INPUTS)


MISSING_INPUT_RUN = ["generate", "--context", "missing.json", "--out", "out.jsonl"]


@pytest.mark.parametrize("stderr", [BrokenPipe, lambda: None, closed_file], ids=["broken-pipe", "none", "closed"])
def test_an_error_line_that_cannot_be_written_is_lost_not_printed(tmp_path, monkeypatch, capsys, stderr):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stderr", stderr())
    assert main(MISSING_INPUT_RUN) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_launch_with_stderr_closed_exits_2_with_stdout_empty(tmp_path):
    launch = ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "hopqg.cli", *MISSING_INPUT_RUN]
    done = subprocess.run(launch, cwd=tmp_path, env=checkout_env(), stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout) == (2, b"")
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ remote services


class ServiceHandler(BaseHTTPRequestHandler):
    """Keep-alive HTTP/1.1 stand-in for all four services. Each reply is a
    function of the request alone and goes out in one write."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.connections.add(self.client_address)
        tag = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:8]
        reply = {
            "/generate": {"question": f"Which one is {tag}?"},
            "/classify": {"label": "Bridge"},
            "/decompose": {"subq1": "Who made it?", "subq2": "Where is [ANSWER] based?"},
            "/qa": {"answer": "Victor Reyes"},
        }[self.path]
        body = json.dumps(reply).encode()
        head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        self.wfile.write(head.encode() + body)

    def log_message(self, *args):
        pass


@pytest.fixture
def service():
    with serve_http(ServiceHandler) as (server, base):
        server.connections = set()
        yield server, base


def remote_config(tmp_path, base, concurrency):
    endpoints = {role: f"{base}/{path}" for role, path in (
        ("generator", "generate"), ("classifier", "classify"), ("decomposer", "decompose"), ("qa", "qa"),
    )}
    return write_json(tmp_path / f"cfg{concurrency}.json", {
        "concurrency": concurrency, "retries": 0, "endpoints": endpoints,
    })


def test_generate_shared_state_under_thread_stress(tmp_path, monkeypatch, service):
    # Eight workers share each context's graph while they wait on a remote
    # generator, with the interpreter switching threads every microsecond.
    _, base = service
    built = count_builds(monkeypatch)
    docs = [film_context_doc(), film3_context_doc()] * 3
    ctx = write_json(tmp_path / "ctx.json", docs)
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--backend", "remote", "--count", "8",
            "--config", remote_config(tmp_path, base, 8), "--out", out]
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


def test_generate_builds_a_shared_graph_once_when_two_jobs_race(tmp_path, monkeypatch, service):
    # The first build of the context waits, for up to a second, for a second
    # build to begin. Both seed jobs wait on the remote generator at once, so
    # the second job asks for the graph while the first is building it; only
    # the lock of _SharedGraph keeps it from building a graph of its own.
    _, base = service
    built, second = [], threading.Event()
    real_build = hopqg.graph.build_context_graph

    def racing_build(ctx):
        built.append(ctx)
        if len(built) == 1:
            second.wait(1)
        else:
            second.set()
        return real_build(ctx)

    monkeypatch.setattr(hopqg.graph, "build_context_graph", racing_build)
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    args = ["generate", "--context", ctx, "--backend", "remote", "--d", "1", "--count", "2",
            "--config", remote_config(tmp_path, base, 2), "--out", out]
    assert main(args) == 0
    assert len(built) == 1
    assert len((tmp_path / "traces.jsonl").read_text().splitlines()) == 2


def test_generate_seeds_of_one_context_run_in_parallel(tmp_path):
    class BarrierHandler(ServiceHandler):
        # Each generator call waits for a second one: at d 1 each seed job
        # makes one call, so the two seed jobs of the context must be in
        # flight at once, or the barrier breaks.
        barrier = threading.Barrier(2, timeout=5)

        def do_POST(self):
            self.barrier.wait()
            super().do_POST()

    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    out = str(tmp_path / "traces.jsonl")
    with serve_http(BarrierHandler) as (server, base):
        server.connections = set()
        args = ["generate", "--context", ctx, "--backend", "remote", "--d", "1", "--count", "2",
                "--config", remote_config(tmp_path, base, 2), "--out", out]
        assert main(args) == 0
    assert len((tmp_path / "traces.jsonl").read_text().splitlines()) == 2


def test_a_remote_run_of_one_job_starts_no_pool(tmp_path, monkeypatch, service):
    _, base = service
    pools = []
    pool = concurrent.futures.ThreadPoolExecutor

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    for count in (1, 2):
        out = tmp_path / f"t{count}.jsonl"
        args = ["generate", "--context", ctx, "--backend", "remote", "--d", "1", "--count", str(count),
                "--config", remote_config(tmp_path, base, 2), "--out", str(out)]
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == count
    assert pools == [{"max_workers": 2}]  # the run of two jobs only


def remote_stages(manifest, role):
    return {
        counter: manifest["stages"][f"remote.{role}.{counter}"]["count"]
        for counter in ("requests", "retries", "failures", "connections")
    }


def test_generate_remote_output_and_counts_at_two_workers(tmp_path, service):
    server, base = service
    ctx = write_json(tmp_path / "ctx.json", [film_context_doc(), film3_context_doc()])
    written = {}
    for concurrency in (1, 2):
        out = str(tmp_path / f"t{concurrency}.jsonl")
        args = ["generate", "--context", ctx, "--backend", "remote", "--d", "2", "--count", "4",
                "--config", remote_config(tmp_path, base, concurrency), "--out", out]
        assert main(args) == 0
        written[concurrency] = Path(out).read_bytes()
        manifest = read_manifest(out + ".manifest.json")
        stages = manifest["stages"]
        steps = stages["initial"]["count"] + stages["rewrite"]["count"]
        assert steps == 16
        counts = remote_stages(manifest, "generator")
        assert counts["requests"] == steps
        assert counts["retries"] == counts["failures"] == 0
        assert 1 <= counts["connections"] <= concurrency
        assert all(stage["seconds"] == 0.0 for name, stage in stages.items() if name.startswith("remote."))
    assert written[1] == written[2] and b"Which one is" in written[1]
    # One connection at one worker, at most two at two.
    assert 2 <= len(server.connections) <= 3
    template_out = str(tmp_path / "template.jsonl")
    assert main(["generate", "--context", ctx, "--out", template_out]) == 0
    stages = read_manifest(template_out + ".manifest.json")["stages"]
    assert not [name for name in stages if name.startswith("remote.")]


def test_build_dataset_and_probe_count_each_remote_role(tmp_path, service):
    server, base = service
    cfg = remote_config(tmp_path, base, 2)
    hotpot = write_json(tmp_path / "hotpot.json", [remake_record_doc(), prize_record_doc()])
    out = str(tmp_path / "examples.jsonl")
    code = main(["build-dataset", "--hotpot", hotpot, "--backends", "remote", "--config", cfg, "--out", out])
    assert code in (0, 1)
    manifest = read_manifest(out + ".manifest.json")
    for role in ("classifier", "decomposer", "qa"):
        counts = remote_stages(manifest, role)
        assert counts["requests"] >= 1 and counts["failures"] == 0
        assert 1 <= counts["connections"] <= 2
    assert not [name for name in manifest["stages"] if name.startswith("remote.generator.")]

    traces = write(tmp_path / "t.jsonl", "\n".join(json.dumps(t) for t in probe_traces()) + "\n")
    probe_out = str(tmp_path / "probe.json")
    assert main(["probe", "--traces", traces, "--config", cfg, "--out", probe_out]) == 0
    manifest = read_manifest(probe_out + ".manifest.json")
    counts = remote_stages(manifest, "qa")
    assert counts["requests"] == 2 and counts["retries"] == counts["failures"] == 0
    assert 1 <= counts["connections"] <= 2
    rule_out = str(tmp_path / "rule.json")
    assert main(["probe", "--traces", traces, "--backend", "rule", "--out", rule_out]) == 0
    stages = read_manifest(rule_out + ".manifest.json")["stages"]
    assert not [name for name in stages if name.startswith("remote.")]


# -------------------------------------------------------------- dependencies


def checkout_env(**variables) -> dict:
    """The environment, with variables, of a new interpreter that imports
    hopqg from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopqg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def test_cli_import_pulls_in_no_third_party_modules():
    code = (
        "import sys, hopqg.cli; "
        "print(sorted(m for m in ('numpy', 'numba', 'requests', 'urllib3') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def run_commands_argv(tmp_path):
    """A template generate and an evaluate, each with the output it writes."""
    ctx = write_json(tmp_path / "ctx.json", film_context_doc())
    hyp = write(tmp_path / "hyp.txt", "who directed top gun ?\nthe cat sat\n")
    ref = write(tmp_path / "ref.txt", json.dumps(["who directs top gun", "top gun ?"]) + "\nthe cat sat on the mat\n")
    traces, report = str(tmp_path / "traces.jsonl"), str(tmp_path / "report.json")
    return [
        (["generate", "--context", ctx, "--d", "2", "--count", "2", "--out", traces], traces),
        (["evaluate", "--hyp", hyp, "--ref", ref, "--out", report], report),
    ]


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    hopqg.cli.build_parser.cache_clear()
    runs = []
    for _ in range(2):
        for argv, out in run_commands_argv(tmp_path):
            assert main(argv) == 0
            manifest = read_manifest(out + ".manifest.json")
            for stage in manifest["stages"].values():
                stage["seconds"] = 0.0
            runs.append((Path(out).read_bytes(), manifest))
    assert len(parsers) == 4 and all(parser is parsers[0] for parser in parsers)
    assert runs[:2] == runs[2:]


def fresh_python(lines: list[str]) -> list[str]:
    """The output lines of a new interpreter that imports hopqg from this
    checkout and runs lines."""
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], env=checkout_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_template_and_metric_runs_load_no_http_client(tmp_path):
    modules = ("hopqg.remote", "http.client", "urllib.request", "ssl", "email.parser")
    lines = ["import sys", "from hopqg.cli import main"]
    for argv, _ in run_commands_argv(tmp_path):
        lines += [f"assert main({argv!r}) == 0", f"print(sorted(m for m in {modules!r} if m in sys.modules))"]
    assert fresh_python(lines) == ["[]", "[]"]


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_no_launch_loads_dataclasses_or_inspect(tmp_path, command):
    """Records are named tuples and plain classes, so no launch, real or
    --manifest-only, at concurrency 1 or the default, pays for importing
    dataclasses and the inspect module it pulls in; nor, as its services
    are local, for the thread pool of concurrent.futures; nor for logging,
    as a warning is a line written to stderr. A module the interpreter's
    site set-up loaded before the launch is not counted."""
    options = every_output(tmp_path, command)
    if command == "generate":
        options["count"] = 2
    modules = ("dataclasses", "inspect", "concurrent.futures", "logging")
    lines = ["import sys", "before = set(sys.modules)", "from hopqg.cli import main"]
    for config in (write_json(tmp_path / "cfg.json", {"concurrency": 1}), None):
        argv, _ = command_argv(tmp_path, command, {**options, "config": config})
        for extra in (["--manifest-only"], []):
            lines += [
                f"assert main({argv + extra!r}) == 0",
                f"print('loaded', sorted(m for m in {modules!r} if m in sys.modules and m not in before))",
            ]
    # probe prints its table too
    assert [line for line in fresh_python(lines) if line.startswith("loaded ")] == ["loaded []"] * 4


# The package modules a command must leave unloaded: evaluate runs no
# generation step, and a template generate neither scores nor builds
# training data.
NOT_RUN = {
    "generate": ("hopqg.metrics", "hopqg.evaluate", "hopqg.dataset_builder", "hopqg.hotpot"),
    "evaluate": (
        "hopqg.graph", "hopqg.planner", "hopqg.pipeline", "hopqg.template",
        "hopqg.geninput", "hopqg.dataset_builder", "hopqg.hotpot",
    ),
    "build-dataset": ("hopqg.metrics", "hopqg.evaluate"),
}


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    # --manifest-only loads what a real run loads, so that timing its
    # launch times the launch of the real command. At concurrency 1 the
    # jobs (two seeds, records or traces) run with no thread pool, so
    # concurrent.futures stays unloaded.
    options = every_output(tmp_path, command)
    options["config"] = write_json(tmp_path / "cfg.json", {"concurrency": 1})
    if command == "generate":
        options["count"] = 2
    argv, _ = command_argv(tmp_path, command, options)
    loaded = []
    for extra in (["--manifest-only"], []):
        lines = [
            "import sys",
            "from hopqg.cli import main",
            f"assert main({argv + extra!r}) == 0",
            f"print(sorted(m for m in {NOT_RUN.get(command, ())!r} if m in sys.modules))",
            "print('concurrent.futures' in sys.modules)",
            "print(sorted(m for m in sys.modules if m.startswith('hopqg.')))",
        ]
        *_, not_run, pool, modules = fresh_python(lines)  # probe prints its table first
        assert not_run == "[]" and pool == "False"
        loaded.append(modules)
    assert loaded[0] == loaded[1]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """generate, build-dataset and evaluate launched under two
    PYTHONHASHSEED values give the same exit codes, stdout, output bytes
    and manifests (seconds aside)."""
    inputs = {
        "ctx.jsonl": "".join(json.dumps(doc) + "\n" for doc in (film_context_doc(), film3_context_doc())),
        "hotpot.json": json.dumps([remake_record_doc(), comparison_record_doc(), prize_record_doc()]),
        "hyp.txt": "who directed top gun ?\nthe cat sat\n",
        "ref.txt": json.dumps(["who directs top gun", "top gun ?"]) + "\nthe cat sat on the mat\n",
    }
    commands = [
        ["generate", "--context", "ctx.jsonl", "--d", "2", "--count", "2", "--out", "traces.jsonl"],
        ["build-dataset", "--hotpot", "hotpot.json", "--out", "examples.jsonl", "--stats", "stats.json"],
        ["evaluate", "--hyp", "hyp.txt", "--ref", "ref.txt", "--table"],
    ]
    runs = []
    for seed in ("0", "1"):
        where = tmp_path / seed
        where.mkdir()
        for name, text in inputs.items():
            write(where / name, text)
        env = checkout_env(PYTHONHASHSEED=seed)
        seen = []
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "hopqg.cli"] + argv, cwd=where, env=env, capture_output=True)
            seen.append((done.returncode, done.stdout))
        written = written_files(where, inputs)
        runs.append((seen, written))
    assert [code for code, _ in runs[0][0]] == [0, 0, 0] and len(runs[0][1]) == 6
    assert runs[0] == runs[1]


def test_bare_package_root_loads_no_submodule():
    lines = ["import sys, hopqg", "print(sorted(m for m in sys.modules if m.startswith('hopqg.')))"]
    assert fresh_python(lines) == ["[]"]


def test_every_module_imports_on_its_own():
    # Each module first in a clean package, so that no import order of
    # another module can hide an import cycle.
    names = sorted(info.name for info in pkgutil.iter_modules(hopqg.__path__, "hopqg."))
    lines = [
        "import importlib, sys",
        f"for name in {names!r}:",
        "    for loaded in [m for m in sys.modules if m == 'hopqg' or m.startswith('hopqg.')]:",
        "        del sys.modules[loaded]",
        "    importlib.import_module(name)",
        "    print(name)",
    ]
    assert "hopqg.cli" in names and fresh_python(lines) == names
