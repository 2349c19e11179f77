"""Seeded mutation fuzz of every command's inputs, run in-process.

Each case takes the fixture documents a command reads (annotated contexts,
two-hop QA records, generated traces, references, a config), changes one
or two values somewhere inside them (deletes a key or an item, or sets a
value to null, a boolean, a number, NaN included, a string, an array or an
object), and runs the command on them under tmp_path. Whatever the input,
a command must exit 0, 1 or 2 and raise nothing. A byte that is not UTF-8
in any input file or in the config must exit 2. A leading byte-order mark
on an input file or the config must change nothing, and an output path
given as '' must exit 2 and write nothing.
"""

import copy
import json
import random
from functools import reduce
from operator import getitem

from hopqg.cli import main
from hopqg.context import AnnotatedContext
from hopqg.template import TemplateBackend
from util import (
    comparison_record_doc,
    film3_context_doc,
    film_context_doc,
    generate_for_context,
    novel_record_doc,
    prize_record_doc,
    remake_context_doc,
    remake_record_doc,
    star_context_doc,
)

CASES = 350
VALUES = (
    None, True, False, 0, -1, 3, 2.5, float("nan"), 1e300, "", "x", "Tom Cruise",
    [], [0, "x"], {}, {"x": 1},
)
DELETE = object()
CONTEXTS = (film_context_doc(), film3_context_doc(), star_context_doc(), remake_context_doc())
RECORDS = (remake_record_doc(), prize_record_doc(), novel_record_doc(), comparison_record_doc())
CONFIG = {"concurrency": 1, "min_words": 4, "max_words": 30, "oversample_ratio": 2.0, "category_overrides": {}}
HYPS = ["who directed top gun ?", "who starred in top gun ?"]
REFS = [["Who directed Top Gun?"], ["Who starred in Top Gun?", "Top Gun starred whom?"]]


def _traces() -> list[dict]:
    backend = TemplateBackend()
    return [
        generate_for_context(AnnotatedContext.from_json(doc), d, seed, backend).to_json()
        for doc, d, seed in ((CONTEXTS[0], 2, 0), (CONTEXTS[1], 3, 1), (CONTEXTS[2], 1, 2))
    ]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


def mutate(doc, rng: random.Random):
    """A copy of doc with one or two values deleted or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_paths(doc)))
        value = rng.choice(VALUES + (DELETE,))
        if not path:
            doc = {} if value is DELETE else copy.deepcopy(value)
            continue
        parent = reduce(getitem, path[:-1], doc)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _jsonl(values) -> str:
    """A list as JSONL, one value per line; any other value as one document."""
    if isinstance(values, list):
        return "".join(json.dumps(value) + "\n" for value in values)
    return json.dumps(values)


def _case(rng: random.Random, command: str, traces: list[dict], tmp, mutated: bool = True) -> list[str]:
    """The argv of one fuzz case of command, its input files written to tmp;
    unless mutated, every input is a fixture document as it is."""

    def write(name, text):
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    # A mutated case changes one input: the config, or the command's own.
    mutate_config = mutated and rng.random() < 0.25

    def maybe(doc):
        return doc if mutate_config or not mutated else mutate(doc, rng)

    config = mutate(CONFIG, rng) if mutate_config else CONFIG
    out = str(tmp / "out.jsonl")
    if command == "build-graph":
        argv = [command, "--context", write("ctx.json", json.dumps(maybe(rng.choice(CONTEXTS)))), "--out", out]
    elif command == "generate":
        contexts = maybe(rng.sample(CONTEXTS, 2))
        argv = [command, "--context", write("ctx.jsonl", _jsonl(contexts)), "--out", out]
        argv += ["--d", str(rng.randint(1, 3)), "--seed", str(rng.randrange(5)), "--count", "2"]
        if rng.random() < 0.5:
            argv += ["--answer", rng.choice(["Tom Cruise", "Cruise", "top gun", "zebra"])]
    elif command == "build-dataset":
        records = maybe(rng.sample(RECORDS, 2))
        argv = [command, "--hotpot", write("records.jsonl", _jsonl(records)), "--out", out]
        argv += ["--stats", str(tmp / "stats.json")]
    elif command == "evaluate":
        write("hyp.txt", "".join(h + "\n" for h in HYPS))
        argv = [command, "--hyp", str(tmp / "hyp.txt"), "--ref", write("ref.txt", _jsonl(maybe(REFS)))]
        argv += ["--out", str(tmp / "report.json"), "--metrics", "bleu4,rouge-l,meteor-s,cider"]
    elif command == "filter":
        argv = [command, "--traces", write("traces.jsonl", _jsonl(maybe(traces))), "--out", out]
        argv += ["--rejects", str(tmp / "rejects.jsonl")]
    elif command == "probe":
        argv = [command, "--traces", write("traces.jsonl", _jsonl(maybe(traces))), "--backend", "rule"]
        argv += ["--out", str(tmp / "probe.json")]
    else:
        generated, originals = traces, [{"question": t["question"], "answer": t["answer"]} for t in traces]
        if rng.random() < 0.5:
            generated = maybe(generated)
        else:
            originals = maybe(originals)
        argv = [command, "--traces", write("traces.jsonl", _jsonl(generated))]
        argv += ["--originals", write("originals.jsonl", _jsonl(originals)), "--out", out]
        argv += ["--seed", str(rng.randrange(5))]
    return argv + ["--config", write("config.json", json.dumps(config))]


COMMANDS = ("build-graph", "generate", "build-dataset", "evaluate", "filter", "probe", "augment")


def test_every_command_exits_cleanly_on_mutated_inputs(tmp_path, capsys):
    traces = _traces()
    rng = random.Random(2024)
    codes: dict[str, set[int]] = {command: set() for command in COMMANDS}
    for k in range(CASES):
        command = COMMANDS[k % len(COMMANDS)]
        tmp = tmp_path / str(k)
        tmp.mkdir()
        argv = _case(rng, command, traces, tmp)
        inputs = {p.name: p.read_text(encoding="utf-8") for p in sorted(tmp.iterdir())}
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"case {k}: {argv} raised on {inputs}") from exc
        assert code in (0, 1, 2), (k, argv, code, inputs)
        codes[command].add(code)
    capsys.readouterr()
    # The mutations reach past the first check: every command both succeeds
    # and rejects an input.
    for command, seen in codes.items():
        assert {0, 2} <= seen, (command, seen)


# Bytes that make UTF-8 text invalid wherever they are inserted: 0xc0, 0xfe
# and 0xff occur in no UTF-8 text, and a continuation byte (0x80) is one
# more than the lead bytes take.
NOT_UTF8 = (b"\x80", b"\xc0", b"\xfe", b"\xff")


def test_a_byte_that_is_not_utf8_in_any_input_exits_2(tmp_path, capsys):
    traces = _traces()
    rng = random.Random(2025)
    cases = 0
    for command in COMMANDS:
        tmp = tmp_path / command
        tmp.mkdir()
        argv = _case(rng, command, traces, tmp, mutated=False)
        files = sorted(tmp.iterdir())  # the command's inputs and the config
        assert main(argv) in (0, 1), argv
        for path in files:
            data = path.read_bytes()
            at = rng.randrange(len(data) + 1)
            path.write_bytes(data[:at] + rng.choice(NOT_UTF8) + data[at:])
            capsys.readouterr()
            assert main(argv) == 2, (argv, path.name)
            assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text: ")
            path.write_bytes(data)
            cases += 1
    assert cases == len(COMMANDS) + 9  # a config each, and nine input files


BOM = b"\xef\xbb\xbf"
BOM_CASES = 70


def _outputs(tmp, inputs: set) -> dict:
    """The bytes of each file of tmp a run wrote, its manifest aside: the
    manifest digests the inputs, so it differs when an input does."""
    return {p.name: p.read_bytes() for p in tmp.iterdir() if p not in inputs and not p.name.endswith("manifest.json")}


def test_an_input_with_a_byte_order_mark_exits_as_its_plain_twin(tmp_path, capsys):
    """A mutated case's input file or config, written with a leading
    byte-order mark, gives the exit code, stdout and outputs of the plain
    file."""
    traces = _traces()
    rng = random.Random(2026)
    for k in range(BOM_CASES):
        command = COMMANDS[k % len(COMMANDS)]
        tmp = tmp_path / str(k)
        tmp.mkdir()
        argv = _case(rng, command, traces, tmp)
        inputs = set(tmp.iterdir())
        capsys.readouterr()
        plain = main(argv), capsys.readouterr().out, _outputs(tmp, inputs)
        for written in set(tmp.iterdir()) - inputs:
            written.unlink()
        path = rng.choice(sorted(inputs))
        path.write_bytes(BOM + path.read_bytes())
        assert (main(argv), capsys.readouterr().out, _outputs(tmp, inputs)) == plain, (k, argv, path.name)


EMPTY_CASES = 35
WRITTEN = ("--out", "--stats", "--rejects", "--manifest")


def test_an_empty_output_path_exits_2_and_writes_nothing(tmp_path, capsys):
    """An output or manifest path given as '' in a mutated case exits 2 and
    writes nothing; the error names the option unless the config, read
    first, is what failed."""
    traces = _traces()
    rng = random.Random(2027)
    for k in range(EMPTY_CASES):
        command = COMMANDS[k % len(COMMANDS)]
        tmp = tmp_path / str(k)
        tmp.mkdir()
        argv = _case(rng, command, traces, tmp) + ["--manifest", str(tmp / "m.json")]
        at = rng.choice([n for n, arg in enumerate(argv) if arg in WRITTEN])
        argv[at + 1] = ""
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        assert main(argv) == 2, (k, argv)
        err = capsys.readouterr().err
        if (tmp / "config.json").read_text(encoding="utf-8") == json.dumps(CONFIG):
            assert err == f"error: {argv[at]} names no file: the path is empty\n", (k, argv)
        assert sorted(tmp.iterdir()) == before
