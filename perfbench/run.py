"""Benchmark of the hopqg CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gen-large --seed 1 --seconds 20 --trace 0

Workloads: gen-large, gen-remote, evaluate, build-dataset (see README.md).
The inputs are generated from --seed into a scratch directory inside the
checkout, which is removed at the end. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are setup_s, items_per_s and peak_rss_mb; with --trace 1 they are
the per-layer metrics. The exit code is 0 when every output checked out,
1 when a check failed, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import cpus  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("gen-large", "gen-remote", "evaluate", "build-dataset")

# One worker everywhere: the passes are CPU-bound Python except gen-remote's
# waits, and one worker keeps pass times free of thread scheduling. It is
# below nproc on any machine; the CLI default of 8 is not.
CONCURRENCY = 1

# Workload sizes. The work per round is fixed; only the content varies by
# seed. Each gen-large context is one shard; the others split evenly.
LARGE_CONTEXTS = (200, 300, 400, 500)  # entities per context
LARGE_COUNT = 3  # seeds (questions) per context
REMOTE_CONTEXTS, REMOTE_SHARDS = 100, 5  # contexts of HotpotQA size, one question each
REMOTE_ENTITIES = 12
EVAL_ITEMS, EVAL_SHARDS = 120, 4  # seeded hypotheses; FIXED_EVAL adds its own
SEEDED_NODE_CAP = 2_000  # alignment-search nodes a seeded pair may take
RECORDS, RECORD_SHARDS = 2000, 5

SETUP_LAUNCHES = 8
IMPORT_LAUNCHES = 5

# Seed-independent evaluate items whose alignment search exhausts its node
# budget, so the program falls back to its greedy alignment, which scores
# below the longest-run alignment on both: they fail in every run. The
# first is the pair quoted in CHANGES.md.
FIXED_EVAL = (
    (
        "What is based in the one that is founded by the one that is based in the city that Golden Garden 2 was born in?",
        ["What is in the one that is founded by the one that is based in the city that Garden 2 was born in?"],
    ),
    (
        "What starred in the one that is wrote by the studio that is starred in by the one that is taught by Port Talorunzelgan 8?",
        ["What starred in the one thats is wrote by the studio that is starred in by the one that is taught by Port Talorunzelgan 8?"],
    ),
)


def fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)
    return path


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


# ------------------------------------------------------------- workloads


class Workload:
    """Inputs, CLI arguments and checks of one workload in one directory.

    The input is split into shards, and one pass runs the command on one
    shard: passes stay short (about 0.04 to 0.25 s), so that the fastest
    pass of each shard can fall into the spells in which the machine runs
    at full speed. The whole input is written too, for the set-up launches.
    """

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.work = work
        self.rng = random.Random(f"{name}:{seed}")
        self.config = {"concurrency": CONCURRENCY}
        self.stub = None
        self.url = None
        self.shards: list[dict] = []
        try:
            getattr(self, "_make_" + name.replace("-", "_"))()
        except BaseException:
            self.close()
            raise
        write_json(self.path("config.json"), self.config)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, args: list[str]) -> list[str]:
        return args + ["--config", self.path("config.json")]

    def _generate(self, contexts: list[list[dict]], backend: str, count: int) -> None:
        def args(context_path: str, out: str) -> list[str]:
            return self.cli([
                "generate", "--context", context_path, "--d", "3", "--seed", "0",
                "--backend", backend, "--count", str(count), "--out", out,
            ])

        for k, docs in enumerate(contexts):
            out = self.path(f"traces-{k}.jsonl")
            self.shards.append({
                "argv": args(write_json(self.path(f"contexts-{k}.json"), docs), out),
                "out": out, "digest": [out], "items_from": "lines", "jobs": len(docs) * count,
            })
        everything = [doc for docs in contexts for doc in docs]
        self.full_argv = args(write_json(self.path("contexts.json"), everything), self.path("traces.jsonl"))

    def _contexts(self, sizes) -> list[dict]:
        docs = []
        for n in sizes:
            doc, written = gen.make_context(self.rng, n)
            docs.append(doc)
            self.triples[doc["context"]] = written
        return docs

    def _make_gen_large(self) -> None:
        self.triples = {}
        self._generate([self._contexts([n]) for n in LARGE_CONTEXTS], "template", LARGE_COUNT)

    def _make_gen_remote(self) -> None:
        self.triples = {}
        per = REMOTE_CONTEXTS // REMOTE_SHARDS
        self._generate([self._contexts([REMOTE_ENTITIES] * per) for _ in range(REMOTE_SHARDS)], "remote", 1)
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            raise RuntimeError("stub generator did not report a port")
        self.url = f"http://127.0.0.1:{port}"
        self.config["endpoints"] = {"generator": self.url + "/generate"}
        self.config["retries"] = 0

    def _evaluate_files(self, tag: str, corpus) -> tuple[list[str], str]:
        hyp, ref, out = (self.path(f"{kind}-{tag}.{ext}") for kind, ext in (("hyp", "txt"), ("ref", "txt"), ("report", "json")))
        with open(hyp, "w", encoding="utf-8") as fh:
            fh.writelines(h + "\n" for h, _ in corpus)
        with open(ref, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for _, r in corpus)
        return self.cli(["evaluate", "--hyp", hyp, "--ref", ref, "--out", out]), out

    def _make_evaluate(self) -> None:
        names = gen.NamePool(self.rng)
        seeded, self.screened_out = [], 0
        while len(seeded) < EVAL_ITEMS:
            hyp = gen.template_question(self.rng, names, 1 + len(seeded) % 4)
            refs = [gen.perturb(self.rng, hyp) for _ in range(self.rng.randint(1, 3))]
            # Seeded pairs with a long alignment search are left out: past
            # the node budget whether the fallback scores below the optimum
            # depends on the seed, and below it their number would make the
            # work per round depend on the seed. FIXED_EVAL carries the tail.
            if any(gen.search_nodes(hyp, ref, SEEDED_NODE_CAP) > SEEDED_NODE_CAP for ref in refs):
                self.screened_out += 1
                continue
            seeded.append((hyp, refs))
        per = EVAL_ITEMS // EVAL_SHARDS
        for k in range(EVAL_SHARDS):
            corpus = seeded[k * per : (k + 1) * per] + [(h, list(r)) for h, r in FIXED_EVAL[k :: EVAL_SHARDS]]
            argv, out = self._evaluate_files(str(k), corpus)
            self.shards.append({
                "argv": argv, "out": out, "digest": [out], "items_from": "items",
                "items_file": out, "jobs": len(corpus), "corpus": corpus,
            })
        everything = seeded + [(h, list(r)) for h, r in FIXED_EVAL]
        self.full_argv, _ = self._evaluate_files("all", everything)

    def _make_build_dataset(self) -> None:
        docs, self.expected = gen.make_records(self.rng, RECORDS)
        per = RECORDS // RECORD_SHARDS
        for k in range(RECORD_SHARDS):
            part = docs[k * per : (k + 1) * per]
            out, stats = self.path(f"examples-{k}.jsonl"), self.path(f"stats-{k}.json")
            argv = self.cli(["build-dataset", "--hotpot", write_json(self.path(f"records-{k}.json"), part),
                             "--out", out, "--stats", stats])
            self.shards.append({
                "argv": argv, "out": out, "digest": [out, stats], "items_from": "records",
                "items_file": stats, "jobs": len(part), "records": {d["_id"]: d for d in part},
            })
        self.full_argv = self.cli(["build-dataset", "--hotpot", write_json(self.path("records.json"), docs),
                                   "--out", self.path("examples.jsonl"), "--stats", self.path("stats.json")])

    def jobs(self) -> int:
        return sum(shard["jobs"] for shard in self.shards)

    def runner_spec(self, seconds: int, trace: bool) -> dict:
        keys = ("argv", "out", "digest", "items_from", "items_file")
        return {
            "root": ROOT,
            "shards": [{k: shard[k] for k in keys if k in shard} for shard in self.shards],
            "manifest_only_argv": self.full_argv + ["--manifest-only"],
            "seconds": seconds,
            "trace": trace,
            "stub_url": self.url,
            "stub_pid": self.stub.pid if self.stub else None,
            "result": self.path("result.json"),
        }

    # ---------------------------------------------------------- checks

    def check(self) -> tuple[list[str], int]:
        """(problems, failed operations in one round over the shards)."""
        import checks

        problems, failed = [], 0
        if self.name == "evaluate":
            from hopqg.metrics import meteor_simplified

            oracles = checks.load_oracles(ROOT)
        for k, shard in enumerate(self.shards):
            found: list[str] = []
            if self.name in ("gen-large", "gen-remote"):
                with open(shard["out"], encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                found = checks.check_traces(lines, 3, self.triples, template=self.name == "gen-large")
                failed += shard["jobs"] - len(lines)
            elif self.name == "evaluate":
                with open(shard["out"], encoding="utf-8") as fh:
                    report = json.load(fh)
                found, items = checks.check_report(report, shard["corpus"], oracles, meteor_simplified)
                failed += len(items)
            else:
                with open(shard["items_file"], encoding="utf-8") as fh:
                    stats = json.load(fh)
                with open(shard["out"], encoding="utf-8") as fh:
                    examples = [json.loads(line) for line in fh]
                expected = {rid: self.expected[rid] for rid in shard["records"]}
                found = checks.check_dataset(stats, examples, shard["records"], expected)
                failed += stats["errors"]
            problems += [f"shard {k}: {p}" for p in found]
        if self.url:
            stats = stub_call(self.url, "/stats")
            if stats["violations"] or stats["bad_requests"]:
                problems.append(f"stub saw {stats['violations']} step-order violations, {stats['bad_requests']} bad requests")
        return problems, failed

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub.stdin.close()


def stub_call(url: str, path: str) -> dict:
    with urllib.request.urlopen(url + path, timeout=10) as resp:
        return json.loads(resp.read())


# ----------------------------------------------------------- measuring


def timed_launches(argv: list[str], count: int, allowed: list[int]) -> tuple[list[float], list[float]]:
    """Wall times of count fresh interpreters, and the same at the reference
    speed (cpus.bracketed), after one untimed launch that leaves the
    bytecode cache as a user's installed copy would have it. Each launch
    inherits this process's pinning to the fastest CPU."""
    times, scaled = [], []
    for k in range(count + 1):
        cpus.pin_fastest(allowed)
        done, elapsed, reference = cpus.bracketed(lambda: subprocess.run(
            argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60))
        if done.returncode != 0:
            raise RuntimeError(f"{argv[3:5]} exited {done.returncode}: {done.stderr.decode()[-500:]}")
        if k:
            times.append(elapsed)
            scaled.append(elapsed / reference * cpus.REFERENCE_S)
    return times, scaled


def import_seconds(allowed: list[int]) -> float:
    code = (
        "import time; t = time.perf_counter(); import hopqg.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(IMPORT_LAUNCHES):
        cpus.pin_fastest(allowed)
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), stdout=subprocess.PIPE, timeout=60, check=True)
        values.append(float(done.stdout.decode().strip()))
    return statistics.median(values)


def run(args) -> int:
    allowed = cpus.allowed()
    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=SCRATCH)
    workload = None
    phases = {}
    clock = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[name] = round(now - clock, 2)
        clock = now

    try:
        workload = Workload(args.workload, args.seed, work)
        spec = workload.runner_spec(args.seconds, bool(args.trace))
        spec["cpus"] = allowed
        write_json(workload.path("spec.json"), spec)
        phase("inputs")
        setup_wall, setup = timed_launches([sys.executable, "-m", "hopqg.cli"] + spec["manifest_only_argv"], SETUP_LAUNCHES, allowed)
        cpus.unpin(allowed)
        phase("setup")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "runner.py"), workload.path("spec.json")],
            cwd=ROOT, env=_env(), check=True, timeout=3 * args.seconds + 90,
            stdout=subprocess.DEVNULL,
        )
        phase("passes")
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        rounds = result["rounds"]
        problems, failed = workload.check()
        phase("checks")
        print(f"phases (s): {phases}; rounds: {rounds}; wall clock: set-up median "
              f"{statistics.median(setup_wall):.4f} s, {workload.jobs() / result['fastest_s']:.2f} items/s "
              f"from the fastest pass per shard", file=sys.stderr)
        if set(result["codes"]) != {0}:
            problems.append(f"command exit codes {result['codes']}")
        if any(n != 1 for n in result["outputs"]):
            problems.append(f"passes over one shard wrote different outputs: {result['outputs']}")
        if result["items"] != [shard["jobs"] for shard in workload.shards]:
            problems.append(f"items per shard {result['items']}, expected {[s['jobs'] for s in workload.shards]}")
        for problem in problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)

        if args.trace:
            layers = dict(result["layers"])
            layers["setup.import_s"] = import_seconds(allowed)
            cpus.unpin(allowed)
            units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
            metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()}
            if result.get("absent"):
                print("absent layers: " + ", ".join(result["absent"]))
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "items_per_s": {"value": workload.jobs() / result["round_s"], "unit": "1/s"},
                "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
            }
        if args.workload == "evaluate":
            print(f"seeded items left out by the search-size screen: {workload.screened_out}")
        print(json.dumps({
            "correct": not problems,
            "attempted": workload.jobs() * rounds,
            "failed": failed * rounds,
            "metrics": metrics,
        }))
        return 0 if not problems else 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hopqg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail_usage("--seconds must be at least 1")
    for needed in (os.path.join("src", "hopqg", "cli.py"), os.path.join("tests", "oracles.py"), "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail_usage(f"{needed} is missing: run from the root of a hopqg checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
