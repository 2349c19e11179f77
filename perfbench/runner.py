"""Timed passes of one workload's command, in a process of their own.

    python3 perfbench/runner.py SPEC.json

The spec (written by run.py) names the checkout root, one CLI argument
list per input shard, how long to measure and whether to trace. The runner
calls ``hopqg.cli.main`` in-process: one untimed warm-up round, then whole
rounds (one pass per shard) until the time is spent. With tracing on, the
first half of the time runs untraced rounds and the second half traced
ones. Every recorded pass is bracketed by the reference work of cpus.py,
and a shard's time is the median over its passes of pass time over
reference time, scaled by cpus.REFERENCE_S. The result goes to the spec's
result path as JSON; peak RSS is this process's, so the checks, made by
run.py, do not count in it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import urllib.request

import cpus

MIN_ROUNDS = 2


def _load_program(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import hopqg
    import hopqg.cli

    where = os.path.dirname(os.path.abspath(hopqg.__file__))
    if where != os.path.join(root, "src", "hopqg"):
        raise SystemExit(f"hopqg was imported from {where}, not from this checkout")
    return hopqg.cli.main


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _items(shard: dict) -> int:
    if shard["items_from"] == "lines":
        with open(shard["out"], "rb") as fh:
            return fh.read().count(b"\n")
    with open(shard["items_file"], encoding="utf-8") as fh:
        return int(json.load(fh)[shard["items_from"]])


def _stub(url: str, path: str, post: bool = False) -> dict:
    req = urllib.request.Request(url + path, data=b"{}" if post else None, method="POST" if post else "GET")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


class Rounds:
    """Round-robin passes over the shards; a round runs every shard once."""

    def __init__(self, spec: dict, main, tracer=None):
        self.spec = spec
        self.main = main
        self.tracer = tracer
        shards = len(spec["shards"])
        self.seconds: list[list[float]] = [[] for _ in range(shards)]
        self.ratios: list[list[float]] = [[] for _ in range(shards)]
        self.spans: list[list[tuple[int, int]]] = [[] for _ in range(shards)]
        self.items = [0] * shards
        self.codes: set[int] = set()
        self.digests: list[set[str]] = [set() for _ in range(shards)]
        self.rounds = 0

    def one(self, k: int, record: bool = True) -> None:
        shard = self.spec["shards"][k]
        tracer = self.tracer
        first = len(tracer) if tracer is not None else 0

        def step() -> int:
            root = tracer.begin_pass() if tracer is not None else None
            code = self.main(list(shard["argv"]))
            if tracer is not None:
                tracer.close(root)
            return code

        code, elapsed, reference = cpus.bracketed(step)
        self.codes.add(code)
        self.digests[k].add(_digest(shard["digest"]))
        self.items[k] = _items(shard)
        if record:
            self.seconds[k].append(elapsed)
            self.ratios[k].append(elapsed / reference)
            if tracer is not None:
                self.spans[k].append((first, len(tracer)))

    def warm_up(self) -> None:
        for k in range(len(self.spec["shards"])):
            self.one(k, record=False)

    def until(self, budget: float) -> None:
        start = time.perf_counter()
        while self.rounds < MIN_ROUNDS or time.perf_counter() - start < budget:
            cpu = cpus.pin_fastest(self.spec["cpus"])
            if cpu is not None and self.spec.get("stub_pid"):
                # With one worker the client and the stub take turns, so the
                # stub's next handler thread runs on the same CPU.
                os.sched_setaffinity(self.spec["stub_pid"], {cpu})
            for k in range(len(self.spec["shards"])):
                self.one(k)
            self.rounds += 1

    def round_s(self) -> float:
        """Seconds of one round at the reference speed: over shards, the sum
        of the median ratio of pass time to reference time."""
        return sum(statistics.median(ratios) for ratios in self.ratios) * cpus.REFERENCE_S

    def fastest(self) -> float:
        return sum(min(times) for times in self.seconds)


def _q(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def layer_metrics(tracer, traced: Rounds, untraced: Rounds, stub_stats, digest_s) -> dict:
    from tracing import self_times

    passes = traced.rounds  # counts are per round over the shards
    selfs = self_times(tracer)
    start, end = tracer.start, tracer.end
    by: dict[str, list[int]] = {}
    for index, name in enumerate(tracer.name):
        by.setdefault(name, []).append(index)

    def ms(name: str) -> list[float]:
        return [(end[i] - start[i]) * 1e3 for i in by.get(name, [])]

    def total_s(name: str) -> float:
        return sum(ms(name)) / 1e3 / passes

    out: dict[str, float] = {}
    build = ms("graph.build")
    out["graph.build_calls"] = len(build) / passes
    out["graph.build_ms.p50"] = _q(build, 0.5)
    out["graph.build_ms.p90"] = _q(build, 0.9)
    out["planner.plan_ms.p50"] = _q(ms("planner.plan"), 0.5)
    out["context.parse_ms"] = _q(ms("context.parse"), 0.5)

    steps: dict[int, int] = {}
    for index, name in enumerate(tracer.name):
        if name in ("template.call", "remote.call") and tracer.parent[index] >= 0:
            steps[tracer.parent[index]] = steps.get(tracer.parent[index], 0) + 1
    step_ms = [selfs[i] * 1e3 / steps[i] for i in by.get("pipeline.stepwise", []) if steps.get(i)]
    out["pipeline.step_ms.p50"] = _q(step_ms, 0.5)
    out["template.call_ms.p50"] = _q(ms("template.call"), 0.5)

    calls = by.get("remote.call", [])
    call_ms = ms("remote.call")
    out["remote.calls"] = len(calls) / passes
    out["remote.call_ms.p50"] = _q(call_ms, 0.5)
    out["remote.call_ms.p90"] = _q(call_ms, 0.9)
    out["remote.failures"] = sum(tracer.failed[i] for i in calls) / passes
    service_ms = [us / 1e3 for us in (stub_stats or {}).get("service_us", [])]
    out["remote.service_ms.p50"] = _q(service_ms, 0.5)
    if len(service_ms) == len(call_ms):
        # One worker thread and no retries: the i-th call is the i-th request.
        out["remote.overhead_ms.p50"] = _q([c - s for c, s in zip(call_ms, service_ms)], 0.5)
    else:
        out["remote.overhead_ms.p50"] = out["remote.call_ms.p50"] - out["remote.service_ms.p50"]
    requests = (stub_stats or {}).get("requests", 0)
    out["remote.http_requests"] = requests / passes
    out["remote.retries"] = (requests - len(calls)) / passes
    out["remote.connections"] = (stub_stats or {}).get("connections", 0) / passes

    counts = tracer.counts
    records = counts["records"]
    out["hotpot.load_ms_per_record"] = sum(ms("hotpot.load")) / records if records else 0.0
    out["hotpot.context_ms.p50"] = _q(ms("hotpot.context"), 0.5)
    record_ms = ms("dataset_builder.record")
    out["dataset_builder.record_ms.p50"] = _q(record_ms, 0.5)
    out["dataset_builder.record_ms.p90"] = _q(record_ms, 0.9)
    out["dataset_builder.classify_ms.p50"] = _q(ms("dataset_builder.classify"), 0.5)
    out["dataset_builder.decompose_ms.p50"] = _q(ms("dataset_builder.decompose"), 0.5)
    out["dataset_builder.qa_ms.p50"] = _q(ms("dataset_builder.qa"), 0.5)
    out["dataset_builder.qa_calls"] = len(by.get("dataset_builder.qa", [])) / passes
    out["dataset_builder.yield"] = counts["examples"] / records if records else 0.0

    pairs = ms("metrics.meteor")
    out["metrics.meteor.total_s"] = total_s("metrics.meteor")
    out["metrics.meteor.pair_ms.p50"] = _q(pairs, 0.5)
    out["metrics.meteor.pair_ms.p90"] = _q(pairs, 0.9)
    out["metrics.meteor.pair_ms.max"] = max(pairs, default=0.0)
    out["metrics.bleu.total_s"] = total_s("metrics.bleu")
    out["metrics.rouge_l.total_s"] = total_s("metrics.rouge_l")
    out["metrics.cider.total_s"] = total_s("metrics.cider")
    out["io.write_s"] = total_s("io.write")
    out["manifest.digest_s"] = digest_s

    # Coverage: in each shard's fastest traced pass, the share of the pass
    # taken by the self time of every span below the pass itself.
    layered = 0.0
    for times, ranges in zip(traced.seconds, traced.spans):
        lo, hi = ranges[times.index(min(times))]
        layered += sum(selfs[i] for i in range(lo, hi) if tracer.name[i] != "pass")
    out["trace.overhead"] = traced.round_s() / untraced.round_s() - 1.0
    out["trace.coverage"] = layered / traced.fastest()
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    main_fn = _load_program(spec["root"])
    budget = spec["seconds"]
    untraced = Rounds(spec, main_fn)
    untraced.warm_up()  # imports done, caches filled
    result: dict = {}
    runs = [untraced]
    if not spec["trace"]:
        untraced.until(budget)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        untraced.until(budget / 2)
        tracer = tracing.Tracer()
        result["absent"] = tracing.install(tracer)
        if spec.get("stub_url"):
            _stub(spec["stub_url"], "/reset", post=True)
        traced = Rounds(spec, main_fn, tracer)
        traced.until(budget / 2)
        runs.append(traced)
        stub_stats = _stub(spec["stub_url"], "/stats") if spec.get("stub_url") else None
        kept = len(tracer)
        digests = []
        for _ in range(5):
            main_fn(list(spec["manifest_only_argv"]))
            digests.append(sum(
                tracer.end[i] - tracer.start[i] for i in range(kept, len(tracer)) if tracer.name[i] == "manifest.digest"
            ))
            tracer.truncate(kept)
        result["layers"] = layer_metrics(tracer, traced, untraced, stub_stats, min(digests))
    result.update(
        rounds=sum(r.rounds for r in runs),
        round_s=untraced.round_s(),
        fastest_s=untraced.fastest(),
        items=untraced.items,
        codes=sorted(set().union(*(r.codes for r in runs))),
        outputs=[len(set().union(*(r.digests[k] for r in runs))) for k in range(len(spec["shards"]))],
    )
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
