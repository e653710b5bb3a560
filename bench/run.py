"""Seeded offline benchmark for qlmrank.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload generates a BEIR-layout dataset from the seed, then runs its
chain of qlmrank verbs, each as its own process as a user would at a
shell, again and again for about S seconds (at least three times). S
defaults to RUN_SECONDS, the run_seconds of BENCHMARK.json. It
prints every end-to-end metric with its unit and sample count, checks the
outputs, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 1 alternates plain repeats with traced ones, in which every verb
runs under bench/launch.py with span recording, and reports the per-layer
metrics instead. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 30            # run_seconds in BENCHMARK.json
MIN_REPEATS = 3
VERB_TIMEOUT_S = 150.0
STUB_LATENCY_MS = 20.0
WORKERS = 2                 # --max-workers for rerank; equals nproc on the reference machine
SEARCH_K = 100
MODEL_FAMILY, DATASET = "t5", "trecc"
SPOT_QUERIES = 5
SPOT_OTHERS = 5
SPOT_PAIRS = 20
REFERENCE_S = 0.05          # reference_task() on the reference machine; sets the time scale


class BenchmarkError(Exception):
    """A failure after which the workload cannot go on."""


@dataclass(frozen=True)
class Verb:
    label: str
    args: list[str]
    outputs: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    docs: int
    queries: int
    key_verb: str           # label of the verb whose throughput is key_verb_per_s
    key_metric: str         # that throughput's own name in the report
    provider: str | None = None
    depth: int = 0          # rerank depth

    def chain(self, data: dict[str, str], out: str, endpoint: str | None) -> list[Verb]:
        o = {name: os.path.join(out, name) for name in (
            "index.json", "bm25.trec", "dirichlet.trec", "hybrid.trec",
            "reranked.trec", "fused.trec", "eval.tsv", "sig.txt", "sweep.tsv")}
        verbs = [
            Verb("index", ["index", "--corpus", data["corpus"], "--out", o["index.json"]],
                 [o["index.json"]]),
            Verb("bm25", ["search", "--index", o["index.json"], "--queries", data["queries"],
                          "--ranker", "bm25", "--k", str(SEARCH_K), "--out", o["bm25.trec"]],
                 [o["bm25.trec"]]),
        ]
        if self.provider is None:
            final = o["hybrid.trec"]
            verbs += [
                Verb("dirichlet", ["search", "--index", o["index.json"], "--queries",
                                   data["queries"], "--ranker", "dirichlet", "--k",
                                   str(SEARCH_K), "--out", o["dirichlet.trec"]],
                     [o["dirichlet.trec"]]),
                Verb("fuse", ["fuse", "--run-a", o["bm25.trec"], "--run-b", o["dirichlet.trec"],
                              "--alpha", "0.5", "--out", final], [final]),
            ]
        else:
            final = o["fused.trec"]
            rerank = ["rerank", "--run", o["bm25.trec"], "--corpus", data["corpus"],
                      "--queries", data["queries"], "--out", o["reranked.trec"],
                      "--provider", self.provider, "--model-family", MODEL_FAMILY,
                      "--dataset", DATASET, "--depth", str(self.depth),
                      "--max-workers", str(WORKERS)]
            if self.provider == "remote":
                rerank += ["--endpoint", endpoint]
            else:
                rerank += ["--fewshot"]
            verbs += [
                Verb("rerank", rerank, [o["reranked.trec"]]),
                Verb("fuse", ["fuse", "--run-a", o["bm25.trec"], "--run-b", o["reranked.trec"],
                              "--alpha", "0.2", "--out", final], [final]),
            ]
        verbs.append(Verb("eval", ["eval", "--run", final, "--qrels", data["qrels"],
                                   "--k", "10", "--out", o["eval.tsv"]], [o["eval.tsv"]]))
        if self.provider is not None:
            verbs.append(Verb("sigtest", ["sigtest", o["bm25.trec"], o["reranked.trec"], final,
                                          "--qrels", data["qrels"], "--out", o["sig.txt"]],
                              [o["sig.txt"]]))
        if self.provider == "bigram":
            verbs.append(Verb("sweep", ["sweep", "--run-a", o["bm25.trec"], "--run-b",
                                        o["reranked.trec"], "--qrels", data["qrels"],
                                        "--out", o["sweep.tsv"]], [o["sweep.tsv"]]))
        return verbs


WORKLOADS = {w.name: w for w in (
    Workload("first-stage",
             "lexical search dominates: one index write, two index reads, likelihood idle",
             docs=1500, queries=100, key_verb="dirichlet", key_metric="dirichlet_qps"),
    Workload("rerank-remote",
             "latency-bound re-ranking against the stub at 20 ms: request scheduling dominates",
             docs=1000, queries=40, key_verb="rerank", key_metric="rerank_pairs_per_s",
             provider="remote", depth=10),
    Workload("rerank-bigram",
             "CPU-bound in-process few-shot re-ranking with heavily repeated prompts",
             docs=1000, queries=100, key_verb="rerank", key_metric="rerank_pairs_per_s",
             provider="bigram", depth=100),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "bm25_qps": "queries/s", "key_verb_per_s": "items/s",
    "peak_rss_mb": "MB", "index_mb": "MB", "ndcg10": "ratio",
}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class VerbResult:
    spawn: float
    wall: float
    cpu: float              # user + system seconds of the process
    maxrss_kb: int
    returncode: int
    trace: str | None


_REFERENCE_RNG = random.Random(1234)
REFERENCE_TEXT = " ".join(f"w{_REFERENCE_RNG.randrange(5000)}" for _ in range(60000))


def reference_task() -> float:
    """Time a fixed pure-Python task (tokenise, count, score, sort), which
    tells how fast the machine runs Python at this moment."""
    start = time.perf_counter()
    for _ in range(3):
        counts: dict[str, int] = {}
        for token in REFERENCE_TEXT.split():
            counts[token] = counts.get(token, 0) + 1
        sorted(counts.items(), key=lambda kv: (-math.log1p(kv[1]), kv[0]))
    return time.perf_counter() - start


def verb_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_verb(verb: Verb, logs: str, traced: bool, env: dict[str, str]) -> VerbResult:
    """Run one verb as its own process; time it and take its max RSS."""
    trace = os.path.join(logs, f"{verb.label}.trace.json") if traced else None
    cmd = ([sys.executable, os.path.join(BENCH, "launch.py"), trace] if traced
           else [sys.executable, "-m", "qlmrank.cli"]) + verb.args
    with open(os.path.join(logs, f"{verb.label}.stdout"), "wb") as out, \
         open(os.path.join(logs, f"{verb.label}.stderr"), "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    return VerbResult(spawn, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      proc.returncode, trace)


class Stub:
    """The stub logprob server process."""

    def __init__(self, corpus: str, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "stub_server.py"), "--corpus", corpus,
             "--latency-ms", str(STUB_LATENCY_MS)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("port "):
            self.stop()
            raise BenchmarkError("stub server did not start")
        self.port = int(line.split()[1])
        self.stats()  # answers once it serves

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        """Counters since the previous call."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Correctness checks (outside every timed region)
# ---------------------------------------------------------------------------

class Checks:
    """Counts operations and failures; keeps one message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def ops(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failures += [message] * failed


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class Oracle:
    """In-process reference results: brute-force lexical scores and a
    directly scored BigramLm."""

    def __init__(self, data: dict[str, str], workload: Workload, seed: int) -> None:
        from qlmrank import corpus, ranking

        self.rng = random.Random(seed)
        self.docs = corpus.load_corpus(data["corpus"])
        self.queries = corpus.load_queries(data["queries"])
        self.qrels = corpus.load_qrels(data["qrels"])
        self.index = ranking.build_index(self.docs)
        self.workload = workload

    def search(self, checks: Checks, run_path: str, ranker: str) -> None:
        """Top scores equal the oracle's; sampled other docs score no higher."""
        from qlmrank import corpus, ranking

        if ranker == "bm25":
            params = ranking.Bm25Params()
            def oracle(terms, did):
                return ranking.bm25_score(self.index, params, terms, did)
        else:
            dparams = ranking.DirichletParams()
            def oracle(terms, did):
                return ranking.dirichlet_qlm_score(self.index, dparams, terms, did)
        run = corpus.read_run(run_path)
        doc_ids = [d.id for d in self.docs]
        for query in self.rng.sample(self.queries, SPOT_QUERIES):
            terms = self.index.analyzer.tokenize(query.text)
            got = run.entries.get(query.id, [])
            bad = [did for did, s in got[:10] if not _close(s, oracle(terms, did))]
            floor = got[-1][1] if len(got) == SEARCH_K else 0.0
            returned = {did for did, _ in got}
            others = self.rng.sample([d for d in doc_ids if d not in returned], SPOT_OTHERS)
            bad += [did for did in others if oracle(terms, did) > floor + 1e-9 * max(1.0, abs(floor))]
            checks.op(bool(got) and not bad,
                      f"{ranker} run disagrees with the oracle on query {query.id}: {bad}")

    def rerank(self, checks: Checks, run_path: str, candidates_path: str) -> int:
        """Each query's re-ranked docs are exactly its top-`depth` candidates,
        and sampled scores equal a direct BigramLm score; return the pair count."""
        from qlmrank import corpus, likelihood, prompts

        lm = likelihood.BigramLm.train(
            [f"{d.title} {d.body}" if d.title else d.body for d in self.docs])
        catalog = prompts.default_catalog()
        template = catalog.template(MODEL_FAMILY, DATASET)
        triples = catalog.fewshot_for(DATASET) if self.workload.provider == "bigram" else None
        run = corpus.read_run(run_path)
        candidates = corpus.read_run(candidates_path)
        depth = self.workload.depth
        expected_pairs = 0
        for qid in sorted(run.entries.keys() | candidates.entries.keys()):
            want = sorted(did for did, _ in candidates.entries.get(qid, [])[:depth])
            got = sorted(did for did, _ in run.entries.get(qid, []))
            expected_pairs += len(want)
            checks.op(got == want,
                      f"re-ranked docs of query {qid} are not its top {depth} candidates")
        pairs = [(qid, did, s) for qid, ps in run.entries.items() for did, s in ps]
        docs = {d.id: d for d in self.docs}
        texts = {q.id: q.text for q in self.queries}
        for qid, did, got in self.rng.sample(pairs, min(SPOT_PAIRS, len(pairs))):
            prompt = (prompts.render_fewshot(template, triples, docs[did]) if triples
                      else prompts.render_prompt(template, docs[did]))
            want = likelihood.score_query_likelihood(
                lm(likelihood.make_request(prompt, texts[qid])))
            checks.op(_close(got, want), f"rerank score of ({qid}, {did}) is {got}, want {want}")
        return expected_pairs

    def ndcg(self, checks: Checks, run_path: str, eval_path: str) -> float:
        """nDCG@10 of the final run, checked against the eval verb's report."""
        from qlmrank import corpus, evaluation

        mean = evaluation.ndcg_at_k(corpus.read_run(run_path), self.qrels, k=10).mean
        with open(eval_path, encoding="utf-8") as f:
            reported = [line.split("\t")[1] for line in f if line.startswith("# mean_ndcg")]
        checks.op(len(reported) == 1 and abs(float(reported[0]) - mean) <= 5e-7,
                  f"eval reports {reported}, oracle nDCG@10 is {mean:.6f}")
        return mean


def digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version()}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import datagen
    import spans

    work = os.path.join(BENCH, "_work", f"{workload.name}-s{seed}-{os.getpid()}")
    logs = os.path.join(work, "logs")
    os.makedirs(logs)
    env = verb_env()
    stub = None
    checks = Checks()
    try:
        data = datagen.write_dataset(seed, workload.docs, workload.queries,
                                     os.path.join(work, "data"))
        oracle = Oracle(data, workload, seed)
        if workload.provider == "remote":
            stub = Stub(data["corpus"], env)
        chain = workload.chain(data, os.path.join(work, "out"), stub.endpoint if stub else None)
        os.makedirs(os.path.join(work, "out"))
        # compile bytecode caches as an installed package would have them
        subprocess.run([sys.executable, "-m", "qlmrank.cli", "--help"], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)

        repeats: list[dict] = []
        reference: dict[str, str] | None = None
        pairs = 0
        start = time.monotonic()
        while True:
            traced = trace and len(repeats) % 2 == 1
            for verb in chain:
                for path in verb.outputs:
                    if os.path.exists(path):
                        os.remove(path)
            results, stub_stats, references = {}, None, []
            for verb in chain:
                references.append(reference_task())
                result = run_verb(verb, logs, traced, env)
                results[verb.label] = result
                if verb.label == "rerank" and stub:
                    stub_stats = stub.stats()
                checks.op(result.returncode == 0,
                          f"{verb.label} exited {result.returncode}: {_tail(logs, verb.label)}")
                if result.returncode != 0:
                    raise BenchmarkError(checks.failures[-1])
            # --- checks, outside the timed region ---
            hashes = {os.path.basename(p): digest(p) for v in chain for p in v.outputs}
            if reference is None:
                reference = hashes
                oracle.search(checks, os.path.join(work, "out", "bm25.trec"), "bm25")
                if workload.provider is None:
                    oracle.search(checks, os.path.join(work, "out", "dirichlet.trec"), "dirichlet")
                    final = "hybrid.trec"
                else:
                    pairs = oracle.rerank(checks, os.path.join(work, "out", "reranked.trec"),
                                          os.path.join(work, "out", "bm25.trec"))
                    final = "fused.trec"
                ndcg = oracle.ndcg(checks, os.path.join(work, "out", final),
                                   os.path.join(work, "out", "eval.tsv"))
                index_mb = os.path.getsize(os.path.join(work, "out", "index.json")) / 2**20
            for name, value in hashes.items():
                checks.op(value == reference[name],
                          f"{name} of repeat {len(repeats) + 1} differs from repeat 1")
            if stub_stats is not None:
                retried = stub_stats["requests"] - pairs
                checks.ops(stub_stats["requests"], max(stub_stats["non_200"], retried),
                           "provider request answered non-200 or retried")
            layers = None
            if traced:
                verbs = []
                for v in results.values():
                    with open(v.trace, encoding="utf-8") as f:
                        verbs.append(dict(json.load(f), spawn=v.spawn))
                layers = spans.layer_metrics(verbs, WORKERS, stub_stats)
            repeats.append({"traced": traced, "verbs": results, "layers": layers,
                            "references": references})
            # a traced run measures (plain, traced) pairs
            n, unit = len(repeats), 2 if trace else 1
            if n % unit == 0 and n >= (unit if trace else MIN_REPEATS):
                elapsed = time.monotonic() - start
                next_end = elapsed + unit * elapsed / n
                if next_end > seconds:
                    break
    finally:
        if stub:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in repeats if not r["traced"]]

    def run_s(repeat: dict) -> float:
        return sum(v.wall for label, v in repeat["verbs"].items() if label != "index")

    samples = len(plain)
    speed = None
    if trace:
        traced = [r for r in repeats if r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = (statistics.median(run_s(r) for r in traced)
                                           / statistics.median(run_s(r) for r in plain) - 1.0)
        units = {name: _layer_unit(name) for name in metrics}
        samples = len(traced)
    else:
        key_items = workload.queries if workload.provider is None else pairs

        # A shared machine runs Python faster or slower by tens of percent from
        # one minute to the next. reference_task() runs before every verb, and
        # the CPU seconds of every verb are rescaled by the run's mean
        # reference time to the speed at which that task takes REFERENCE_S;
        # the rest of a verb's wall time (waiting on the provider) is kept.
        speed = REFERENCE_S / statistics.fmean(t for r in plain for t in r["references"])

        def scaled(v: VerbResult) -> float:
            return v.wall + v.cpu * (speed - 1.0)

        def mean_scaled(label: str) -> float:
            return statistics.fmean(scaled(r["verbs"][label]) for r in plain)

        # The wall time of one verb process also often falls into two modes
        # some 30% apart, and the median of a few repeats jumps between them.
        # So the chain time is a mean and a throughput is total items over
        # total time; setup_s stays the median of the index runs.
        metrics = {
            "setup_s": statistics.median(scaled(r["verbs"]["index"]) for r in plain),
            "run_s": statistics.fmean(sum(scaled(v) for label, v in r["verbs"].items()
                                          if label != "index") for r in plain),
            "bm25_qps": workload.queries / mean_scaled("bm25"),
            "key_verb_per_s": key_items / mean_scaled(workload.key_verb),
            "peak_rss_mb": statistics.median(max(v.maxrss_kb for v in r["verbs"].values())
                                             for r in plain) / 1024.0,
            "index_mb": index_mb,
            "ndcg10": ndcg,
        }
        units = dict(END_TO_END_UNITS)
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine(), "samples": samples, "repeats": len(repeats), "speed": speed,
            "metrics": metrics, "units": units,
            "walls": [{label: v.wall for label, v in r["verbs"].items()} for r in repeats],
            "cpus": [{label: v.cpu for label, v in r["verbs"].items()} for r in repeats],
            "references": [r["references"] for r in repeats],
            "attempted": checks.attempted, "failed": len(checks.failures),
            "failures": checks.failures}


def _tail(logs: str, label: str) -> str:
    try:
        with open(os.path.join(logs, f"{label}.stderr"), encoding="utf-8", errors="replace") as f:
            lines = f.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("chars_mean"):
        return "chars"
    return "count"


def report(result: dict, workload: Workload) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    m = result["machine"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"repeats={result['repeats']}  machine: nproc={m['nproc']}, {m['cpu_model']}, "
          f"Python {m['python']}")
    n = result["samples"]
    for name, value in result["metrics"].items():
        shown = name
        if name == "key_verb_per_s":
            shown = f"{name} ({workload.key_metric})"
        count = 1 if name in ("index_mb", "ndcg10") else n
        print(f"  {shown:<44} {value:>14.6f} {result['units'][name]:<10} n={count}")
    if result["speed"] is not None:
        print(f"  {'speed (factor on the CPU seconds of timings)':<44} {result['speed']:>14.6f} "
              f"{'ratio':<10} n={n}")
    failed_ops = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  {'failed_ops':<44} {failed_ops:>14.6f} {'ratio':<10} "
          f"n={result['attempted']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description="qlmrank offline benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qlmrank", "cli.py")):
        print(f"error: the qlmrank sources are missing: {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results_dir = os.path.join(BENCH, "_results")
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1, sort_keys=True)
        report(result, WORKLOADS[name])
        correct = result["failed"] == 0
        ok = ok and correct
        print(json.dumps({
            "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": result["units"][k]}
                        for k, v in result["metrics"].items()},
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
