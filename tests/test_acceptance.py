"""Acceptance suite: one test per release criterion.

Each test prints a PASS line when its criterion holds at the stated
tolerance (run with -s or -rA to see the lines; pytest's own PASSED/FAILED
markers track the same outcomes). Oracles here are written from first
principles and share no code with the implementation paths they check.
"""

import filecmp
import json
import math
import os
import random
import re
import subprocess
import sys
import time

import pytest
from scipy import stats as scipy_stats

from http_stub import StubHandler
from qlmrank.cli import main as cli_main
from qlmrank.corpus import Document, QrelSet, Query, Run, read_run
from qlmrank.evaluation import ndcg_at_k, paired_ttest
from qlmrank.fusion import interpolate, minmax_normalize, sweep_alpha
from qlmrank.likelihood import (
    BigramLm,
    LikelihoodRequest,
    LikelihoodResult,
    ProtocolError,
    RemoteProvider,
    TransportError,
    rerank,
)
from qlmrank.prompts import PromptTemplate
from qlmrank.ranking import (
    Bm25Params,
    DirichletParams,
    bm25_score,
    bm25_search,
    build_index,
    dirichlet_qlm_score,
    dirichlet_search,
)


def report(number, text):
    print(f"\n[criterion {number:2d}] PASS  {text}")


# ---------------------------------------------------------------------------
# Criterion 1: nDCG equals a brute-force reference on 500 random instances
# ---------------------------------------------------------------------------

def _oracle_dcg(grades, k):
    return sum((2 ** g - 1) / math.log2(rank + 1)
               for rank, g in enumerate(grades[:k], 1))


def _distinct_permutations(items):
    """Every distinct ordering of a multiset (plain recursive enumeration)."""
    if not items:
        yield ()
        return
    seen = set()
    for i, head in enumerate(items):
        if head in seen:
            continue
        seen.add(head)
        rest = items[:i] + items[i + 1:]
        for tail in _distinct_permutations(rest):
            yield (head,) + tail


def _oracle_ndcg(ranked_doc_ids, judged, k):
    gains = [judged.get(did, 0) for did in ranked_doc_ids]
    ideal = max(_oracle_dcg(list(perm), k)
                for perm in _distinct_permutations(list(judged.values())))
    return _oracle_dcg(gains, k) / ideal


def test_criterion_01_ndcg_matches_enumeration_oracle():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(500):
        n_judged = rng.randint(1, 8)
        judged = {f"d{i}": rng.randint(0, 3) for i in range(n_judged)}
        judged[f"d{rng.randrange(n_judged)}"] = rng.randint(1, 3)
        pool = list(judged) + [f"u{i}" for i in range(rng.randint(0, 8))]
        ranked = rng.sample(pool, rng.randint(1, len(pool)))
        run = Run({"q": [(did, float(len(ranked) - i)) for i, did in enumerate(ranked)]})
        got = ndcg_at_k(run, QrelSet({"q": judged}), k=10).per_query["q"]
        want = _oracle_ndcg(ranked, judged, 10)
        assert abs(got - want) <= 1e-9, (ranked, judged)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"nDCG matches exhaustive-enumeration oracle on 500 instances "
              f"within 1e-9 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 2: interpolation worked example and endpoint identities
# ---------------------------------------------------------------------------

def _restricted(run, qid, universe):
    return [did for did in run.doc_ids(qid) if did in universe]


def _random_run(rng, qid="q", tag="r"):
    docs = rng.sample(range(25), rng.randint(2, 12))
    return Run({qid: [(f"d{d}", rng.uniform(-20, 20)) for d in docs]}, tag=tag)


def test_criterion_02_interpolation_example_and_endpoints():
    a = Run({"q": [("d1", 10.0), ("d2", 5.0), ("d3", 0.0)]})
    b = Run({"q": [("d1", -2.0), ("d2", -1.0), ("d3", -3.0)]})
    fused = dict(interpolate(a, b, alpha=0.2).entries["q"])
    # hand arithmetic: a' = {1, 0.5, 0}, b' = {0.5, 1, 0}
    assert fused["d1"] == 0.2 * 1.0 + 0.8 * 0.5
    assert fused["d2"] == 0.2 * 0.5 + 0.8 * 1.0
    assert fused["d3"] == 0.0
    assert fused["d1"] == pytest.approx(0.6)
    assert fused["d2"] == pytest.approx(0.9)
    assert interpolate(a, b, 0.2).doc_ids("q") == ["d2", "d1", "d3"]

    rng = random.Random(202)
    for _ in range(100):
        x = _random_run(rng)
        y = _random_run(rng)
        at_one = interpolate(x, y, 1.0)
        at_zero = interpolate(x, y, 0.0)
        assert _restricted(at_one, "q", set(x.doc_ids("q"))) == x.doc_ids("q")
        assert _restricted(at_zero, "q", set(y.doc_ids("q"))) == y.doc_ids("q")
    report(2, "fusion worked example exact; alpha 0/1 endpoint identities "
              "hold on 100 random run pairs")


# ---------------------------------------------------------------------------
# Criterion 3: min-max normalization properties, 200 random instances
# ---------------------------------------------------------------------------

def test_criterion_03_minmax_properties():
    rng = random.Random(303)
    for _ in range(200):
        run = _random_run(rng)
        normalized = minmax_normalize(run)
        # order preservation
        assert normalized.doc_ids("q") == run.doc_ids("q")
        # range and endpoints
        values = [s for _, s in normalized.entries["q"]]
        assert all(0.0 <= v <= 1.0 for v in values)
        # affine invariance of fused orderings
        other = _random_run(rng)
        lam, mu = rng.uniform(0.1, 4.0), rng.uniform(-15, 15)
        shifted = Run({"q": [(did, lam * s + mu) for did, s in run.entries["q"]]})
        alpha = rng.random()
        assert interpolate(shifted, other, alpha).doc_ids("q") == \
               interpolate(run, other, alpha).doc_ids("q")
    # degenerate constant run maps to all zeros
    constant = Run({"q": [("d1", 7.0), ("d2", 7.0), ("d3", 7.0)]})
    assert [s for _, s in minmax_normalize(constant).entries["q"]] == [0.0, 0.0, 0.0]
    report(3, "min-max order preservation, affine invariance, and degenerate "
              "all-zero behavior hold on 200 random instances")


# ---------------------------------------------------------------------------
# Criterion 4: uniform-model invariance of the likelihood score
# ---------------------------------------------------------------------------

def test_criterion_04_uniform_model_invariance():
    constant = -1.75

    def uniform_provider(request):
        tokens = tuple(request.continuation.split())
        return LikelihoodResult(tokens=tokens, logprobs=(constant,) * len(tokens))

    docs = {f"d{i}": Document(f"d{i}", "", f"body text number {i}") for i in range(6)}
    template = PromptTemplate(body="Write a question for: {doc}")
    rng = random.Random(404)
    for qtext in ("one", "two words", "a much longer query string here"):
        candidates = [(did, rng.uniform(-5, 5)) for did in docs]
        rng.shuffle(candidates)
        run = rerank(uniform_provider, template, Query("q", qtext), candidates, docs)
        scores = {s for _, s in run.entries["q"]}
        assert scores == {constant}
        assert run.doc_ids("q") == sorted(docs)
    report(4, "constant-logprob provider scores every pair identically and "
              "rerank degenerates to doc-id tie-break order")


# ---------------------------------------------------------------------------
# Criterion 5: bigram provider vs chain-rule counting oracle, 50 corpora
# ---------------------------------------------------------------------------

_WORDS = re.compile(r"[a-z0-9]+")


def _oracle_bigram_order(doc_texts_by_id, query_text, prompt_prefix):
    """Chain-rule scoring from raw counts, independent of BigramLm.

    Counts: every token occurrence is a bigram context; the successor of a
    text-final token is a shared UNK. P(v|w) = (c(w,v)+1)/(c(w)+V+1).
    """
    unigrams, bigrams = {}, {}
    for text in doc_texts_by_id.values():
        tokens = _WORDS.findall(text.lower())
        for tok in tokens:
            unigrams[tok] = unigrams.get(tok, 0) + 1
        chain = tokens + ["\x00UNK"]
        for prev, cur in zip(chain, chain[1:]):
            bigrams[(prev, cur)] = bigrams.get((prev, cur), 0) + 1
    vocab = set(unigrams)
    v_size = len(vocab)

    def prob(cur, prev):
        prev = prev if prev in vocab else "\x00UNK"
        cur = cur if cur in vocab else "\x00UNK"
        ctx = unigrams.get(prev, 0) if prev != "\x00UNK" else 0
        return (bigrams.get((prev, cur), 0) + 1) / (ctx + v_size + 1)

    scores = {}
    qtokens = _WORDS.findall(query_text.lower())
    for did, text in doc_texts_by_id.items():
        context = prompt_prefix + text
        ctx_tokens = _WORDS.findall(context.lower())
        prev = ctx_tokens[-1]
        total = 0.0
        for tok in qtokens:
            total += math.log(prob(tok, prev))
            prev = tok
        scores[did] = total / len(qtokens)
    return sorted(scores, key=lambda did: (-scores[did], did))


def test_criterion_05_bigram_rerank_matches_counting_oracle():
    rng = random.Random(505)
    start = time.monotonic()
    prompt_prefix = "Write a question about this document: "
    template = PromptTemplate(body=prompt_prefix + "{doc}")
    for _ in range(50):
        vocab = [f"w{i}" for i in range(rng.randint(3, 20))]
        n_docs = rng.randint(2, 10)
        docs = {
            f"d{i}": Document(f"d{i}", "", " ".join(rng.choices(vocab, k=rng.randint(2, 15))))
            for i in range(n_docs)
        }
        query_text = " ".join(rng.choices(vocab + ["oov"], k=rng.randint(1, 4)))
        lm = BigramLm.train([d.body for d in docs.values()])
        run = rerank(lm, template, Query("q", query_text),
                     [(did, 0.0) for did in docs], docs)
        oracle = _oracle_bigram_order({did: d.body for did, d in docs.items()},
                                      query_text, prompt_prefix)
        assert run.doc_ids("q") == oracle
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(5, f"bigram rerank ordering equals the chain-rule counting oracle "
              f"on 50 random corpora ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 6: BM25/Dirichlet hand values and search-vs-exhaustive equality
# ---------------------------------------------------------------------------

def test_criterion_06_lexical_hand_values_and_search_equivalence(c3_index):
    # derived from the stated formulas:
    #   bm25      = ln(8/3) * 2/(2 + 0.9*(0.6 + 0.4*1.125)) = 0.6660979646938718
    #   dirichlet = ln((2 + 10*2/8) / (3 + 10))              = -1.0608719606852628
    bm25 = bm25_score(c3_index, Bm25Params(), ["a"], "d1")
    assert abs(bm25 - 0.6660979646938718) <= 1e-5
    assert abs(bm25 - 0.66611) <= 2e-5  # the commonly quoted rounding
    dirichlet = dirichlet_qlm_score(c3_index, DirichletParams(mu=10), ["a"], "d1")
    assert abs(dirichlet - (-1.0608719606852628)) <= 1e-5
    assert abs(dirichlet - (-1.06087)) <= 1e-5

    # search equals exhaustive per-document scoring on corpora up to 50 docs
    rng = random.Random(606)
    for _ in range(20):
        vocab = [f"w{i}" for i in range(12)]
        docs = [Document(f"d{i:02d}", "", " ".join(rng.choices(vocab, k=rng.randint(1, 25))))
                for i in range(rng.randint(2, 50))]
        index = build_index(docs)
        query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
        qterms = index.analyzer.tokenize(query)

        params = Bm25Params()
        exhaustive = sorted(
            [(d.id, bm25_score(index, params, qterms, d.id)) for d in docs],
            key=lambda p: (-p[1], p[0]))
        exhaustive = [(did, s) for did, s in exhaustive if s > 0]
        assert bm25_search(index, params, query, k=len(docs)) == exhaustive

        dparams = DirichletParams(mu=rng.choice([10.0, 1000.0]))
        exhaustive_d = sorted(
            [(d.id, dirichlet_qlm_score(index, dparams, qterms, d.id)) for d in docs],
            key=lambda p: (-p[1], p[0]))
        assert dirichlet_search(index, dparams, query, k=len(docs)) == exhaustive_d
    report(6, "BM25 0.666098 / Dirichlet -1.060872 hand values within 1e-5; "
              "search equals exhaustive scoring on corpora up to 50 docs")


# ---------------------------------------------------------------------------
# Criterion 7: paired t-test worked example, degenerate case, antisymmetry
# ---------------------------------------------------------------------------

def test_criterion_07_ttest_against_reference_oracle():
    a = {"q1": 0.5, "q2": 0.6, "q3": 0.7}
    b = {"q1": 0.4, "q2": 0.6, "q3": 0.65}
    result = paired_ttest(a, b)
    assert abs(result.t_statistic - 1.73205) <= 1e-4
    assert abs(result.p_value - 0.22540) <= 1e-4
    ref = scipy_stats.ttest_rel([0.5, 0.6, 0.7], [0.4, 0.6, 0.65])
    assert abs(result.t_statistic - ref.statistic) <= 1e-4
    assert abs(result.p_value - ref.pvalue) <= 1e-4

    identical = paired_ttest(a, dict(a))
    assert identical.p_value == 1.0 and identical.t_statistic == 0.0

    rng = random.Random(707)
    for _ in range(100):
        n = rng.randint(2, 12)
        keys = [f"q{i}" for i in range(n)]
        x = {k: rng.random() for k in keys}
        y = {k: rng.random() for k in keys}
        fwd, rev = paired_ttest(x, y), paired_ttest(y, x)
        assert abs(fwd.t_statistic + rev.t_statistic) <= 1e-12
        assert abs(fwd.p_value - rev.p_value) <= 1e-12
    report(7, "t-test worked example within 1e-4 of the reference oracle; "
              "identical inputs give p=1; antisymmetry holds on 100 pairs")


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end determinism and pipeline/manual equivalence
# ---------------------------------------------------------------------------

def _write_toy_dataset(root, rng):
    vocab = [f"term{i}" for i in range(40)]
    corpus_path = root / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as f:
        for i in range(100):
            body = " ".join(rng.choices(vocab, k=rng.randint(5, 30)))
            title = " ".join(rng.choices(vocab, k=2)) if rng.random() < 0.5 else ""
            f.write(json.dumps({"_id": f"d{i:03d}", "title": title, "text": body}) + "\n")
    queries_path = root / "queries.jsonl"
    with open(queries_path, "w", encoding="utf-8") as f:
        for i in range(10):
            text = " ".join(rng.choices(vocab, k=rng.randint(2, 4)))
            f.write(json.dumps({"_id": f"q{i}", "text": text}) + "\n")
    qrels_path = root / "qrels.tsv"
    with open(qrels_path, "w", encoding="utf-8") as f:
        for i in range(10):
            judged = rng.sample(range(100), 5)
            f.write(f"q{i}\td{judged[0]:03d}\t2\n")
            for d in judged[1:]:
                f.write(f"q{i}\td{d:03d}\t{rng.randint(0, 2)}\n")
    return str(corpus_path), str(queries_path), str(qrels_path)


PIPELINE_FILES = ["first_stage.trec", "reranked.trec", "fused.trec",
                  "eval.tsv", "significance.txt", "provider_stats.json",
                  "index.json"]


def _run_pipeline_into(outdir, corpus, queries, qrels, config_dir, hashseed=None):
    config_path = os.path.join(config_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump({
            "corpus": corpus, "queries": queries, "qrels": qrels,
            "output_dir": str(outdir), "model_family": "llama",
            "dataset": "trecc", "depth": 20, "provider": "bigram",
            "rerank_alpha": 0.2, "eval_k": 10,
        }, f)
    if hashseed is None:
        assert cli_main(["pipeline", "--config", config_path]) == 0
    else:
        # separate interpreter with its own hash seed: catches any output
        # that leaks set/dict hash ordering
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        proc = subprocess.run(
            [sys.executable, "-m", "qlmrank.cli", "pipeline", "--config", config_path],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def _run_manual_into(outdir, corpus, queries, qrels):
    os.makedirs(outdir, exist_ok=True)
    j = lambda name: os.path.join(str(outdir), name)
    assert cli_main(["index", "--corpus", corpus, "--out", j("index.json")]) == 0
    assert cli_main(["search", "--index", j("index.json"), "--queries", queries,
                     "--out", j("first_stage.trec"), "--k", "20"]) == 0
    assert cli_main(["rerank", "--run", j("first_stage.trec"), "--corpus", corpus,
                     "--queries", queries, "--out", j("reranked.trec"),
                     "--provider", "bigram", "--model-family", "llama",
                     "--dataset", "trecc", "--depth", "20",
                     "--stats-out", j("provider_stats.json")]) == 0
    assert cli_main(["fuse", "--run-a", j("first_stage.trec"),
                     "--run-b", j("reranked.trec"), "--alpha", "0.2",
                     "--out", j("fused.trec")]) == 0
    assert cli_main(["eval", "--run", j("fused.trec"), "--qrels", qrels,
                     "--k", "10", "--out", j("eval.tsv")]) == 0
    assert cli_main(["sigtest", j("first_stage.trec"), j("reranked.trec"),
                     j("fused.trec"), "--qrels", qrels, "--k", "10",
                     "--out", j("significance.txt")]) == 0


def test_criterion_08_end_to_end_determinism(tmp_path, capsys):
    start = time.monotonic()
    corpus, queries, qrels = _write_toy_dataset(tmp_path, random.Random(808))

    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    manual = tmp_path / "manual"
    _run_pipeline_into(run_a, corpus, queries, qrels, str(tmp_path))
    _run_pipeline_into(run_b, corpus, queries, qrels, str(tmp_path), hashseed=12345)
    _run_manual_into(manual, corpus, queries, qrels)

    for name in PIPELINE_FILES:
        assert filecmp.cmp(run_a / name, run_b / name, shallow=False), \
            f"{name} differs between two pipeline runs"
        assert filecmp.cmp(run_a / name, manual / name, shallow=False), \
            f"{name} differs between pipeline and manual stages"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(8, f"toy pipeline is byte-identical across reruns and equals the "
              f"manual stage sequence on all {len(PIPELINE_FILES)} artifacts "
              f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# Criterion 9: wire-protocol conformance against the stub server
# ---------------------------------------------------------------------------

def test_criterion_09_wire_protocol(stub_server, caplog, no_backoff):
    request = LikelihoodRequest(context="ctx", continuation=" q")

    # success path decodes tokens and logprobs
    StubHandler.script = [(200, {"tokens": ["q"], "logprobs": [-0.5]})]
    provider = RemoteProvider(stub_server)
    assert provider(request).logprobs == (-0.5,)

    # token/logprob length mismatch is a protocol error
    StubHandler.script = [(200, {"tokens": ["a", "b"], "logprobs": [-1.0]})]
    with pytest.raises(ProtocolError):
        provider(request)

    # -inf logprobs are floored to -100 with a warning
    StubHandler.script = [(200, {"tokens": ["a"], "logprobs": [-1e999]})]
    with caplog.at_level("WARNING"):
        assert provider(request).logprobs == (-100.0,)
    assert "floored" in caplog.text

    # transient failure then success: retried within the attempt budget
    StubHandler.requests_seen = []
    StubHandler.script = [(503, {}), (200, {"tokens": ["a"], "logprobs": [-1.0]})]
    assert provider(request).logprobs == (-1.0,)
    assert len(StubHandler.requests_seen) == 2

    # attempts are capped: three 503s exhaust the 3 attempts
    StubHandler.requests_seen = []
    StubHandler.script = [(503, {}), (503, {}), (503, {})]
    with pytest.raises(TransportError):
        provider(request)
    assert len(StubHandler.requests_seen) == 3
    report(9, "client decodes success payloads, rejects malformed ones, floors "
              "-inf to -100, and retries transient failures within budget")


# ---------------------------------------------------------------------------
# Criterion 10: alpha sweep endpoints agree with single-run evaluations
# ---------------------------------------------------------------------------

def test_criterion_10_alpha_sweep_shape(tmp_path):
    rng = random.Random(1010)
    corpus, queries, qrels_path = _write_toy_dataset(tmp_path, rng)

    outdir = tmp_path / "sweepdir"
    _run_pipeline_into(outdir, corpus, queries, qrels_path, str(tmp_path))
    first_stage = read_run(str(outdir / "first_stage.trec"))
    reranked = read_run(str(outdir / "reranked.trec"))

    from qlmrank.corpus import load_qrels
    qrels = load_qrels(qrels_path)
    alphas = [round(0.1 * i, 1) for i in range(11)]
    rows = sweep_alpha(first_stage, reranked, alphas, qrels, k=10)
    assert [alpha for alpha, _ in rows] == alphas

    # endpoints equal direct evaluation of the normalized single runs over
    # the union universe (missing documents at normalized score 0)
    def extend_over_union(run, other):
        entries = {}
        normalized = minmax_normalize(run)
        for qid in set(run.query_ids()) | set(other.query_ids()):
            pairs = dict(normalized.entries.get(qid, []))
            for did in other.doc_ids(qid):
                pairs.setdefault(did, 0.0)
            entries[qid] = list(pairs.items())
        return Run(entries, tag=run.tag)

    at_zero = ndcg_at_k(extend_over_union(reranked, first_stage), qrels, k=10).mean
    at_one = ndcg_at_k(extend_over_union(first_stage, reranked), qrels, k=10).mean
    assert rows[0][1] == pytest.approx(at_zero, abs=1e-12)
    assert rows[-1][1] == pytest.approx(at_one, abs=1e-12)
    report(10, "alpha sweep emits one row per alpha and its 0/1 endpoints "
               "equal the single-run evaluations over the union universe")
