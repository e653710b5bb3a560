import datagen
import run as bench_run
from qlmrank import corpus, ranking


def _rerank_check(tmp_path, edit):
    """Run Oracle.rerank on the top-depth BM25 candidates after edit();
    return the pair count and the failures of the doc-set check."""
    data = datagen.write_dataset(5, 80, 3, str(tmp_path / "data"))
    workload = bench_run.WORKLOADS["rerank-remote"]
    oracle = bench_run.Oracle(data, workload, seed=5)
    first = corpus.Run({q.id: ranking.bm25_search(oracle.index, ranking.Bm25Params(), q.text, 20)
                        for q in oracle.queries})
    corpus.write_run(first, str(tmp_path / "bm25.trec"))
    reranked = {qid: ps[:workload.depth] for qid, ps in first.entries.items()}
    edit(reranked, first.entries)
    corpus.write_run(corpus.Run(reranked), str(tmp_path / "reranked.trec"))
    checks = bench_run.Checks()
    pairs = oracle.rerank(checks, str(tmp_path / "reranked.trec"), str(tmp_path / "bm25.trec"))
    return pairs, [f for f in checks.failures if f.startswith("re-ranked docs")]


def test_rerank_check_passes_the_exact_candidate_set(tmp_path):
    pairs, failures = _rerank_check(tmp_path, lambda reranked, first: None)
    assert pairs == 30
    assert failures == []


def test_rerank_check_fails_each_query_with_a_dropped_or_foreign_doc(tmp_path):
    def edit(reranked, first):
        reranked["q0"] = reranked["q0"][:-1]
        _, score = reranked["q1"][-1]
        reranked["q1"] = reranked["q1"][:-1] + [(first["q1"][15][0], score)]

    pairs, failures = _rerank_check(tmp_path, edit)
    assert pairs == 30
    assert [f.split()[4] for f in failures] == ["q0", "q1"]
