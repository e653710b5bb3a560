"""Min-max score normalization and linear interpolation of runs.

Normalization is per query: scores from different queries are never
comparable. Interpolation works over the union of both runs' documents,
with missing documents taking normalized score 0, which lets a shallow
re-ranked run fuse with a deeper first-stage run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .corpus import QrelSet, Run, check_value

RERANK_ALPHA = 0.2  # default weight on the first-stage score when fusing with a re-ranker
HYBRID_ALPHA = 0.5  # default weight when fusing two first-stage runs


def _minmax(pairs: list[tuple[str, float]]) -> dict[str, float]:
    scores = [s for _, s in pairs]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        # any constant preserves Eq-style weighted sums; 0 keeps the run inert
        return {did: 0.0 for did, _ in pairs}
    if math.isinf(hi - lo):
        # finite scores whose range overflows a float: halving is exact and fits it
        lo, hi, pairs = lo / 2, hi / 2, [(did, s / 2) for did, s in pairs]
    return {did: (s - lo) / (hi - lo) for did, s in pairs}


def minmax_normalize(run: Run) -> Run:
    """Rescale every query's scores to [0, 1]; a constant list maps to all
    zeros. Scores never increase down a ranking, but rounding can tie
    scores that differed, and ties re-sort by doc id."""
    entries = {
        qid: list(_minmax(pairs).items())
        for qid, pairs in run.entries.items()
    }
    return Run(entries, tag=run.tag)


def _union(run_a: Run, run_b: Run,
           qids: Iterable[str]) -> dict[str, list[tuple[str, float, float]]]:
    """Per query id of qids, (doc, a, b) for every document of either run's
    list, in doc-id order, where a and b are its min-max normalized scores in
    run_a and run_b, 0 where that run lacks it."""
    union = {}
    for qid in qids:
        norm_a = _minmax(run_a.entries[qid]) if run_a.entries.get(qid) else {}
        norm_b = _minmax(run_b.entries[qid]) if run_b.entries.get(qid) else {}
        union[qid] = [(did, norm_a.get(did, 0.0), norm_b.get(did, 0.0))
                      for did in sorted(norm_a.keys() | norm_b.keys())]
    return union


def _fused(union: dict[str, list[tuple[str, float, float]]],
           alpha: float) -> dict[str, list[tuple[str, float]]]:
    """Per query, (doc, alpha * a + (1 - alpha) * b) for each (doc, a, b) of a _union."""
    return {qid: [(did, alpha * a + (1.0 - alpha) * b) for did, a, b in triples]
            for qid, triples in union.items()}


def interpolate(run_a: Run, run_b: Run, alpha: float, tag: str | None = None) -> Run:
    """Weighted sum alpha * a + (1 - alpha) * b of min-max normalized scores.

    Per query, the document universe is the union of both runs' documents;
    documents missing from one run contribute normalized score 0 there.
    """
    check_value("alpha", alpha)
    entries = _fused(_union(run_a, run_b, {**run_a.entries, **run_b.entries}), alpha)
    return Run(entries, tag=f"fuse-{alpha:g}({run_a.tag},{run_b.tag})" if tag is None else tag)


def sweep_alpha(run_a: Run, run_b: Run, alphas: list[float], qrels: QrelSet,
                k: int = 10) -> list[tuple[float, float]]:
    """Mean nDCG@k of interpolate(run_a, run_b, alpha) for every alpha.

    One table, built once, serves every alpha. It holds each query that
    ndcg_at_k evaluates, in qrels order, with its ideal DCG and the documents
    of its _union in doc-id order: each one's normalized score in run_a and
    in run_b and its grade. Per alpha, each query's fused scores, summed as
    interpolate sums them, are ranked by a stable descending sort, which
    breaks ties by ascending doc id as Run does, and the DCG of the top k
    over the ideal DCG is the query's nDCG. The mean is ndcg_at_k's, so
    every row, and every error, is that of ndcg_at_k(interpolate(...)).
    Returns (alpha, mean nDCG) rows, plot-ready; write with format_sweep.
    """
    from .evaluation import _dcg, _ideal_dcgs

    check_value("k", k)
    check_value("alphas", alphas)
    if not alphas:  # nothing is evaluated, so nothing can fail to be
        return []
    ideal_of = _ideal_dcgs(qrels, k)
    # per query: its ideal DCG, its (doc, a, b) in doc-id order, and each doc's grade
    table = [(ideal_of[qid], docs, [qrels.judgments[qid].get(did, 0) for did, _, _ in docs])
             for qid, docs in _union(run_a, run_b, ideal_of).items()]
    rows = []
    for alpha in alphas:
        beta = 1.0 - alpha  # the float _fused multiplies b by
        values = []
        for idcg, docs, grades in table:
            fused = [alpha * a + beta * b for _, a, b in docs]
            top = sorted(range(len(fused)), key=fused.__getitem__, reverse=True)[:k]
            values.append(_dcg([grades[i] for i in top], k) / idcg)
        rows.append((alpha, math.fsum(values) / len(values)))  # ndcg_at_k's mean
    return rows


def format_sweep(rows: list[tuple[float, float]]) -> str:
    """Two-column TSV: alpha <TAB> ndcg."""
    lines = ["alpha\tndcg"]
    lines += [f"{alpha:g}\t{ndcg:.6f}" for alpha, ndcg in rows]
    return "\n".join(lines) + "\n"
