"""Min-max score normalization and linear interpolation of runs.

Normalization is per query: scores from different queries are never
comparable. Interpolation works over the union of both runs' documents,
with missing documents taking normalized score 0, which lets a shallow
re-ranked run fuse with a deeper first-stage run.
"""

from __future__ import annotations

import math

from .corpus import QrelSet, Run, _top_k

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
        if pairs
    }
    return Run(entries, tag=run.tag)


def _union(run_a: Run, run_b: Run) -> dict[str, list[tuple[str, float, float]]]:
    """Per query of either run, (doc, a, b) for every document of either
    run's list, where a and b are its min-max normalized scores in run_a and
    run_b, 0 where that run lacks it."""
    union = {}
    for qid in {**run_a.entries, **run_b.entries}:
        norm_a = _minmax(run_a.entries[qid]) if run_a.entries.get(qid) else {}
        norm_b = _minmax(run_b.entries[qid]) if run_b.entries.get(qid) else {}
        union[qid] = [(did, norm_a.get(did, 0.0), norm_b.get(did, 0.0))
                      for did in norm_a.keys() | norm_b.keys()]
    return union


def _fused(union: dict[str, list[tuple[str, float, float]]],
           alpha: float) -> dict[str, list[tuple[str, float]]]:
    """Per query, (doc, alpha * a + (1 - alpha) * b) for each (doc, a, b) of a _union."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return {qid: [(did, alpha * a + (1.0 - alpha) * b) for did, a, b in triples]
            for qid, triples in union.items()}


def interpolate(run_a: Run, run_b: Run, alpha: float, tag: str | None = None) -> Run:
    """Weighted sum alpha * a + (1 - alpha) * b of min-max normalized scores.

    Per query, the document universe is the union of both runs' documents;
    documents missing from one run contribute normalized score 0 there.
    """
    entries = _fused(_union(run_a, run_b), alpha)
    return Run(entries, tag=f"fuse-{alpha:g}({run_a.tag},{run_b.tag})" if tag is None else tag)


def truncate(run: Run, k: int) -> Run:
    """Keep each query's top k entries."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Run({qid: pairs[:k] for qid, pairs in run.entries.items()}, tag=run.tag)


def sweep_alpha(run_a: Run, run_b: Run, alphas: list[float], qrels: QrelSet,
                k: int = 10) -> list[tuple[float, float]]:
    """Mean nDCG@k of interpolate(run_a, run_b, alpha) for every alpha.

    Both runs are normalized once. For each alpha only each query's top k
    fused pairs, in the run order, are ranked and evaluated: nDCG@k reads
    nothing below rank k, and _top_k keeps exactly the first k of the
    order interpolate's Run sorts into, so every mean is the same float.
    Returns (alpha, mean nDCG) rows, plot-ready; write with format_sweep.
    """
    from .evaluation import ndcg_at_k

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    union = _union(run_a, run_b)
    rows = []
    for alpha in alphas:
        top = Run({qid: _top_k(pairs, k) for qid, pairs in _fused(union, alpha).items()})
        rows.append((alpha, ndcg_at_k(top, qrels, k=k).mean))
    return rows


def format_sweep(rows: list[tuple[float, float]]) -> str:
    """Two-column TSV: alpha <TAB> ndcg."""
    lines = ["alpha\tndcg"]
    lines += [f"{alpha:g}\t{ndcg:.6f}" for alpha, ndcg in rows]
    return "\n".join(lines) + "\n"
