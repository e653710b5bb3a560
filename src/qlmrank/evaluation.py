"""nDCG@k evaluation and paired significance testing.

nDCG follows the trec_eval convention: exponential gain (2^rel - 1),
log2(rank + 1) discount, ideal DCG from the full judged set, queries
without a positive judgment excluded. The t-test tail probability is
computed from a regularized incomplete beta evaluation so the package
stays dependency-free here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import QrelSet, Run


@dataclass
class EvalReport:
    """Per-query metric values plus their arithmetic mean."""

    per_query: dict[str, float]
    mean: float
    k: int
    evaluated_query_count: int


@dataclass
class SigResult:
    """Paired two-tailed Student t-test outcome.

    degenerate marks the zero-variance, nonzero-mean case where t is
    unbounded; p is reported as 0 there.
    """

    t_statistic: float
    p_value: float
    df: int
    degenerate: bool = False


def _dcg(gains: list[int], k: int) -> float:
    return sum((2 ** g - 1) / math.log2(i + 1) for i, g in enumerate(gains[:k], 1))


def ndcg_at_k(run: Run, qrels: QrelSet, k: int = 10) -> EvalReport:
    """nDCG@k per query and averaged.

    Queries with no positively judged document are excluded. A positively
    judged query missing from the run scores 0. Unjudged retrieved
    documents have gain 0; the ideal ordering ranks all judged documents
    by grade.
    """
    from statistics import fmean  # imported on use: verbs that never evaluate skip it

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_query: dict[str, float] = {}
    for qid, judged in qrels.judgments.items():
        ideal = sorted(judged.values(), reverse=True)
        if not ideal or ideal[0] <= 0:
            continue
        gains = [judged.get(did, 0) for did in run.doc_ids(qid)]
        idcg = _dcg(ideal, k)
        per_query[qid] = _dcg(gains, k) / idcg
    if not per_query:
        raise ValueError("no evaluable queries (none has a positive judgment)")
    return EvalReport(
        per_query=per_query,
        mean=fmean(per_query.values()),
        k=k,
        evaluated_query_count=len(per_query),
    )


def format_report(report: EvalReport) -> str:
    """Per-query TSV rows followed by a '#'-prefixed summary block."""
    lines = [f"{qid}\t{value:.6f}" for qid, value in sorted(report.per_query.items())]
    lines.append(f"# queries\t{report.evaluated_query_count}")
    lines.append(f"# mean_ndcg@{report.k}\t{report.mean:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Student t tail via the regularized incomplete beta function
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 1e-15
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return betainc_regularized(df / 2.0, 0.5, df / (df + t * t))


def paired_ttest(a: dict[str, float], b: dict[str, float]) -> SigResult:
    """Two-tailed paired Student t-test over per-query values.

    Pairs on the intersection of query ids (n >= 2 required). With zero
    variance in the differences: identical means give t=0, p=1; a nonzero
    mean gives p=0 with the degenerate flag set.
    """
    from statistics import fmean, stdev

    shared = sorted(a.keys() & b.keys())
    if len(shared) < 2:
        raise ValueError(f"need at least 2 shared queries, got {len(shared)}")
    diffs = [a[q] - b[q] for q in shared]
    n = len(diffs)
    mean_d = fmean(diffs)
    sd = stdev(diffs)
    if sd == 0.0:
        if mean_d == 0.0:
            return SigResult(t_statistic=0.0, p_value=1.0, df=n - 1)
        t = math.copysign(math.inf, mean_d)
        return SigResult(t_statistic=t, p_value=0.0, df=n - 1, degenerate=True)
    t = mean_d / (sd / math.sqrt(n))
    p = student_t_two_tailed_p(t, n - 1)
    return SigResult(t_statistic=t, p_value=p, df=n - 1)


# ---------------------------------------------------------------------------
# Significance matrix
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class SignificanceMatrix:
    """Pairwise comparison outcome: which runs significantly beat which.

    beats[name] holds the letters of the runs that `name` outperforms with
    corrected p <= alpha_level.
    """

    names: list[str]
    letters: dict[str, str]
    means: dict[str, float]
    beats: dict[str, set[str]] = field(default_factory=dict)
    k: int = 10
    alpha_level: float = 0.05
    correction: str = "bonferroni"

    def render(self) -> str:
        width = max(len(n) for n in self.names)
        lines = [
            f"# nDCG@{self.k}, paired two-tailed t-test, "
            f"correction={self.correction}, p <= {self.alpha_level:g}"
        ]
        for name in self.names:
            marks = "".join(sorted(self.beats.get(name, ())))
            sup = f"^{{{marks}}}" if marks else ""
            lines.append(
                f"{self.letters[name]}  {name:<{width}}  {self.means[name]:.4f}{sup}"
            )
        return "\n".join(lines) + "\n"


def significance_matrix(
    runs: list[tuple[str, Run]],
    qrels: QrelSet,
    k: int = 10,
    alpha_level: float = 0.05,
    correction: str = "bonferroni",
) -> SignificanceMatrix:
    """Pairwise paired t-tests between named runs over shared qrels.

    A run x is marked over y when its mean nDCG@k is higher and the
    corrected p-value is at or below alpha_level. Bonferroni multiplies
    each raw p by the number of comparisons in its row (len(runs) - 1).
    """
    if len(runs) < 2:
        raise ValueError("need at least 2 runs to compare")
    if correction not in ("none", "bonferroni"):
        raise ValueError(f"unknown correction {correction!r}")
    if len(runs) > len(_LETTERS):
        raise ValueError(f"at most {len(_LETTERS)} runs supported")
    names = [name for name, _ in runs]
    if len(set(names)) != len(names):
        raise ValueError("run names must be unique")

    reports = {name: ndcg_at_k(run, qrels, k=k) for name, run in runs}
    letters = {name: _LETTERS[i] for i, name in enumerate(names)}
    comparisons_per_row = len(runs) - 1

    beats: dict[str, set[str]] = {name: set() for name in names}
    for x in names:
        for y in names:
            if x == y:
                continue
            result = paired_ttest(reports[x].per_query, reports[y].per_query)
            corrected = result.p_value
            if correction == "bonferroni":
                corrected = min(1.0, corrected * comparisons_per_row)
            if reports[x].mean > reports[y].mean and corrected <= alpha_level:
                beats[x].add(letters[y])

    return SignificanceMatrix(
        names=names,
        letters=letters,
        means={name: reports[name].mean for name in names},
        beats=beats,
        k=k,
        alpha_level=alpha_level,
        correction=correction,
    )
