"""nDCG@k evaluation and paired significance testing.

nDCG uses exponential gain (2^rel - 1), a log2(rank + 1) discount, ideal
DCG from the full judged set, and excludes queries without a positive
judgment. trec_eval's ndcg_cut uses the grade itself as the gain, so the
two agree on binary qrels only. The t-test's two-tailed p is the
regularized incomplete beta I_x(df/2, 1/2), summed here by its continued
fraction so the package needs no scipy.
"""

from __future__ import annotations

import math

from .corpus import QrelSet, Run, _Record, _sum_in_order, check_value


class EvalReport(_Record):
    """Per-query metric values plus their arithmetic mean."""

    per_query: dict[str, float]
    mean: float
    k: int
    evaluated_query_count: int

    def __init__(self, per_query: dict[str, float], mean: float, k: int,
                 evaluated_query_count: int) -> None:
        self.per_query = per_query
        self.mean = mean
        self.k = k
        self.evaluated_query_count = evaluated_query_count


class SigResult(_Record):
    """Paired two-tailed Student t-test outcome.

    degenerate marks the zero-variance, nonzero-mean case where t is
    unbounded; p is reported as 0 there.
    """

    t_statistic: float
    p_value: float
    df: int
    degenerate: bool = False

    def __init__(self, t_statistic: float, p_value: float, df: int,
                 degenerate: bool = degenerate) -> None:
        self.t_statistic = t_statistic
        self.p_value = p_value
        self.df = df
        self.degenerate = degenerate


def _dcg(gains: list[int], k: int) -> float:
    return _sum_in_order((2 ** g - 1) / math.log2(i + 1) for i, g in enumerate(gains[:k], 1))


def _ideal_dcgs(qrels: QrelSet, k: int) -> dict[str, float]:
    """The ideal DCG@k of each query with a positively judged document, in
    qrels order: the DCG of all its judged documents ranked by grade. Grades
    so high that it overflows, or no such query, raise ValueError."""
    ideal_of: dict[str, float] = {}
    for qid, judged in qrels.judgments.items():
        ideal = sorted(judged.values(), reverse=True)
        if not ideal or ideal[0] <= 0:
            continue
        idcg = ideal_of[qid] = _dcg(ideal, k)
        if not math.isfinite(idcg):
            raise ValueError(f"query {qid}: ideal DCG@{k} overflows (top grade {ideal[0]})")
    if not ideal_of:
        raise ValueError("no evaluable queries (none has a positive judgment)")
    return ideal_of


def ndcg_at_k(run: Run, qrels: QrelSet, k: int = 10) -> EvalReport:
    """nDCG@k per query and averaged.

    Queries with no positively judged document are excluded. A positively
    judged query missing from the run scores 0. Unjudged retrieved
    documents have gain 0; the ideal ordering ranks all judged documents
    by grade. Grades so high that the ideal DCG overflows raise ValueError.
    """
    check_value("k", k)
    per_query = {qid: _dcg([qrels.judgments[qid].get(did, 0) for did in run.doc_ids(qid)], k)
                 / idcg for qid, idcg in _ideal_dcgs(qrels, k).items()}
    return EvalReport(
        per_query=per_query,
        mean=math.fsum(per_query.values()) / len(per_query),  # statistics.fmean's sum
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
        # the even then the odd coefficient of step m, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


def student_t_two_tailed_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is I_x(df/2, 1/2) at x = df/(df + t^2) (Abramowitz and Stegun
    26.7.1): the continued fraction on x, or past its crossover 1 minus
    I_y(1/2, df/2) at y = t^2/(df + t^2) (Numerical Recipes 6.4). x and y
    are each a quotient of t, neither 1 minus the other, so p keeps its
    precision near t = 0 at any df. A NaN t raises ValueError.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    tt = t * t
    if math.isnan(tt):
        raise ValueError(f"t must be a number, got {t}")
    if math.isinf(tt):
        return 0.0
    a = df / 2.0
    x, y = df / (df + tt), tt / (df + tt)
    if y == 0.0:  # t is 0, or so small that p rounds to 1
        return 1.0
    front = math.exp(math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5)
                     - a * math.log1p(tt / df) + 0.5 * math.log(y))
    if x < (a + 1.0) / (a + 2.5):
        return front * _betacf(a, 0.5, x) / a
    return 1.0 - front * _betacf(0.5, a, y) / 0.5


def paired_ttest(a: dict[str, float], b: dict[str, float]) -> SigResult:
    """Two-tailed paired Student t-test over per-query values.

    Pairs on the intersection of query ids (n >= 2 required). With zero
    variance in the differences: identical means give t=0, p=1; a nonzero
    mean gives p=0 with the degenerate flag set.
    """
    from statistics import fmean, stdev  # imported on use: only significance tests need it

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

# a significance matrix names its rows by these letters, so it compares at most 26 runs
RUN_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class SignificanceMatrix(_Record):
    """Pairwise comparison outcome: which runs significantly beat which.

    beats[name] holds the letters of the runs that `name` outperforms with
    corrected p <= alpha_level; it is a new empty dict if not given.
    """

    names: list[str]
    letters: dict[str, str]
    means: dict[str, float]
    beats: dict[str, set[str]]
    k: int = 10
    alpha_level: float = 0.05
    correction: str = "bonferroni"

    def __init__(self, names: list[str], letters: dict[str, str], means: dict[str, float],
                 beats: dict[str, set[str]] | None = None, k: int = k,
                 alpha_level: float = alpha_level, correction: str = correction) -> None:
        self.names = names
        self.letters = letters
        self.means = means
        self.beats = {} if beats is None else beats
        self.k = k
        self.alpha_level = alpha_level
        self.correction = correction

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
    if len(runs) > len(RUN_LETTERS):
        raise ValueError(f"at most {len(RUN_LETTERS)} runs supported")
    names = [name for name, _ in runs]
    if len(set(names)) != len(names):
        raise ValueError("run names must be unique")
    check_value("alpha_level", alpha_level)

    reports = {name: ndcg_at_k(run, qrels, k=k) for name, run in runs}
    letters = {name: RUN_LETTERS[i] for i, name in enumerate(names)}
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
