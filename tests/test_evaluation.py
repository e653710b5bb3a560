import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from qlmrank import evaluation
from qlmrank.corpus import QrelSet, Run
from qlmrank.evaluation import (
    format_report,
    ndcg_at_k,
    paired_ttest,
    significance_matrix,
    student_t_two_tailed_p,
)


# ---------------------------------------------------------------------------
# Brute-force nDCG oracle: DCG from first principles, ideal DCG by
# exhaustively enumerating every ordering of the judged documents.
# ---------------------------------------------------------------------------

def oracle_dcg(grades, k):
    return sum((2 ** g - 1) / math.log2(i + 1) for i, g in enumerate(grades[:k], 1))


def oracle_ndcg(ranked_doc_ids, judged, k):
    gains = [judged.get(did, 0) for did in ranked_doc_ids]
    best = max(
        oracle_dcg([judged[did] for did in perm], k)
        for perm in itertools.permutations(judged)
    )
    return oracle_dcg(gains, k) / best


def random_instance(rng, max_judged=8):
    """One query's (ranking, judgments) with <= max_judged judged docs."""
    n_judged = rng.randint(1, max_judged)
    judged_ids = [f"d{i}" for i in range(n_judged)]
    judged = {did: rng.randint(0, 3) for did in judged_ids}
    judged[rng.choice(judged_ids)] = rng.randint(1, 3)  # ensure evaluable
    pool = judged_ids + [f"u{i}" for i in range(rng.randint(0, 6))]
    ranked = rng.sample(pool, rng.randint(1, len(pool)))
    return ranked, judged


class TestNdcg:
    def test_single_relevant_at_rank_one(self):
        qrels = QrelSet({"q": {"dA": 1}})
        run = Run({"q": [("dA", 1.0)]})
        assert ndcg_at_k(run, qrels).per_query["q"] == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        qrels = QrelSet({"q": {"dA": 1}})
        run = Run({"q": [("dB", 2.0), ("dA", 1.0)]})
        assert ndcg_at_k(run, qrels).per_query["q"] == pytest.approx(
            1 / math.log2(3), abs=1e-9)

    def test_graded_worked_example(self):
        # run (dB, dA), grades dA:2 dB:1 -> DCG = 1 + 3/log2(3), IDCG = 3 + 1/log2(3)
        qrels = QrelSet({"q": {"dA": 2, "dB": 1}})
        run = Run({"q": [("dB", 2.0), ("dA", 1.0)]})
        expected = (1 + 3 / math.log2(3)) / (3 + 1 / math.log2(3))
        report = ndcg_at_k(run, qrels)
        assert report.per_query["q"] == pytest.approx(expected, abs=1e-12)
        assert report.per_query["q"] == pytest.approx(
            oracle_ndcg(["dB", "dA"], {"dA": 2, "dB": 1}, 10), abs=1e-12)

    def test_queries_without_positive_judgment_excluded(self):
        qrels = QrelSet({"q1": {"dA": 1}, "q2": {"dB": 0}})
        run = Run({"q1": [("dA", 1.0)], "q2": [("dB", 1.0)]})
        report = ndcg_at_k(run, qrels)
        assert set(report.per_query) == {"q1"}
        assert report.evaluated_query_count == 1

    def test_positive_query_missing_from_run_scores_zero(self):
        qrels = QrelSet({"q1": {"dA": 1}, "q2": {"dB": 2}})
        run = Run({"q1": [("dA", 1.0)]})
        report = ndcg_at_k(run, qrels)
        assert report.per_query["q2"] == 0.0

    def test_no_evaluable_queries_rejected(self):
        qrels = QrelSet({"q": {"dA": 0}})
        run = Run({"q": [("dA", 1.0)]})
        with pytest.raises(ValueError):
            ndcg_at_k(run, qrels)

    def test_dcg_adds_left_to_right(self):
        # on every Python: a compensated sum, such as sum() from 3.12 on, gives
        # 9.823465818787765
        assert evaluation._dcg([3, 2, 1, 1], 10) == 9.823465818787767

    def test_ideal_dcg_overflow_names_the_query(self):
        # 1023 is the highest grade QrelSet takes, and one gain of 2 ** 1023 - 1 is a
        # finite float; three sum past the largest one
        run = Run({"q1": [("dA", 2.0), ("dB", 1.0)], "q2": [("dA", 1.0)]})
        assert ndcg_at_k(run, QrelSet({"q1": {"dA": 1023, "dB": 1}})).mean == 1.0
        qrels = QrelSet({"q1": {"dA": 1}, "q2": {d: 1023 for d in ("dA", "dB", "dC")}})
        with pytest.raises(ValueError,
                           match=r"^query q2: ideal DCG@10 overflows \(top grade 1023\)$"):
            ndcg_at_k(run, qrels)

    def test_perfect_ranking_scores_one(self):
        rng = random.Random(31)
        for _ in range(25):
            _, judged = random_instance(rng)
            ordered = sorted(judged, key=lambda did: (-judged[did], did))
            run = Run({"q": [(did, float(len(ordered) - i)) for i, did in enumerate(ordered)]})
            report = ndcg_at_k(run, QrelSet({"q": judged}), k=10)
            assert report.per_query["q"] == pytest.approx(1.0, abs=1e-12)

    def test_tail_permutation_beyond_k_is_irrelevant(self):
        qrels = QrelSet({"q": {"d0": 2, "d1": 1}})
        head = [(f"d{i}", 100.0 - i) for i in range(2)]
        tail = [f"u{i}" for i in range(5)]
        rng = random.Random(33)
        values = set()
        for _ in range(10):
            rng.shuffle(tail)
            pairs = head + [(did, 50.0 - i) for i, did in enumerate(tail)]
            values.add(ndcg_at_k(Run({"q": pairs}), qrels, k=2).per_query["q"])
        assert len(values) == 1

    def test_matches_enumeration_oracle_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(100):
            ranked, judged = random_instance(rng, max_judged=6)
            scores = [(did, float(len(ranked) - i)) for i, did in enumerate(ranked)]
            report = ndcg_at_k(Run({"q": scores}), QrelSet({"q": judged}), k=10)
            assert report.per_query["q"] == pytest.approx(
                oracle_ndcg(ranked, judged, 10), abs=1e-9)

    def test_mean_is_arithmetic_mean(self):
        qrels = QrelSet({"q1": {"dA": 1}, "q2": {"dB": 1}})
        run = Run({"q1": [("dA", 1.0)], "q2": [("dX", 2.0), ("dB", 1.0)]})
        report = ndcg_at_k(run, qrels)
        assert report.mean == pytest.approx(
            sum(report.per_query.values()) / len(report.per_query))

    def test_report_format(self):
        qrels = QrelSet({"q1": {"dA": 1}})
        run = Run({"q1": [("dA", 1.0)]})
        text = format_report(ndcg_at_k(run, qrels))
        assert "q1\t1.000000" in text
        assert "# mean_ndcg@10\t1.000000" in text


# ---------------------------------------------------------------------------
# Student t machinery
# ---------------------------------------------------------------------------

class TestStudentT:
    def test_tail_against_scipy(self):
        # df as large as BEIR's biggest test sets; t near 0 is where 1 - x would round
        rng = random.Random(43)
        for _ in range(2000):
            t = rng.uniform(-8, 8) if rng.random() < 0.5 else rng.uniform(-1e-3, 1e-3)
            df = rng.randint(1, 7000)
            mine = student_t_two_tailed_p(t, df)
            ref = 2 * scipy_stats.t.sf(abs(t), df)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_t_zero_gives_p_one(self):
        for df in (1, 2, 10, 100):
            assert student_t_two_tailed_p(0.0, df) == 1.0

    def test_edges(self):
        assert student_t_two_tailed_p(1e-170, 7000) == 1.0  # t * t underflows
        assert student_t_two_tailed_p(1e-160, 7000) == 1.0  # t^2/(df + t^2) underflows
        for t in (math.inf, -math.inf, 1e200):  # 1e200 squared overflows
            assert student_t_two_tailed_p(t, 5) == 0.0
        with pytest.raises(ValueError, match="df must be >= 1"):
            student_t_two_tailed_p(1.0, 0)
        with pytest.raises(ValueError, match="t must be a number"):
            student_t_two_tailed_p(math.nan, 5)

    def test_continued_fraction_that_does_not_converge_raises(self):
        # at a = b = 1e6 the fraction needs far more than its 300 steps
        with pytest.raises(ArithmeticError, match=r"^incomplete beta did not converge for "
                                                  r"a=1000000\.0, b=1000000\.0, x=0\.5$"):
            evaluation._betacf(1e6, 1e6, 0.5)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(1, 7000), st.floats(-60, 60), st.floats(-60, 60))
    def test_tail_is_a_symmetric_falling_probability(self, df, t, u):
        p = student_t_two_tailed_p(t, df)
        assert 0.0 <= p <= 1.0
        assert student_t_two_tailed_p(0.0, df) == 1.0
        assert student_t_two_tailed_p(-t, df) == p
        near, far = sorted((abs(t), abs(u)))
        assert student_t_two_tailed_p(far, df) <= student_t_two_tailed_p(near, df) + 1e-12


class TestPairedTtest:
    def test_worked_example(self):
        a = {"q1": 0.5, "q2": 0.6, "q3": 0.7}
        b = {"q1": 0.4, "q2": 0.6, "q3": 0.65}
        result = paired_ttest(a, b)
        assert result.t_statistic == pytest.approx(math.sqrt(3), abs=1e-10)
        assert result.df == 2
        assert result.p_value == pytest.approx(0.2254033307585166, abs=1e-10)
        ref = scipy_stats.ttest_rel([0.5, 0.6, 0.7], [0.4, 0.6, 0.65])
        assert result.t_statistic == pytest.approx(ref.statistic, abs=1e-9)
        assert result.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_identical_vectors(self):
        a = {"q1": 0.3, "q2": 0.4}
        result = paired_ttest(a, dict(a))
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert not result.degenerate

    def test_constant_nonzero_difference_is_degenerate(self):
        a = {f"q{i}": 0.5 + 0.1 for i in range(5)}
        b = {f"q{i}": 0.5 for i in range(5)}
        result = paired_ttest(a, b)
        assert result.degenerate
        assert result.p_value == 0.0
        assert result.t_statistic > 0

    def test_antisymmetry(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(2, 15)
            keys = [f"q{i}" for i in range(n)]
            a = {k: rng.random() for k in keys}
            b = {k: rng.random() for k in keys}
            fwd = paired_ttest(a, b)
            rev = paired_ttest(b, a)
            assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
            assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
            assert 0.0 <= fwd.p_value <= 1.0

    def test_intersects_key_sets(self):
        a = {"q1": 0.1, "q2": 0.5, "q3": 0.9}
        b = {"q2": 0.4, "q3": 0.8, "q4": 0.2}
        result = paired_ttest(a, b)
        assert result.df == 1

    def test_too_few_shared_queries_rejected(self):
        with pytest.raises(ValueError):
            paired_ttest({"q1": 0.5}, {"q1": 0.4})

    def test_matches_scipy_on_random_pairs(self):
        rng = random.Random(53)
        for _ in range(50):
            n = rng.randint(3, 20)
            keys = [f"q{i}" for i in range(n)]
            a = {k: rng.random() for k in keys}
            b = {k: rng.random() for k in keys}
            result = paired_ttest(a, b)
            ref = scipy_stats.ttest_rel([a[k] for k in sorted(keys)],
                                        [b[k] for k in sorted(keys)])
            assert result.t_statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert result.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# Significance matrix
# ---------------------------------------------------------------------------

def _runs_from_scores(per_run_scores):
    """per_run_scores: {name: {qid: ndcg-controlling score}}. Builds runs whose
    nDCG per query equals 1 when score=1 (relevant doc first) else ~0.63."""
    runs = []
    for name, per_query in per_run_scores.items():
        entries = {}
        for qid, good_first in per_query.items():
            if good_first:
                entries[qid] = [("rel", 2.0), ("junk", 1.0)]
            else:
                entries[qid] = [("junk", 2.0), ("rel", 1.0)]
        runs.append((name, Run(entries, tag=name)))
    return runs


class TestSignificanceMatrix:
    def make_qrels(self, qids):
        return QrelSet({qid: {"rel": 1} for qid in qids})

    def test_identical_runs_no_marks(self):
        qids = [f"q{i}" for i in range(10)]
        scores = {qid: (i % 2 == 0) for i, qid in enumerate(qids)}
        runs = _runs_from_scores({"x": scores, "y": dict(scores)})
        matrix = significance_matrix(runs, self.make_qrels(qids))
        assert matrix.beats == {"x": set(), "y": set()}

    def test_clear_winner_marked(self):
        qids = [f"q{i}" for i in range(10)]
        runs = _runs_from_scores({
            "better": {qid: True for qid in qids},
            "worse": {qid: (i % 3 == 0) for i, qid in enumerate(qids)},
        })
        matrix = significance_matrix(runs, self.make_qrels(qids), correction="none")
        assert matrix.beats["better"] == {"b"}
        assert matrix.beats["worse"] == set()

    def test_bonferroni_multiplies_by_row_comparisons(self):
        # x beats y with raw p = 0.0317: marked with 2 runs (1 comparison per
        # row) or correction=none, but not with a third run, where bonferroni
        # doubles p past the 0.05 level
        ranks_x = [1, 3, 4, 1, 1, 2, 2, 1]
        ranks_y = [1, 4, 3, 2, 2, 4, 3, 4]

        def run_from_ranks(name, ranks):
            entries = {}
            for i, r in enumerate(ranks):
                fillers = [(f"junk{j}", float(10 - j)) for j in range(r - 1)]
                entries[f"q{i}"] = fillers + [("rel", float(10 - r + 0.5))]
            return name, Run(entries, tag=name)

        qrels = self.make_qrels([f"q{i}" for i in range(len(ranks_x))])
        x = run_from_ranks("x", ranks_x)
        y = run_from_ranks("y", ranks_y)
        z = run_from_ranks("z", [5] * len(ranks_x))

        raw = paired_ttest(
            ndcg_at_k(x[1], qrels).per_query, ndcg_at_k(y[1], qrels).per_query
        ).p_value
        assert 0.025 < raw <= 0.05

        two_way = significance_matrix([x, y], qrels)
        assert "b" in two_way.beats["x"]
        uncorrected = significance_matrix([x, y, z], qrels, correction="none")
        assert "b" in uncorrected.beats["x"]
        corrected = significance_matrix([x, y, z], qrels, correction="bonferroni")
        assert "b" not in corrected.beats["x"]

    def test_render_layout(self):
        qids = [f"q{i}" for i in range(10)]
        runs = _runs_from_scores({
            "strong": {qid: True for qid in qids},
            "weak": {qid: False for qid in qids},
        })
        matrix = significance_matrix(runs, self.make_qrels(qids), correction="none")
        text = matrix.render()
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].startswith("a  strong")
        assert "^{b}" in lines[1]
        assert lines[2].startswith("b  weak")

    def test_needs_two_runs(self):
        runs = _runs_from_scores({"only": {"q1": True, "q2": True}})
        with pytest.raises(ValueError):
            significance_matrix(runs, self.make_qrels(["q1", "q2"]))

    def test_at_most_26_runs(self):
        # each run's row is named by one letter
        qids = ["q1", "q2", "q3"]
        runs = _runs_from_scores({f"r{i}": {qid: i % 2 == 0 for qid in qids} for i in range(27)})
        assert len(significance_matrix(runs[:26], self.make_qrels(qids)).beats) == 26
        with pytest.raises(ValueError, match="at most 26 runs"):
            significance_matrix(runs, self.make_qrels(qids))

    def test_duplicate_run_names_rejected(self):
        qids = ["q1", "q2"]
        runs = _runs_from_scores({"x": {qid: True for qid in qids}})
        with pytest.raises(ValueError, match="run names must be unique"):
            significance_matrix(runs * 2, self.make_qrels(qids))

    def test_unknown_correction_rejected(self):
        qids = ["q1", "q2"]
        runs = _runs_from_scores({
            "x": {qid: True for qid in qids},
            "y": {qid: False for qid in qids},
        })
        with pytest.raises(ValueError):
            significance_matrix(runs, self.make_qrels(qids), correction="holm")
