import itertools
import math
import random

import pytest
from scipy import stats as scipy_stats

from qlmrank.corpus import QrelSet, Run
from qlmrank.evaluation import (
    betainc_regularized,
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
    def test_incomplete_beta_against_scipy(self):
        rng = random.Random(41)
        for _ in range(500):
            a = rng.uniform(0.5, 100.0)
            b = rng.uniform(0.5, 100.0)
            x = rng.random()
            mine = betainc_regularized(a, b, x)
            ref = scipy_stats.beta.cdf(x, a, b)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_tail_against_scipy(self):
        rng = random.Random(43)
        for _ in range(500):
            t = rng.uniform(-8, 8)
            df = rng.randint(1, 200)
            mine = student_t_two_tailed_p(t, df)
            ref = 2 * scipy_stats.t.sf(abs(t), df)
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_t_zero_gives_p_one(self):
        for df in (1, 2, 10, 100):
            assert student_t_two_tailed_p(0.0, df) == 1.0


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

    def test_unknown_correction_rejected(self):
        qids = ["q1", "q2"]
        runs = _runs_from_scores({
            "x": {qid: True for qid in qids},
            "y": {qid: False for qid in qids},
        })
        with pytest.raises(ValueError):
            significance_matrix(runs, self.make_qrels(qids), correction="holm")
