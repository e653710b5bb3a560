import random

import pytest
from hypothesis import given, settings, strategies as st

from qlmrank.corpus import QrelSet, Run
from qlmrank.evaluation import ndcg_at_k
from qlmrank.fusion import format_sweep, interpolate, minmax_normalize, sweep_alpha, truncate


def scores_of(run, qid):
    return dict(run.entries[qid])


def random_run(rng, qids, doc_pool=20, tag="r"):
    entries = {}
    for qid in qids:
        docs = rng.sample(range(doc_pool), rng.randint(2, min(10, doc_pool)))
        entries[qid] = [(f"d{d}", rng.uniform(-30, 30)) for d in docs]
    return Run(entries, tag=tag)


# runs over a few queries and a small doc pool, so that two runs share documents
RUNS = st.dictionaries(
    st.sampled_from(["q1", "q2", "q3"]),
    st.dictionaries(st.text("abcdef", min_size=1, max_size=2),
                    st.floats(allow_nan=False, allow_infinity=False)),
).map(Run.from_scores)


def restricted_order(run, qid, universe):
    return [did for did in run.doc_ids(qid) if did in universe]


class TestMinMax:
    def test_endpoints_and_midpoint(self):
        run = Run({"q": [("d1", 10.0), ("d2", 5.0), ("d3", 0.0)]})
        assert scores_of(minmax_normalize(run), "q") == {"d1": 1.0, "d2": 0.5, "d3": 0.0}

    def test_degenerate_constant_run_maps_to_zero(self):
        run = Run({"q": [("d1", 3.0), ("d2", 3.0)]})
        assert scores_of(minmax_normalize(run), "q") == {"d1": 0.0, "d2": 0.0}

    def test_negative_scores(self):
        run = Run({"q": [("d1", -1.0), ("d2", -2.0), ("d3", -3.0)]})
        assert scores_of(minmax_normalize(run), "q") == {"d1": 1.0, "d2": 0.5, "d3": 0.0}

    def test_order_preserved_on_random_runs(self):
        rng = random.Random(1)
        for _ in range(50):
            run = random_run(rng, ["q1", "q2"])
            normalized = minmax_normalize(run)
            for qid in run.entries:
                assert normalized.doc_ids(qid) == run.doc_ids(qid)

    @settings(deadline=None)
    @given(RUNS)
    def test_scores_in_unit_interval_and_never_increasing(self, run):
        normalized = minmax_normalize(run)
        for qid, pairs in run.entries.items():
            scores = [scores_of(normalized, qid)[did] for did, _ in pairs]
            assert all(0.0 <= s <= 1.0 for s in scores)
            assert scores == sorted(scores, reverse=True)
            if len({s for _, s in pairs}) > 1:
                assert (min(scores), max(scores)) == (0.0, 1.0)

    def test_ordering_can_tie_but_not_flip(self):
        run = Run({"q": [("z", 2.0), ("a", 1.0), ("m", -1e20)]})
        assert scores_of(minmax_normalize(run), "q") == {"z": 1.0, "a": 1.0, "m": 0.0}
        assert minmax_normalize(run).doc_ids("q") == ["a", "z", "m"]

    def test_range_wider_than_a_float(self):
        run = Run({"q": [("a", 1e308), ("b", 0.0), ("c", -1e308)]})
        assert scores_of(minmax_normalize(run), "q") == {"a": 1.0, "b": 0.5, "c": 0.0}

    def test_per_query_independence(self):
        run = Run({"q1": [("d1", 100.0), ("d2", 0.0)], "q2": [("d1", 2.0), ("d2", 1.0)]})
        normalized = minmax_normalize(run)
        assert scores_of(normalized, "q1") == {"d1": 1.0, "d2": 0.0}
        assert scores_of(normalized, "q2") == {"d1": 1.0, "d2": 0.0}


class TestInterpolate:
    def test_worked_example(self):
        a = Run({"q": [("d1", 10.0), ("d2", 5.0), ("d3", 0.0)]})
        b = Run({"q": [("d1", -2.0), ("d2", -1.0), ("d3", -3.0)]})
        fused = interpolate(a, b, alpha=0.2)
        assert scores_of(fused, "q") == pytest.approx({"d1": 0.6, "d2": 0.9, "d3": 0.0})
        assert fused.doc_ids("q") == ["d2", "d1", "d3"]

    def test_alpha_one_keeps_run_a_ordering(self):
        rng = random.Random(2)
        for _ in range(30):
            a = random_run(rng, ["q1"])
            b = random_run(rng, ["q1"])
            fused = interpolate(a, b, alpha=1.0)
            assert restricted_order(fused, "q1", set(a.doc_ids("q1"))) == a.doc_ids("q1")

    def test_alpha_zero_keeps_run_b_ordering(self):
        rng = random.Random(3)
        for _ in range(30):
            a = random_run(rng, ["q1"])
            b = random_run(rng, ["q1"])
            fused = interpolate(a, b, alpha=0.0)
            assert restricted_order(fused, "q1", set(b.doc_ids("q1"))) == b.doc_ids("q1")

    def test_union_completeness(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_run(rng, ["q1", "q2"])
            b = random_run(rng, ["q2", "q3"])
            fused = interpolate(a, b, alpha=0.4)
            assert set(fused.query_ids()) == {"q1", "q2", "q3"}
            for qid in fused.query_ids():
                expected = set(a.doc_ids(qid)) | set(b.doc_ids(qid))
                got = fused.doc_ids(qid)
                assert set(got) == expected
                assert len(got) == len(expected)

    @settings(deadline=None)
    @given(RUNS, RUNS, st.floats(0.0, 1.0))
    def test_ranks_exactly_the_union_of_both_runs(self, a, b, alpha):
        fused = interpolate(a, b, alpha)
        assert set(fused.query_ids()) == set(a.query_ids()) | set(b.query_ids())
        for qid in fused.query_ids():
            assert set(fused.doc_ids(qid)) == set(a.doc_ids(qid)) | set(b.doc_ids(qid))

    def test_missing_docs_take_zero(self):
        a = Run({"q": [("d1", 2.0), ("d2", 1.0)]})
        b = Run({"q": [("d3", 5.0), ("d4", 4.0)]})
        fused = interpolate(a, b, alpha=0.5)
        assert scores_of(fused, "q") == pytest.approx(
            {"d1": 0.5, "d2": 0.0, "d3": 0.5, "d4": 0.0})

    def test_affine_invariance_of_ordering(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_run(rng, ["q1"])
            b = random_run(rng, ["q1"])
            lam = rng.uniform(0.1, 5.0)
            mu = rng.uniform(-10, 10)
            scaled = Run({
                "q1": [(did, lam * s + mu) for did, s in a.entries["q1"]]
            }, tag=a.tag)
            alpha = rng.random()
            assert interpolate(scaled, b, alpha).doc_ids("q1") == \
                   interpolate(a, b, alpha).doc_ids("q1")

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_run(rng, ["q1"])
            b = random_run(rng, ["q1"])
            alpha = rng.random()
            assert interpolate(a, b, alpha).doc_ids("q1") == \
                   interpolate(b, a, 1 - alpha).doc_ids("q1")

    def test_alpha_out_of_range_rejected(self):
        a = Run({"q": [("d1", 1.0)]})
        with pytest.raises(ValueError):
            interpolate(a, a, alpha=1.5)


class TestTruncate:
    def test_prefix_kept(self):
        run = Run({"q": [(f"d{i:03d}", 150.0 - i) for i in range(150)]})
        cut = truncate(run, 100)
        assert cut.doc_ids("q") == run.doc_ids("q")[:100]

    def test_short_lists_unchanged(self):
        run = Run({"q": [("d1", 2.0), ("d2", 1.0)]})
        assert truncate(run, 100).entries == run.entries

    def test_k_one_keeps_argmax(self):
        run = Run({"q": [("d1", 1.0), ("d2", 9.0)]})
        assert truncate(run, 1).doc_ids("q") == ["d2"]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            truncate(Run({"q": [("d1", 1.0)]}), 0)


class TestSweepAlpha:
    qrels = QrelSet({"q": {"d1": 2, "d2": 1, "d3": 0}})

    def test_endpoints_match_single_run_evaluations(self):
        rng = random.Random(7)
        a = random_run(rng, ["q"], doc_pool=6)
        b = random_run(rng, ["q"], doc_pool=6)
        rows = dict(sweep_alpha(a, b, [0.0, 1.0], self.qrels, k=10))
        assert rows[0.0] == pytest.approx(
            ndcg_at_k(interpolate(a, b, 0.0), self.qrels, k=10).mean)
        assert rows[1.0] == pytest.approx(
            ndcg_at_k(interpolate(a, b, 1.0), self.qrels, k=10).mean)

    def test_single_alpha_equals_composition(self):
        rng = random.Random(8)
        a = random_run(rng, ["q"], doc_pool=6)
        b = random_run(rng, ["q"], doc_pool=6)
        rows = sweep_alpha(a, b, [0.2], self.qrels, k=10)
        expected = ndcg_at_k(interpolate(a, b, 0.2), self.qrels, k=10).mean
        assert rows == [(0.2, expected)]

    def test_identical_runs_flat_curve(self):
        run = Run({"q": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]})
        rows = sweep_alpha(run, run, [0.0, 0.25, 0.5, 0.75, 1.0], self.qrels, k=10)
        values = {ndcg for _, ndcg in rows}
        assert len(values) == 1

    # few distinct scores tie fused scores at and around rank k; a query can be
    # in one run only, hold one score throughout, or hold fewer than k documents
    DOCS = [f"d{i}" for i in range(8)]
    TIED_RUNS = st.dictionaries(
        st.sampled_from(["q1", "q2", "q3"]),
        st.dictionaries(st.sampled_from(DOCS),
                        st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-9.0, 9.0)),
    ).map(Run.from_scores)

    @settings(deadline=None, max_examples=300)
    @given(TIED_RUNS, TIED_RUNS,
           st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                    max_size=4),
           st.dictionaries(st.sampled_from(["q1", "q2", "q3"]),
                           st.dictionaries(st.sampled_from(DOCS), st.integers(0, 3))),
           st.integers(1, 10))
    def test_equals_evaluating_each_interpolation(self, a, b, alphas, judged, k):
        qrels = QrelSet({**judged, "q4": {"d0": 1}})  # q4 is in no run: always evaluable
        assert sweep_alpha(a, b, alphas, qrels, k=k) == [
            (alpha, ndcg_at_k(interpolate(a, b, alpha), qrels, k=k).mean) for alpha in alphas]

    def test_k_below_one_is_rejected(self):
        run = Run({"q": [("d1", 1.0)]})
        with pytest.raises(ValueError, match="k must be >= 1, got -3"):
            sweep_alpha(run, run, [0.5], self.qrels, k=-3)

    def test_format_is_two_column_tsv(self):
        text = format_sweep([(0.0, 0.5), (0.5, 0.75)])
        lines = text.strip().splitlines()
        assert lines[0] == "alpha\tndcg"
        assert lines[1].split("\t") == ["0", "0.500000"]
