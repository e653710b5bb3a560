import base64
import json
import math
import random
import re
import struct
import sys
import tempfile
import zlib
from array import array
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qlmrank import ranking
from qlmrank.corpus import Document, FormatError, _sort_ranking
from qlmrank.ranking import (
    Analyzer,
    Bm25Params,
    DirichletParams,
    InvertedIndex,
    bm25_score,
    bm25_search,
    build_index,
    dirichlet_qlm_score,
    dirichlet_search,
    load_index,
    save_index,
    words,
)


# ---------------------------------------------------------------------------
# Brute-force oracles: straight transcriptions of the scoring formulas over
# raw token lists, sharing no code with the index implementation.
# ---------------------------------------------------------------------------

def tokenize(text):
    out, word = [], []
    for ch in text.lower():
        if ch.isascii() and (ch.isalpha() or ch.isdigit()):
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return out


def brute_force_bm25(doc_tokens, all_docs_tokens, query_tokens, k1=0.9, b=0.4):
    n = len(all_docs_tokens)
    avgdl = sum(len(t) for t in all_docs_tokens) / n
    score = 0.0
    for term in query_tokens:
        df = sum(1 for toks in all_docs_tokens if term in toks)
        if df == 0:
            continue
        tf = doc_tokens.count(term)
        if tf == 0:
            continue
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf / (tf + k1 * (1 - b + b * len(doc_tokens) / avgdl))
    return score


def brute_force_dirichlet(doc_tokens, all_docs_tokens, query_tokens, mu):
    total = sum(len(t) for t in all_docs_tokens)
    score = 0.0
    for term in query_tokens:
        cf = sum(toks.count(term) for toks in all_docs_tokens)
        if cf == 0:
            continue
        tf = doc_tokens.count(term)
        score += math.log((tf + mu * cf / total) / (len(doc_tokens) + mu))
    return score


def random_corpus(rng, max_docs=50, vocab_size=12):
    vocab = [f"w{i}" for i in range(vocab_size)]
    n = rng.randint(2, max_docs)
    return [
        Document(f"d{i:03d}", "", " ".join(rng.choices(vocab, k=rng.randint(1, 30))))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------

class TestAnalyzer:
    def test_splits_on_non_alphanumeric_runs(self):
        assert Analyzer().tokenize("Hello, world!  x2--y") == ["hello", "world", "x2", "y"]

    def test_empty_input(self):
        assert Analyzer().tokenize("") == []

    def test_lowercase_off(self):
        assert Analyzer(lowercase=False).tokenize("Hello World") == ["Hello", "World"]

    def test_stopwords(self):
        analyzer = Analyzer(stopwords=frozenset({"the", "a"}))
        assert analyzer.tokenize("the cat and a dog") == ["cat", "and", "dog"]

    def test_stemming_strips_plurals(self):
        analyzer = Analyzer(stem=True)
        assert analyzer.tokenize("cats studies classes") == ["cat", "study", "classe"]
        # protected endings survive
        assert analyzer.tokenize("corpus glass") == ["corpus", "glass"]

    def test_deterministic(self):
        analyzer = Analyzer()
        text = "Some; mixed TEXT with 42 numbers..."
        assert analyzer.tokenize(text) == analyzer.tokenize(text)

    # the regexes are the token definition; the package computes it without them
    @given(st.text())
    @example("İstanbul")         # lowercases to "i", a combining dot, "stanbul"
    @example("\u212aelvin")      # the Kelvin sign lowercases to "k"
    @example("a\ud800b")         # a lone surrogate
    @example("a\x00b")
    @example("a\x1cb\x1dc\x1ed\x1fe")  # separators to str.split(), and to words
    @example("\uff11x")          # full-width digit one
    @example("\u0661x")          # Arabic-Indic digit one
    @example("MiXeD 42 Case!")
    def test_words_equal_the_regex_definition(self, text):
        assert words(text) == re.findall(r"[a-z0-9]+", text.lower())
        assert words(text, lowercase=False) == re.findall(r"[A-Za-z0-9]+", text)
        assert Analyzer().tokenize(text) == words(text)
        assert Analyzer(lowercase=False).tokenize(text) == words(text, lowercase=False)


# ---------------------------------------------------------------------------
# Index construction
# ---------------------------------------------------------------------------

class TestBuildIndex:
    def test_c3_statistics(self, c3_index):
        assert c3_index.n_docs == 3
        assert c3_index.avgdl == pytest.approx(8 / 3)
        assert {term: c3_index.cf(term) for term in "abcz"} == {"a": 2, "b": 2, "c": 4, "z": 0}
        assert dict(zip(c3_index.doc_ids, c3_index.doc_len)) == {"d1": 3, "d2": 2, "d3": 3}
        assert c3_index.postings == {"a": (array("I", [0]), array("I", [2])),
                                     "b": (array("I", [0, 1]), array("I", [1, 1])),
                                     "c": (array("I", [1, 2]), array("I", [1, 3]))}

    def test_invariants_hold(self, c3_index):
        for term, (positions, tfs) in c3_index.postings.items():
            assert sum(tfs) == c3_index.cf(term)
            assert len(positions) == len(tfs) == c3_index.df(term)
        assert sum(c3_index.doc_len) == c3_index.total_terms

    def test_rebuild_is_identical(self, c3_docs):
        a, b = build_index(c3_docs), build_index(c3_docs)
        assert (a.doc_ids, a.doc_len, a.postings, a.total_terms) == \
               (b.doc_ids, b.doc_len, b.postings, b.total_terms)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index([])

    def test_duplicate_id_rejected(self):
        docs = [Document("d1", "", "a"), Document("d2", "", "b"), Document("d1", "", "c")]
        with pytest.raises(FormatError, match="duplicate doc id 'd1'"):
            build_index(docs)

    def test_title_is_indexed(self):
        index = build_index([Document("d1", "alpha", "beta")])
        assert set(index.postings) == {"alpha", "beta"}
        assert index.doc_len[index.position("d1")] == 2

    def test_random_invariants(self):
        rng = random.Random(3)
        for _ in range(20):
            docs = random_corpus(rng, max_docs=15)
            index = build_index(docs)
            tokens = {d.id: tokenize(d.body) for d in docs}
            assert index.doc_ids == [d.id for d in docs]
            assert dict(zip(index.doc_ids, index.doc_len)) == \
                   {did: len(toks) for did, toks in tokens.items()}
            assert sum(index.doc_len) == index.total_terms
            cf = Counter(t for toks in tokens.values() for t in toks)
            for term, (positions, tfs) in index.postings.items():
                assert positions.typecode == tfs.typecode == "I"
                assert list(positions) == sorted(set(positions))
                assert index.cf(term) == cf[term] == sum(tfs)
            assert index.avgdl == index.total_terms / index.n_docs


# ---------------------------------------------------------------------------
# BM25
# ---------------------------------------------------------------------------

class TestBm25:
    def test_c3_hand_value(self, c3_index):
        # ln(8/3) * 2/(2 + 0.9*(0.6 + 0.4*(3/(8/3)))) = 0.6660979646938718,
        # confirmed by the brute-force oracle below
        score = bm25_score(c3_index, Bm25Params(), ["a"], "d1")
        assert score == pytest.approx(0.6660979646938718, abs=1e-12)
        oracle = brute_force_bm25(["a", "b", "a"], [["a", "b", "a"], ["b", "c"], ["c", "c", "c"]], ["a"])
        assert score == pytest.approx(oracle, abs=1e-12)

    def test_absent_term_scores_zero(self, c3_index):
        assert bm25_score(c3_index, Bm25Params(), ["z"], "d1") == 0.0

    def test_no_overlap_scores_zero(self, c3_index):
        assert bm25_score(c3_index, Bm25Params(), ["a"], "d3") == 0.0

    def test_unknown_doc_rejected(self, c3_index):
        with pytest.raises(KeyError):
            bm25_score(c3_index, Bm25Params(), ["a"], "nope")

    def test_search_c3(self, c3_index):
        hits = bm25_search(c3_index, Bm25Params(), "a", k=10)
        assert [h[0] for h in hits] == ["d1"]
        assert hits[0][1] == pytest.approx(0.6660979646938718, abs=1e-12)

    def test_search_argmax_matches_brute_force(self, c3_index, c3_docs):
        tokens = [tokenize(d.body) for d in c3_docs]
        scores = {d.id: brute_force_bm25(t, tokens, ["c"]) for d, t in zip(c3_docs, tokens)}
        best = max(sorted(scores), key=lambda did: scores[did])
        hits = bm25_search(c3_index, Bm25Params(), "c", k=1)
        assert len(hits) == 1 and hits[0][0] == best

    def test_k_larger_than_corpus_no_padding(self, c3_index):
        hits = bm25_search(c3_index, Bm25Params(), "b", k=100)
        assert {h[0] for h in hits} == {"d1", "d2"}

    def test_k_zero_rejected(self, c3_index):
        with pytest.raises(ValueError):
            bm25_search(c3_index, Bm25Params(), "a", k=0)

    def test_search_equals_brute_force_on_random_corpora(self):
        rng = random.Random(11)
        for _ in range(15):
            docs = random_corpus(rng)
            index = build_index(docs)
            all_tokens = [tokenize(d.body) for d in docs]
            query = " ".join(rng.choices([f"w{i}" for i in range(14)], k=rng.randint(1, 4)))
            qtokens = tokenize(query)
            expected = [
                (d.id, brute_force_bm25(t, all_tokens, qtokens))
                for d, t in zip(docs, all_tokens)
            ]
            expected = sorted(
                [(did, s) for did, s in expected if s > 0],
                key=lambda p: (-p[1], p[0]),
            )[:len(docs)]
            got = bm25_search(index, Bm25Params(), query, k=len(docs))
            assert [g[0] for g in got] == [e[0] for e in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-10)

    def test_tf_monotonicity(self):
        # more occurrences of a matched term never lower the score
        base = "x " * 5
        docs = [
            Document("d1", "", base + "q"),
            Document("d2", "", base + "q q"),
            Document("d3", "", base + "q q q"),
        ]
        index = build_index(docs)
        params = Bm25Params()
        scores = [bm25_score(index, params, ["q"], d.id) for d in docs]
        assert scores[0] <= scores[1] <= scores[2]


# ---------------------------------------------------------------------------
# Dirichlet QLM
# ---------------------------------------------------------------------------

class TestDirichlet:
    def test_c3_hand_value(self, c3_index):
        # ln((2 + 10*0.25) / (3 + 10)) = ln(4.5/13) = -1.0608719606852628
        score = dirichlet_qlm_score(c3_index, DirichletParams(mu=10), ["a"], "d1")
        assert score == pytest.approx(-1.0608719606852628, abs=1e-12)
        oracle = brute_force_dirichlet(
            ["a", "b", "a"], [["a", "b", "a"], ["b", "c"], ["c", "c", "c"]], ["a"], mu=10)
        assert score == pytest.approx(oracle, abs=1e-12)

    def test_oov_terms_skipped(self, c3_index):
        assert dirichlet_qlm_score(c3_index, DirichletParams(mu=10), ["z"], "d1") == 0.0

    @pytest.mark.parametrize("mu, value", [(1e-323, "0.0"), (1e308, "inf")])
    def test_mu_out_of_range_names_mu_and_term(self, mu, value):
        # the scorer raises what the search raises, not a bare math domain error or inf
        index = build_index([Document("d1", "", "a b a"), Document("d2", "", "b c")])
        message = (f"mu={mu!r} is out of range: term 'a' gets smoothed probability "
                   f"mu * cf / total / (dl + mu) = {value} in the longest document")
        with pytest.raises(ValueError, match=re.escape(message)):
            dirichlet_qlm_score(index, DirichletParams(mu=mu), ["a"], "d2")
        with pytest.raises(ValueError, match=re.escape(message)):
            dirichlet_search(index, DirichletParams(mu=mu), "a")

    def test_additive_over_repeated_terms(self, c3_index):
        params = DirichletParams(mu=10)
        single = dirichlet_qlm_score(c3_index, params, ["a"], "d1")
        double = dirichlet_qlm_score(c3_index, params, ["a", "a"], "d1")
        assert double == pytest.approx(2 * single, abs=1e-12)

    def test_additivity_of_concatenated_queries(self, c3_index):
        params = DirichletParams(mu=25)
        for did in ("d1", "d2", "d3"):
            sab = dirichlet_qlm_score(c3_index, params, ["a", "b"], did)
            sa = dirichlet_qlm_score(c3_index, params, ["a"], did)
            sb = dirichlet_qlm_score(c3_index, params, ["b"], did)
            assert sab == pytest.approx(sa + sb, abs=1e-12)

    def test_search_ranks_matching_doc_first(self, c3_index, c3_docs):
        hits = dirichlet_search(c3_index, DirichletParams(mu=10), "a", k=3)
        assert len(hits) == 3
        assert hits[0][0] == "d1"
        # order agrees with exhaustive oracle scoring
        tokens = [tokenize(d.body) for d in c3_docs]
        expected = sorted(
            [(d.id, brute_force_dirichlet(t, tokens, ["a"], 10)) for d, t in zip(c3_docs, tokens)],
            key=lambda p: (-p[1], p[0]),
        )
        assert [h[0] for h in hits] == [e[0] for e in expected]

    def test_fully_oov_query_yields_doc_id_order(self, c3_index):
        hits = dirichlet_search(c3_index, DirichletParams(mu=10), "zzz qqq", k=3)
        assert [h[0] for h in hits] == ["d1", "d2", "d3"]
        assert all(s == 0.0 for _, s in hits)

    def test_k_zero_rejected(self, c3_index):
        with pytest.raises(ValueError):
            dirichlet_search(c3_index, DirichletParams(), "a", k=0)

    def test_search_equals_brute_force_on_random_corpora(self):
        rng = random.Random(23)
        for _ in range(15):
            docs = random_corpus(rng)
            index = build_index(docs)
            all_tokens = [tokenize(d.body) for d in docs]
            qtokens = rng.choices([f"w{i}" for i in range(14)], k=rng.randint(1, 3))
            mu = rng.choice([10.0, 100.0, 1000.0])
            expected = sorted(
                [(d.id, brute_force_dirichlet(t, all_tokens, qtokens, mu))
                 for d, t in zip(docs, all_tokens)],
                key=lambda p: (-p[1], p[0]),
            )
            got = dirichlet_search(index, DirichletParams(mu=mu), " ".join(qtokens), k=len(docs))
            assert [g[0] for g in got] == [e[0] for e in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-10)


# ---------------------------------------------------------------------------
# Search equals exhaustive scoring, bit for bit, for every k
# ---------------------------------------------------------------------------

@st.composite
def tie_heavy_corpora(draw):
    """Few distinct document lengths (so many documents tie on length),
    doc ids not in insertion order, and queries that repeat terms or hold
    only out-of-vocabulary words."""
    vocab = ["a", "b", "c", "d", "e"]
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    n = draw(st.integers(1, 20))
    ids = draw(st.permutations(range(n)))
    docs = [Document(f"d{i:02d}", "", " ".join(draw(st.lists(
                st.sampled_from(vocab), min_size=length, max_size=length))))
            for i, length in zip(ids, draw(st.lists(st.sampled_from(lengths),
                                                    min_size=n, max_size=n)))]
    query = " ".join(draw(st.lists(st.sampled_from(vocab + ["oov", "zz"]), max_size=5)))
    return docs, query


@st.composite
def cancelling_corpora(draw):
    """Queries that repeat each term up to 20 times, documents made only of
    query terms (where the score's ln s terms and gains cancel the most)
    beside documents of other words, and duplicate documents, so that
    several documents tie at the k-th score."""
    query_terms = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                                unique=True))
    query = " ".join(term for term in query_terms for _ in range(draw(st.integers(1, 20))))
    query_only = st.lists(st.sampled_from(query_terms), min_size=1, max_size=8)
    mixed = st.lists(st.sampled_from(query_terms + ["x", "y"]), min_size=1, max_size=8)
    bodies = draw(st.lists(st.one_of(query_only, mixed), min_size=1, max_size=8))
    bodies += draw(st.lists(st.sampled_from(bodies), max_size=8))  # duplicates
    ids = draw(st.permutations(range(len(bodies))))
    docs = [Document(f"d{i:02d}", "", " ".join(body)) for i, body in zip(ids, bodies)]
    return docs, query


def assert_dirichlet_search_is_truncated_scoring(docs, query, mu):
    index = build_index(docs)
    params = DirichletParams(mu=mu)
    terms = index.analyzer.tokenize(query)
    full = _sort_ranking([(d.id, dirichlet_qlm_score(index, params, terms, d.id))
                          for d in docs])
    for k in range(1, len(docs) + 3):
        assert dirichlet_search(index, params, query, k) == full[:k]


# mu = 1e-310 makes every s = mu * cf / total subnormal, so the score's
# c ln s terms, near -713 each, cancel against its gains the most; at
# mu = 1e-307 some tf / s overflow to inf and others do not
DIRICHLET_MUS = [1e-310, 1e-307, 1e-3, 0.5, 10.0, 1000.0]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_corpora(), st.sampled_from(DIRICHLET_MUS))
def test_dirichlet_search_is_exhaustive_scoring_truncated(corpus, mu):
    assert_dirichlet_search_is_truncated_scoring(*corpus, mu)


@settings(max_examples=150, deadline=None)
@given(cancelling_corpora(), st.sampled_from(DIRICHLET_MUS))
# s = 1e-307 * cf / 26: tf / s overflows for a00's six a's, not for a01's
# single a and b, so a gain written log1p(tf / s) puts a00 above a01
@example(([Document("a00", "", "a a a a a a"), Document("a01", "", "a b"),
           Document("a02", "", "b b"), Document("a03", "", "x x x x x x x x"),
           Document("a04", "", "y y y y y y y y")], "a b"), 1e-307)
def test_dirichlet_search_survives_cancellation_repeats_and_ties(corpus, mu):
    assert_dirichlet_search_is_truncated_scoring(*corpus, mu)


def decimal_dirichlet(doc_tokens, all_docs_tokens, query_tokens, mu):
    """brute_force_dirichlet's sum, sum over query tokens of ln((tf + s) / (dl + mu)),
    at 40 digits from the same float s = mu * cf / total; and the sum of the
    absolute values of dirichlet_qlm_score's addends, c ln s per query term,
    (sum c) ln(dl + mu) and c (ln(tf + s) - ln s) per query term the document holds."""
    total = sum(len(t) for t in all_docs_tokens)
    dl = len(doc_tokens)
    exact, addends, tokens = Decimal(0), 0.0, 0
    with localcontext() as ctx:
        ctx.prec = 40
        for term, count in Counter(query_tokens).items():
            cf = sum(toks.count(term) for toks in all_docs_tokens)
            if cf == 0:
                continue
            s = mu * cf / total
            tf = doc_tokens.count(term)
            exact += count * ((tf + Decimal(s)) / (dl + Decimal(mu))).ln()
            tokens += count
            addends += count * (abs(math.log(s)) + abs(math.log(tf + s) - math.log(s)))
    return exact, addends + tokens * abs(math.log(dl + mu))


# each mu of DIRICHLET_MUS, the subnormal and overflowing ones included
@pytest.mark.parametrize("mu", DIRICHLET_MUS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(corpus=tie_heavy_corpora())
def test_dirichlet_qlm_score_is_the_textbook_sum_to_rounding(corpus, mu):
    docs, query = corpus
    index = build_index(docs)
    terms = index.analyzer.tokenize(query)
    all_tokens = [tokenize(d.body) for d in docs]
    for doc, doc_tokens in zip(docs, all_tokens):
        score = dirichlet_qlm_score(index, DirichletParams(mu=mu), terms, doc.id)
        exact, addends = decimal_dirichlet(doc_tokens, all_tokens, terms, mu)
        assert abs(Decimal(score) - exact) <= Decimal(1e-12 * addends), (doc.id, score, exact)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_corpora(), st.sampled_from([0.0, 0.4, 1.0]))
def test_bm25_search_is_exhaustive_scoring_truncated(corpus, b):
    docs, query = corpus
    index = build_index(docs)
    params = Bm25Params(b=b)
    terms = index.analyzer.tokenize(query)
    scored = [(d.id, bm25_score(index, params, terms, d.id)) for d in docs]
    full = _sort_ranking([(did, s) for did, s in scored if s > 0.0])
    for k in range(1, len(docs) + 3):
        assert bm25_search(index, params, query, k) == full[:k]


# ---------------------------------------------------------------------------
# Parameters and persistence
# ---------------------------------------------------------------------------

def test_param_defaults():
    assert (Bm25Params().k1, Bm25Params().b) == (0.9, 0.4)
    assert DirichletParams().mu == 1000.0


@pytest.mark.parametrize("bad", [{"k1": 0.0}, {"k1": -1.0}, {"b": 1.5}, {"b": -0.1},
                                 {"k1": math.inf}, {"k1": math.nan}, {"b": math.nan}])
def test_bm25_param_validation(bad):
    with pytest.raises(ValueError):
        Bm25Params(**bad)


@pytest.mark.parametrize("mu", [0.0, -5.0, math.inf])
def test_dirichlet_param_validation(mu):
    with pytest.raises(ValueError):
        DirichletParams(mu=mu)


class TestPersistence:
    def test_round_trip_statistics_exact(self, c3_index, tmp_path):
        path = str(tmp_path / "index.json")
        save_index(c3_index, path)
        back = load_index(path)
        assert back.doc_ids == c3_index.doc_ids
        assert back.doc_len == c3_index.doc_len and back.doc_len.typecode == "I"
        assert back.postings == c3_index.postings
        assert all(positions.typecode == tfs.typecode == "I"
                   for positions, tfs in back.postings.values())
        assert {t: back.cf(t) for t in back.postings} == {t: c3_index.cf(t) for t in back.postings}
        assert back.n_docs == c3_index.n_docs
        assert back.total_terms == c3_index.total_terms
        assert back.avgdl == c3_index.avgdl
        assert back.analyzer == c3_index.analyzer

    def test_round_trip_preserves_scores(self, c3_index, tmp_path):
        path = str(tmp_path / "index.json")
        save_index(c3_index, path)
        back = load_index(path)
        for query in ("a", "b c", "c c a"):
            assert bm25_search(back, Bm25Params(), query, k=3) == \
                   bm25_search(c3_index, Bm25Params(), query, k=3)

    def test_file_layout(self, tmp_path):
        # terms sorted, each list and array packed, postings concatenated by df, ties
        # in terms order: c (df 1), a (2), d (2), b (3)
        index = build_index([Document("d1", "", "b a a d"), Document("d2", "", "a b"),
                             Document("d3", "", "b c c c d")])
        path = tmp_path / "index.json"
        save_index(index, str(path))
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert {k: v for k, v in payload.items() if k != "analyzer"} == {
            "format_version": 7, "doc_ids": word_list("d1", "d2", "d3"),
            "terms": word_list("a", "b", "c", "d"),
            "doc_len": packed("B", 4, 2, 5), "df": packed("B", 2, 3, 1, 2),
            # each term's first position, then its d-gaps: c [2], a [0, 1], d [0, 2],
            # b [0, 1, 2]
            "positions": packed("B", 2, 0, 1, 0, 2, 0, 1, 1),
            "tfs": packed("B", 3, 2, 1, 1, 1, 1, 1, 1)}
        assert load_index(str(path)) == index

    def test_empty_documents_round_trip(self, tmp_path):
        # no term at all: every array but doc_len is empty
        index = build_index([Document("d1", "", "!"), Document("d2", "", "")])
        path = str(tmp_path / "index.json")
        save_index(index, path)
        payload = json.loads(Path(path).read_text())
        assert (payload["terms"], payload["positions"]) == (word_list(), packed("B"))
        assert load_index(path) == index

    def test_version_check(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"format_version": 99}', encoding="utf-8")
        with pytest.raises(Exception, match="version"):
            load_index(str(path))

    def test_analyzer_settings_survive(self, tmp_path):
        docs = [Document("d1", "", "The CATS run")]
        analyzer = Analyzer(lowercase=True, stopwords=frozenset({"the"}), stem=True)
        index = build_index(docs, analyzer)
        path = str(tmp_path / "index.json")
        save_index(index, path)
        assert load_index(path).analyzer == analyzer


def packed(code, *values):
    """_pack's output, written with struct: typecode, then base64 of the zlib
    stream, at level 1 with the Z_RLE strategy, of the values' byte planes:
    byte k of value i, little end first, at k * len(values) + i."""
    width, data = struct.calcsize("<" + code), struct.pack(f"<{len(values)}{code}", *values)
    planes = bytes(data[i * width + k] for k in range(width) for i in range(len(values)))
    deflater = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return code + base64.b64encode(deflater.compress(planes) + deflater.flush()).decode()


def word_list(*values):
    """_pack_words's output: the UTF-8 byte count of the values joined by
    newlines, a colon, then base64 of those bytes' zlib stream at level 1."""
    data = "\n".join(values).encode("utf-8")
    return f"{len(data)}:" + base64.b64encode(zlib.compress(data, 1)).decode()


def test_pack_deflates_with_z_rle():
    # 300 items of 1, 2, 3, 0 repeating: the default search matches the period-4
    # pattern, Z_RLE only runs of one byte, so their streams differ
    values = array("I", [1, 2, 3, 0] * 75)
    stream = base64.b64decode(ranking._pack(values)[1:])
    assert stream != zlib.compress(values.tobytes()[::4], 1)
    assert zlib.decompress(stream) == bytes([1, 2, 3, 0] * 75)


@pytest.mark.parametrize("values", [[], ["d1"], ["a", "b", "c"], ["d\u00e93", "\u6587", "A"]])
def test_words_round_trip(values):
    text = ranking._pack_words(values)
    assert text == word_list(*values)
    assert ranking._unpack_words("x", text) == values


@pytest.mark.parametrize("top, code", [(0, "B"), (255, "B"), (256, "H"), (65535, "H"),
                                       (65536, "I"), (2**32 - 1, "I")])
def test_pack_takes_the_narrowest_typecode(top, code):
    values = array("I", [top, 0, top // 2])
    text = ranking._pack(values)
    assert text == packed(code, top, 0, top // 2)
    unpacked, zeros = ranking._unpack("x", text, 3)
    assert unpacked == values and unpacked.typecode == "I"
    assert zeros == values.count(0)


@pytest.mark.parametrize("top", [255, 65535, 2**32 - 1])
def test_unpack_assembles_the_items_chunk_by_chunk(monkeypatch, top):
    # 7 items in chunks of 2: the last chunk is short, and zeros lie in three chunks
    monkeypatch.setattr(ranking, "_CHUNK", 2)
    values = array("I", [top, 0, 1, 0, 0, top // 3, 7])
    assert ranking._unpack("x", ranking._pack(values), len(values)) == (values, 3)


def test_wide_arrays_pack_smaller_as_planes():
    # d-gaps below 1,500 in H: every high byte is 0 to 5
    rng = random.Random(3)
    values = array("I", [rng.randrange(1, 1500) for _ in range(20_000)])
    interleaved = zlib.compress(struct.pack(f"<{len(values)}H", *values), 1)
    assert ranking._pack(values)[0] == "H"
    assert len(base64.b64decode(ranking._pack(values)[1:])) < 0.95 * len(interleaved)


def test_load_decodes_only_the_terms_looked_up(c3_index, tmp_path):
    path = str(tmp_path / "index.json")
    save_index(c3_index, path)
    back = load_index(path)
    assert back.postings._decoded == {}
    assert "c" in back.postings and "zz" not in back.postings and len(back.postings) == 3
    assert back.postings._decoded == {}
    bm25_search(back, Bm25Params(), "c zz", k=3)
    assert list(back.postings._decoded) == ["c"]
    assert back.postings["c"] is back.postings["c"]  # decoded once, then kept
    with pytest.raises(KeyError):
        back.postings["zz"]
    with pytest.raises(TypeError):
        back.postings["c"] = (array("I"), array("I"))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, unique=True).map(sorted),
                max_size=6))
def test_gaps_are_each_runs_first_value_then_its_differences(runs):
    positions = array("I", [value for run in runs for value in run])
    starts = [sum(map(len, runs[:i])) for i in range(len(runs))]
    expected = [gap for run in runs for gap in [run[0], *map(int.__sub__, run[1:], run)]]
    assert ranking._gaps(positions, starts).tolist() == expected


@pytest.mark.parametrize("gap, code", [(255, "B"), (256, "H"), (65535, "H"), (65536, "I")])
def test_gaps_round_trip_at_each_width_boundary(tmp_path, gap, code):
    # "first": a first position of 0, then the gap; "one": a single posting at
    # the gap; "next": two postings one gap apart, the first at 1
    n = gap + 2
    postings = {"first": (array("I", [0, gap]), array("I", [1, 2])),
                "next": (array("I", [1, gap + 1]), array("I", [1, 1])),
                "one": (array("I", [gap]), array("I", [3]))}
    doc_len = array("I", bytes(4 * n))
    for positions, tfs in postings.values():
        for pos, tf in zip(positions, tfs):
            doc_len[pos] += tf
    index = InvertedIndex(doc_ids=[f"d{pos}" for pos in range(n)], doc_len=doc_len,
                          postings=postings)
    path = tmp_path / "index.json"
    save_index(index, str(path))
    # by df, ties in terms order: one, first, next
    assert json.loads(path.read_text())["positions"] == packed(code, gap, 0, gap, 1, gap)
    assert load_index(str(path)) == index


class _BigEndianArray(array):
    """An array whose bytes are big-endian, as on a big-endian host: its
    values are the same, but tobytes and frombytes swap each item."""

    def tobytes(self):
        swapped = array(self.typecode, self)
        swapped.byteswap()
        return swapped.tobytes()

    def frombytes(self, data):
        native = array(self.typecode)
        native.frombytes(data)
        native.byteswap()
        self.extend(native)


@pytest.mark.skipif(sys.byteorder != "little", reason="simulates big-endian on little-endian")
@pytest.mark.parametrize("values", [[0, 1, 255], [1, 256, 65535], [2, 65536, 2**32 - 1]])
def test_pack_on_a_big_endian_host(monkeypatch, values):
    little = ranking._pack(array("I", values))
    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(ranking, "array", _BigEndianArray)
    native = _BigEndianArray("I", values)
    assert native.tobytes() != array("I", values).tobytes()  # the simulation swaps
    assert ranking._pack(native) == little
    # _unpack writes the planes into the items' memory, which the simulation's
    # tobytes cannot stand in for: there each item's bytes must be big-endian
    unpacked, zeros = ranking._unpack("x", little, len(values))
    assert bytes(memoryview(unpacked)) == struct.pack(f">{len(values)}I", *values)
    assert zeros == values.count(0)


@st.composite
def persisted_corpora(draw):
    """Corpora with 1-3 distinct lengths whose text sits in the title, the
    body or both, over ids drawn from one small pool, some not ASCII, so
    every build reuses the same ids in another order; a document may hold
    no token, and the analyzer may keep case, so "A" and "a" are two terms.
    Returns the documents, a query and the analyzer."""
    analyzer = draw(st.sampled_from([Analyzer(), Analyzer(lowercase=False)]))
    vocab = ["a", "b", "c", "d", "e", "A", "Ab"]
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    n = draw(st.integers(1, 20))
    pool = [f"doc{i}" for i in range(17)] + ["d\u00e93", "\u6587\u66f8", "\U0001f600"]
    ids = draw(st.permutations(pool))[:n]
    docs = []
    for did in ids:
        length = draw(st.sampled_from(lengths))
        words = draw(st.lists(st.sampled_from(vocab), min_size=length, max_size=length))
        split = draw(st.integers(0, length))
        docs.append(Document(did, " ".join(words[:split]), " ".join(words[split:])))
    query = " ".join(draw(st.lists(st.sampled_from(vocab + ["oov"]), max_size=5)))
    return docs, query, analyzer


def _saved(index):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "index.json")
        save_index(index, path)
        return Path(path).read_bytes(), load_index(path)


@settings(max_examples=150, deadline=None)
@given(persisted_corpora(), st.sampled_from([0.5, 10.0, 1000.0]), st.sampled_from([0.0, 0.4, 1.0]))
def test_loaded_index_searches_like_the_built_one(corpus, mu, b):
    docs, query, analyzer = corpus
    index = build_index(docs, analyzer)
    _, back = _saved(index)
    assert back == index
    for k in range(1, len(docs) + 3):
        assert dirichlet_search(back, DirichletParams(mu=mu), query, k) == \
               dirichlet_search(index, DirichletParams(mu=mu), query, k)
        assert bm25_search(back, Bm25Params(b=b), query, k) == \
               bm25_search(index, Bm25Params(b=b), query, k)


@settings(max_examples=100, deadline=None)
@given(persisted_corpora())
def test_resaving_a_loaded_index_gives_the_same_bytes(corpus):
    docs, _, analyzer = corpus
    first, back = _saved(build_index(docs, analyzer))
    second, _ = _saved(back)
    assert first == second


def test_term_frequency_counter_consistency():
    rng = random.Random(5)
    docs = random_corpus(rng, max_docs=10)
    index = build_index(docs)
    for doc in docs:
        counts = Counter(tokenize(doc.body))
        for term in [f"w{i}" for i in range(14)]:
            assert index.term_frequency(term, doc.id) == counts[term]
    with pytest.raises(KeyError, match="unknown doc id"):
        index.term_frequency("w1", "nope")
