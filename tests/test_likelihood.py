import math
import random
import sys
import threading
import time
import zlib
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

import qlmrank.likelihood as likelihood
from qlmrank.corpus import Document, Query, Run
from qlmrank.likelihood import (
    BigramLm,
    LikelihoodRequest,
    LikelihoodResult,
    ProtocolError,
    ProviderError,
    UNK,
    _last_word,
    floor_logprobs,
    make_request,
    rerank,
    rerank_run,
    score_query_likelihood,
)
from qlmrank.prompts import PromptTemplate
from qlmrank.ranking import words


def constant_provider(logprob):
    """Provider assigning the same logprob to every whitespace token."""
    def provide(request):
        tokens = tuple(request.continuation.split())
        return LikelihoodResult(tokens=tokens, logprobs=(logprob,) * len(tokens))
    return provide


class TestScore:
    def test_single_token(self):
        result = LikelihoodResult(tokens=("x",), logprobs=(-1.5,))
        assert score_query_likelihood(result) == -1.5

    def test_mean(self):
        result = LikelihoodResult(tokens=("a", "b"), logprobs=(-1.0, -3.0))
        assert score_query_likelihood(result) == -2.0

    def test_uniform_model_score_is_length_invariant(self):
        provider = constant_provider(-math.log(10))
        for text in ("one", "one two", "one two three four five"):
            result = provider(LikelihoodRequest(context="c", continuation=text))
            assert score_query_likelihood(result) == pytest.approx(-math.log(10))

    def test_empty_rejected(self):
        result = LikelihoodResult(tokens=(), logprobs=())
        with pytest.raises(ValueError):
            score_query_likelihood(result)


class TestRequest:
    def test_space_inserted_when_context_ends_mid_word(self):
        request = make_request("prompt text", "query")
        assert request.continuation == " query"

    def test_no_space_when_context_ends_in_whitespace(self):
        request = make_request("prompt text\n", "query")
        assert request.continuation == "query"

    def test_empty_continuation_rejected(self):
        with pytest.raises(ValueError):
            LikelihoodRequest(context="c", continuation="")


class TestLikelihoodResult:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            LikelihoodResult(tokens=("a", "b"), logprobs=(-1.0,))

    def test_non_finite_rejected(self):
        with pytest.raises(ProtocolError):
            LikelihoodResult(tokens=("a",), logprobs=(-math.inf,))

    def test_floor_logprobs(self, caplog):
        with caplog.at_level("WARNING"):
            floored = floor_logprobs([-1.0, -math.inf, math.nan, -500.0])
        assert floored == [-1.0, -100.0, -100.0, -100.0]
        assert "floored" in caplog.text


class TestBigramLm:
    def test_hand_counted_probabilities(self):
        # training text "a b a b": V=2, c(a,b)=2, c(a)=2
        lm = BigramLm.train(["a b a b"])
        assert lm.vocab_size == 2
        assert math.exp(lm.logprob("b", "a")) == pytest.approx(0.6)
        assert math.exp(lm.logprob(UNK, "a")) == pytest.approx(0.2)
        assert math.exp(lm.logprob("b", "b")) == pytest.approx(0.2)

    def test_distributions_sum_to_one(self):
        lm = BigramLm.train(["a b a b"])
        for context in ("a", "b", UNK):
            total = sum(math.exp(lm.logprob(v, context)) for v in ("a", "b", UNK))
            assert total == pytest.approx(1.0)

    def test_random_corpora_distributions_sum_to_one(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(10):
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                     for _ in range(rng.randint(1, 5))]
            lm = BigramLm.train(texts)
            events = sorted(lm.vocab) + [UNK]
            for context in events:
                total = sum(math.exp(lm.logprob(v, context)) for v in events)
                assert total == pytest.approx(1.0)

    def test_continuation_conditions_on_context_tail(self):
        lm = BigramLm.train(["a b a b"])
        result = lm(LikelihoodRequest(context="prefix that ends in a", continuation="b"))
        assert result.logprobs[0] == pytest.approx(math.log(0.6))

    def test_chain_rule_over_continuation(self):
        lm = BigramLm.train(["a b a b"])
        result = lm(LikelihoodRequest(context="... a", continuation="b b"))
        assert list(result.logprobs) == pytest.approx([math.log(0.6), math.log(0.2)])

    def test_unknown_words_stay_finite(self):
        lm = BigramLm.train(["a b a b"])
        result = lm(LikelihoodRequest(context="xyzzy", continuation="plugh quux"))
        assert all(math.isfinite(lp) for lp in result.logprobs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            BigramLm.train([])
        with pytest.raises(ValueError):
            BigramLm.train(["...", "!!"])

    def test_empty_continuation_rejected(self):
        lm = BigramLm.train(["a b"])
        with pytest.raises(ValueError):
            lm(LikelihoodRequest(context="a", continuation="..."))

    @given(st.lists(st.one_of(
        st.sampled_from(["", "...", "!?", " \n", "a", "B", "x1", "a a a", "a, b. a!"]),
        st.lists(st.sampled_from(["a", "b", "cd", "x1", ".", "!", "Ab"]), max_size=8)
        .map(" ".join)), max_size=8))
    @example([])
    @example(["", "..."])
    @example(["a", "a"])
    def test_train_counts_equal_the_per_token_loop(self, texts):
        unigrams, bigrams = Counter(), Counter()
        for text in texts:
            tokens = words(text)
            for i, token in enumerate(tokens):
                unigrams[token] += 1
                bigrams[(token, tokens[i + 1] if i + 1 < len(tokens) else UNK)] += 1
        if not unigrams:
            with pytest.raises(ValueError):
                BigramLm.train(texts)
            return
        lm = BigramLm.train(texts)
        assert lm.unigrams == unigrams
        assert lm.bigrams == bigrams
        assert lm.vocab_size == len({w for text in texts for w in words(text)})


# "İ" lowercases to "i" plus a combining dot, and the Kelvin sign to "k"
_TRICKY = st.sampled_from(list("ab09 .!\nßİ\u212a\u0307Σσ"))


class TestLastWord:
    @given(st.text())
    @example("İ")
    @example("aİ")
    @example("İb")
    @example("ß")
    @example("straße")
    @example("\u212a")
    @example("end of text!?  \n\t")
    @example("question 42")
    @example("abc123")
    @example("")
    @example("... !!")
    def test_equals_last_of_words(self, text):
        assert _last_word(text) == (words(text) or [None])[-1]

    @given(st.text(alphabet=_TRICKY, max_size=400))
    @example("x" * 300)
    @example("a" + " " * 300)
    @example("İ" * 100)
    def test_equals_last_of_words_past_the_first_tail(self, text):
        assert _last_word(text) == (words(text) or [None])[-1]


def chain(lm, context, continuation):
    """The continuation's logprobs from lm.logprob alone, bypassing the memo."""
    prev = (words(context) or [None])[-1]
    logprobs = []
    for token in words(continuation):
        logprobs.append(lm.logprob(token, prev))
        prev = token
    return logprobs


def count_logprob_calls(lm):
    """Replace lm.logprob with a wrapper that counts its (prev, word) calls."""
    calls = Counter()
    original = lm.logprob

    def counting(word, prev):
        calls[prev, word] += 1
        return original(word, prev)
    lm.logprob = counting
    return calls


_MEMO_CORPUS = ["a b a b", "b c c a", "the cat sat on the mat"]


class TestBigramMemo:
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from(["", "...", "ends in a", "also a", "the", "zz!"]),
                  st.text(alphabet="abct .!", max_size=20)),
        st.lists(st.sampled_from(["a", "b", "c", "cat", "the", "zz"]), min_size=1,
                 max_size=5).map(" ".join)), min_size=1, max_size=10))
    def test_calls_equal_the_logprob_chain(self, pairs):
        lm = BigramLm.train(_MEMO_CORPUS)
        # repeated and interleaved: every pair forwards, then backwards
        for context, continuation in pairs + pairs[::-1]:
            result = lm(make_request(context, continuation))
            assert list(result.logprobs) == chain(lm, context, continuation)

    def test_contexts_sharing_a_last_word(self):
        lm = BigramLm.train(_MEMO_CORPUS)
        calls = count_logprob_calls(lm)
        first = lm(LikelihoodRequest(context="this one ends in a", continuation="b c"))
        second = lm(LikelihoodRequest(context="another, also a", continuation="b c"))
        assert first == second
        assert list(first.logprobs) == chain(BigramLm.train(_MEMO_CORPUS), "a", "b c")
        assert calls == Counter({("a", "b"): 1, ("b", "c"): 1})

    @pytest.mark.parametrize("fewshot", [False, True])
    def test_one_logprob_per_distinct_pair_across_a_run(self, monkeypatch, fewshot):
        from qlmrank.prompts import FewShotExample, render_fewshot, render_prompt
        docs = {f"d{i}": Document(f"d{i}", "", f"the {w} sat on mat {i % 3}")
                for i, w in enumerate(["cat", "dog", "cat", "bird", "dog", "cat"])}
        queries = [Query("q1", "the cat sat"), Query("q2", "a cat on the mat"),
                   Query("q3", "the dog")]
        first_stage = Run({q.id: [(did, 0.0) for did in docs] for q in queries})
        template = PromptTemplate(body="Question for: {doc}")
        triples = [FewShotExample("a cat", "what sat", "why")] * 3 if fewshot else None
        lm = BigramLm.train([d.body for d in docs.values()])
        calls = count_logprob_calls(lm)
        last_words = Counter()

        def counting_last_word(text, _original=likelihood._last_word):
            last_words[text] += 1
            return _original(text)
        monkeypatch.setattr(likelihood, "_last_word", counting_last_word)
        rerank_run(lm, template, queries, first_stage, docs, fewshot=triples, max_workers=1)

        prompts = {did: render_fewshot(template, triples, doc) if fewshot
                   else render_prompt(template, doc) for did, doc in docs.items()}
        expected, scored = set(), 0
        for query in queries:
            for prompt in prompts.values():
                prev = (words(prompt) or [None])[-1]
                for token in words(query.text):
                    expected.add((prev, token))
                    prev = token
                    scored += 1
        assert set(calls) == expected
        assert max(calls.values()) == 1
        assert len(calls) < scored
        assert last_words == Counter(set(prompts.values()))

    @pytest.mark.parametrize("fewshot", [True, False])
    def test_one_result_per_distinct_last_word_and_query(self, monkeypatch, fewshot):
        from qlmrank.prompts import FewShotExample, render_fewshot, render_prompt
        docs = {f"d{i}": Document(f"d{i}", "", f"the {w} sat on mat {i % 3}")
                for i, w in enumerate(["cat", "dog", "cat", "bird", "dog", "cat"])}
        queries = [Query("q1", "the cat sat"), Query("q2", "a cat on the mat"),
                   Query("q3", "the dog"), Query("q4", "the cat sat")]
        first_stage = Run({q.id: [(did, 0.0) for did in docs] for q in queries})
        template = PromptTemplate(body="Question for: {doc}")
        triples = [FewShotExample("a cat", "what sat", "why")] * 3 if fewshot else None
        texts = [d.body for d in docs.values()]
        lm = BigramLm.train(texts)
        built = []

        def counting_result(*, tokens, logprobs, _original=likelihood.LikelihoodResult):
            built.append(tokens)
            return _original(tokens=tokens, logprobs=logprobs)
        monkeypatch.setattr(likelihood, "LikelihoodResult", counting_result)
        run = rerank_run(lm, template, queries, first_stage, docs, fewshot=triples,
                         max_workers=1)
        monkeypatch.undo()

        prompts = {did: render_fewshot(template, triples, doc) if fewshot
                   else render_prompt(template, doc) for did, doc in docs.items()}
        distinct = {(words(prompt)[-1], query.text)
                    for prompt in prompts.values() for query in queries}
        assert len(built) == len(distinct) < len(queries) * len(docs)
        fresh = BigramLm.train(texts)
        for query in queries:
            for did, score in run.entries[query.id]:
                request = make_request(prompts[did], query.text)
                assert lm(request) == fresh(request)
                assert score == score_query_likelihood(fresh(request))

    def test_concurrent_callers_get_the_serial_answers(self):
        rng = random.Random(5)
        vocab = ["a", "b", "c", "cat", "the", "zz"]
        requests = [make_request(" ".join(rng.choices(vocab, k=rng.randint(1, 6))),
                                 " ".join(rng.choices(vocab, k=rng.randint(1, 4))))
                    for _ in range(300)]
        expected = [chain(BigramLm.train(_MEMO_CORPUS), r.context, r.continuation)
                    for r in requests]
        lm = BigramLm.train(_MEMO_CORPUS)
        results = [None] * len(requests)

        def work(offset):
            for i in range(offset, offset + len(requests)):
                i %= len(requests)
                results[i] = list(lm(requests[i]).logprobs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(37 * n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected


class TestRerank:
    template = PromptTemplate(body="Question for: {doc}")
    docs = {
        "d1": Document("d1", "", "alpha alpha beta"),
        "d2": Document("d2", "", "beta gamma"),
        "d3": Document("d3", "", "gamma gamma gamma"),
    }

    def test_sorts_by_score(self):
        scores = {"d1": -2.0, "d2": -1.0}

        def provider(request):
            for did, doc in self.docs.items():
                if doc.body in request.context:
                    return LikelihoodResult(tokens=("q",), logprobs=(scores[did],))
            raise AssertionError("unmatched request")

        for order in (["d1", "d2"], ["d2", "d1"]):
            run = rerank(provider, self.template, Query("q1", "query"),
                         [(did, 0.0) for did in order], self.docs)
            assert run.doc_ids("q1") == ["d2", "d1"]

    def test_uniform_provider_degenerates_to_doc_id_order(self):
        run = rerank(constant_provider(-1.0), self.template, Query("q1", "what beta"),
                     [("d2", 9.0), ("d3", 5.0), ("d1", 1.0)], self.docs)
        assert run.doc_ids("q1") == ["d1", "d2", "d3"]

    def test_output_is_permutation_of_input(self):
        rng = random.Random(17)
        lm = BigramLm.train([d.body for d in self.docs.values()])
        for _ in range(10):
            subset = rng.sample(sorted(self.docs), rng.randint(1, 3))
            run = rerank(lm, self.template, Query("q1", "beta gamma"),
                         [(did, rng.random()) for did in subset], self.docs)
            assert sorted(run.doc_ids("q1")) == sorted(subset)

    def test_scheduling_order_independent(self):
        lm = BigramLm.train([d.body for d in self.docs.values()])
        candidates = [(did, 0.0) for did in self.docs]
        runs = [
            rerank(lm, self.template, Query("q1", "alpha beta"), list(candidates),
                   self.docs, max_workers=workers)
            for workers in (1, 2, 8)
        ]
        assert runs[0].entries == runs[1].entries == runs[2].entries

    def test_unknown_candidate_rejected(self):
        with pytest.raises(KeyError):
            rerank(constant_provider(-1.0), self.template, Query("q1", "x"),
                   [("missing", 1.0)], self.docs)

    def test_provider_failure_propagates_by_default(self):
        def failing(request):
            raise ProviderError("backend down")

        with pytest.raises(ProviderError):
            rerank(failing, self.template, Query("q1", "x"), [("d1", 0.0)], self.docs)

    def test_floor_policy_scores_failed_docs_at_floor(self):
        def flaky(request):
            if "beta gamma" in request.context:  # only d2's body
                raise ProviderError("backend down")
            return LikelihoodResult(tokens=("q",), logprobs=(-1.0,))

        run = rerank(flaky, self.template, Query("q1", "x"),
                     [("d1", 0.0), ("d2", 0.0)], self.docs,
                     on_error="floor", max_workers=1)
        scores = dict(run.entries["q1"])
        assert scores["d1"] == -1.0
        assert scores["d2"] == -100.0

    def test_fewshot_prompts_used_when_triples_given(self):
        from qlmrank.prompts import FewShotExample
        triples = [FewShotExample(f"doc {i}", f"good {i}", f"bad {i}") for i in range(3)]
        seen = []

        def provider(request):
            seen.append(request.context)
            return LikelihoodResult(tokens=("q",), logprobs=(-1.0,))

        rerank(provider, self.template, Query("q1", "x"), [("d1", 0.0)], self.docs,
               fewshot=triples, max_workers=1)
        assert seen[0].count("Good question:") == 4


class TestRerankRun:
    def test_covers_all_queries_to_depth(self):
        docs = {f"d{i}": Document(f"d{i}", "", f"word{i} common") for i in range(6)}
        lm = BigramLm.train([d.body for d in docs.values()])
        first_stage = Run({
            "q1": [(f"d{i}", 10.0 - i) for i in range(6)],
            "q2": [("d0", 3.0), ("d1", 2.0)],
        }, tag="bm25")
        queries = [Query("q1", "common word1"), Query("q2", "word0")]
        out = rerank_run(lm, PromptTemplate(body="{doc}"), queries, first_stage, docs,
                         depth=4)
        assert sorted(out.doc_ids("q1")) == ["d0", "d1", "d2", "d3"]
        assert sorted(out.doc_ids("q2")) == ["d0", "d1"]
        assert out.tag == "qlm"

    def test_queries_missing_from_run_are_omitted(self):
        docs = {"d1": Document("d1", "", "alpha")}
        lm = BigramLm.train(["alpha"])
        first_stage = Run({"q1": [("d1", 1.0)]})
        out = rerank_run(lm, PromptTemplate(body="{doc}"),
                         [Query("q1", "alpha"), Query("q9", "beta")],
                         first_stage, docs)
        assert out.query_ids() == ["q1"]


def pair_provider(calls=None, fail=lambda number, request: False, delay=0.0):
    """Provider whose score depends on both the prompt and the query.

    Records each request in `calls`, raises ProviderError where
    fail(call number, request) says so, and sleeps a varying time so
    threaded runs complete out of order."""
    calls = [] if calls is None else calls
    lock = threading.Lock()

    def provide(request):
        with lock:
            number = len(calls)
            calls.append((request.context, request.continuation))
        if fail(number, request):
            raise ProviderError("backend down")
        h = zlib.crc32(f"{request.context}|{request.continuation}".encode())
        if delay:
            time.sleep(delay * (h % 3))
        return LikelihoodResult(tokens=("q",), logprobs=(-(h % 1000) / 100.0,))
    return provide


class TestScheduler:
    """rerank_run scores one work list of every (query, doc) pair."""

    template = PromptTemplate(body="Question for: {doc}")

    def corpus(self, n_docs=12, n_queries=5, depth=8):
        docs = {f"d{i:03d}": Document(f"d{i:03d}", "", f"body of document {i}")
                for i in range(n_docs)}
        rng = random.Random(3)
        first_stage = Run({
            f"q{j}": [(did, rng.random()) for did in rng.sample(sorted(docs), depth)]
            for j in range(n_queries)
        }, tag="bm25")
        queries = [Query(f"q{j}", f"query number {j}") for j in range(n_queries)]
        return docs, first_stage, queries

    def test_output_independent_of_worker_count(self):
        docs, first_stage, queries = self.corpus()
        runs = [rerank_run(pair_provider(delay=0.001), self.template, queries,
                           first_stage, docs, depth=6, max_workers=workers)
                for workers in (1, 2, 8)]
        assert runs[0].entries == runs[1].entries == runs[2].entries
        assert len(set(s for pairs in runs[0].entries.values() for _, s in pairs)) > 1

    def test_one_provider_call_per_pair(self):
        docs, first_stage, queries = self.corpus()
        calls = []
        rerank_run(pair_provider(calls), self.template, queries, first_stage, docs,
                   depth=6, max_workers=4)
        texts = {q.id: q.text for q in queries}
        want = Counter((did, " " + texts[qid]) for qid, pairs in first_stage.entries.items()
                       for did, _ in pairs[:6])
        got = Counter((next(did for did, d in docs.items() if context.endswith(d.body)),
                       continuation) for context, continuation in calls)
        assert got == want and max(got.values()) == 1

    def test_every_pair_scored_once_under_contention(self):
        docs, first_stage, queries = self.corpus(n_docs=100, n_queries=5, depth=100)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = rerank_run(pair_provider(calls), self.template, queries, first_stage, docs,
                             max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 500
        assert sum(len(ranking) for ranking in out.entries.values()) == 500

    @pytest.mark.parametrize("fewshot", [False, True])
    def test_each_prompt_rendered_once_per_document(self, monkeypatch, fewshot):
        from qlmrank.prompts import FewShotExample
        docs, first_stage, queries = self.corpus(n_docs=6, n_queries=5, depth=4)
        rendered = Counter()
        for name in ("render_prompt", "render_fewshot"):
            original = getattr(likelihood, name)

            def counting(*args, _original=original):
                rendered[args[-2].id] += 1
                return _original(*args)
            monkeypatch.setattr(likelihood, name, counting)
        triples = [FewShotExample("doc", "good", "bad")] * 3 if fewshot else None
        rerank_run(pair_provider(), self.template, queries, first_stage, docs,
                   fewshot=triples, max_workers=2)
        distinct = {did for pairs in first_stage.entries.values() for did, _ in pairs}
        assert rendered == Counter(distinct)

    @pytest.mark.parametrize("workers", [1, 8])
    def test_first_failure_stops_the_run(self, workers):
        docs, first_stage, queries = self.corpus(n_docs=100, n_queries=5, depth=100)
        calls = []
        with pytest.raises(ProviderError):
            rerank_run(pair_provider(calls, fail=lambda n, r: n == 0, delay=0.001),
                       self.template, queries, first_stage, docs, max_workers=workers)
        assert len(calls) <= 2 * workers

    def test_floor_policy_floors_only_failing_pairs(self):
        docs, first_stage, queries = self.corpus()
        failing = docs["d003"].body
        provider = pair_provider(fail=lambda n, r: r.context.endswith(failing))
        floored = rerank_run(provider, self.template, queries, first_stage, docs,
                             depth=6, max_workers=4, on_error="floor")
        reference = rerank_run(pair_provider(), self.template, queries, first_stage,
                               docs, depth=6, max_workers=1)
        assert any("d003" in dict(pairs) for pairs in floored.entries.values())
        for qid, pairs in floored.entries.items():
            want = dict(reference.entries[qid])
            for did, score in pairs:
                assert score == (-100.0 if did == "d003" else want[did])
