"""Query-likelihood scoring through pluggable logprob providers.

A provider is any callable taking a LikelihoodRequest and returning a
LikelihoodResult with the provider's own tokenization of the continuation.
The relevance score of a (document, query) pair is the mean per-token log
probability of the query continuation given the rendered prompt.

Two providers ship here: an HTTP client for a remote logprobs endpoint and
a deterministic add-one-smoothed bigram model for offline use and testing.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import queue
import re
import threading
import time
from collections import Counter
from itertools import compress
from typing import Callable, Iterable

from .corpus import (DEFAULT_DOC_MAX_CHARS, DEFAULT_MAX_WORKERS, Document, ProviderError, Query,
                     Run, _Frozen, _set, _sum_in_order, check_value, words)
from .prompts import (
    FewShotExample,
    PromptTemplate,
    render_fewshot,
    render_prompt,
)

logger = logging.getLogger(__name__)

LOGPROB_FLOOR = -100.0

UNK = "<unk>"

# RemoteProvider tries a request ATTEMPTS times at most, sleeping BACKOFF_S, 2 * BACKOFF_S, ...
ATTEMPTS, BACKOFF_S = 3, 0.5


class TransportError(ProviderError):
    """HTTP/network failure that persisted through retries."""


class ProtocolError(ProviderError):
    """The endpoint answered, but not with a valid logprobs payload."""


class LikelihoodRequest(_Frozen):
    """Context (rendered prompt) and the continuation to be scored."""

    context: str
    continuation: str

    def __init__(self, context: str, continuation: str) -> None:
        if not continuation:
            raise ValueError("continuation must be non-empty")
        _set(self, "context", context)
        _set(self, "continuation", continuation)


def make_request(context: str, continuation: str) -> LikelihoodRequest:
    """Build a request, inserting one space between context and continuation
    unless the context already ends in whitespace. Without it, tokenizers
    glue the first query token onto the prompt's last word."""
    if context and not context[-1].isspace() and not continuation[:1].isspace():
        continuation = " " + continuation
    return LikelihoodRequest(context=context, continuation=continuation)


class LikelihoodResult(_Frozen):
    """Per-token log probabilities of the continuation, as tokenized by the
    provider. All values must be finite (providers floor -inf)."""

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __init__(self, tokens: tuple[str, ...], logprobs: tuple[float, ...]) -> None:
        if len(tokens) != len(logprobs):
            raise ProtocolError(f"{len(tokens)} tokens but {len(logprobs)} logprobs")
        for lp in logprobs:
            if not math.isfinite(lp):
                raise ProtocolError(f"non-finite logprob {lp!r}")
        _set(self, "tokens", tokens)
        _set(self, "logprobs", logprobs)


Provider = Callable[[LikelihoodRequest], LikelihoodResult]


def score_query_likelihood(result: LikelihoodResult) -> float:
    """Mean per-token log probability: the relevance score of the pair."""
    if not result.logprobs:
        raise ValueError("cannot score an empty likelihood result")
    return _sum_in_order(result.logprobs) / len(result.logprobs)


def floor_logprobs(values: list[float]) -> list[float]:
    """Replace -inf/NaN with LOGPROB_FLOOR and clamp below it, warning once per call."""
    floored = []
    clamped = 0
    for v in values:
        if math.isnan(v) or v < LOGPROB_FLOOR:
            clamped += 1
            v = LOGPROB_FLOOR
        floored.append(v)
    if clamped:
        logger.warning("floored %d non-finite or sub-floor logprobs to %g", clamped, LOGPROB_FLOOR)
    return floored


# ---------------------------------------------------------------------------
# Remote provider
# ---------------------------------------------------------------------------

class RemoteProvider:
    """Client for the logprobs wire protocol.

    POST {endpoint}/v1/loglikelihood with {"context", "continuation"}
    and expect {"tokens": [...], "logprobs": [...]}. Transient failures
    (connection errors, 5xx, 429) are retried with exponential backoff;
    other non-200 answers and malformed payloads fail immediately.

    Keep-alive connections wait in one idle list that every thread and call
    shares: a request takes one, or opens one, and puts it back when it
    ends, closed if its POST failed. So it holds at most as many as it ever
    had requests in flight at once. A reused one that the server has
    dropped is reopened once without counting an attempt.
    Proxy variables and .netrc are not read. The standard library's HTTP
    stack is imported when a provider is built, so the package and its
    offline verbs load without it.
    """

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        timeout: float = 30.0,
    ):
        import http.client
        from urllib.parse import urlsplit

        if re.match(r"[^/?#]*//[^/?#]*@", endpoint):  # never sent; no message may repeat it
            raise ValueError("endpoint must not hold user info; authenticate with a bearer token")
        self.url = endpoint.rstrip("/") + "/v1/loglikelihood"
        self._headers = {"Content-Type": "application/json",
                         **({"Authorization": f"Bearer {auth_token}"} if auth_token else {})}
        self._idle: list[http.client.HTTPConnection] = []  # append and pop are atomic
        try:
            url = urlsplit(self.url)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError
            if url.scheme == "https":
                import ssl

                cls, tls = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
            else:
                cls, tls = http.client.HTTPConnection, {}
            self._open = functools.partial(cls, url.hostname, url.port or cls.default_port,
                                           timeout=timeout, **tls)
            self._open()  # checks host and port; connects on first use
        except (ValueError, http.client.InvalidURL):
            raise ValueError(f"endpoint must be an http:// or https:// URL with a host, "
                             f"got {endpoint!r}") from None
        # urlsplit drops tabs and newlines; http.client sends no control character, space or
        # non-ASCII character in a path, and a query or fragment would cut off the API path
        if any(c in "?#\x7f" or c <= " " for c in endpoint) or not url.path.isascii():
            raise ValueError(f"endpoint must hold no query, fragment, space or control "
                             f"character, nor a non-ASCII path, got {endpoint!r}")
        self._path = url.path

    def _post(self, conn, body: bytes) -> tuple[int, bytes]:
        """One POST on `conn`: (status, body), closing `conn` if it fails. A reused
        socket found dropped (RemoteDisconnected is a ConnectionResetError) is reopened."""
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._path, body, self._headers)
                response = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()  # the next request opens a new socket
                conn.request("POST", self._path, body, self._headers)
                response = conn.getresponse()
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def close(self) -> None:
        """Close the idle connections; call it with no request in flight."""
        while self._idle:
            self._idle.pop().close()

    def __call__(self, request: LikelihoodRequest) -> LikelihoodResult:
        import http.client

        body = json.dumps({"context": request.context,
                           "continuation": request.continuation}).encode("utf-8")
        try:
            conn = self._idle.pop()
        except IndexError:  # none idle
            conn = self._open()
        try:
            last_error: Exception | None = None
            for attempt in range(ATTEMPTS):
                if attempt:
                    time.sleep(BACKOFF_S * 2 ** (attempt - 1))
                try:
                    status, data = self._post(conn, body)
                except (OSError, http.client.HTTPException) as exc:
                    last_error = exc
                    logger.warning("request to %s failed (attempt %d/%d): %s",
                                   self.url, attempt + 1, ATTEMPTS, exc)
                    continue
                if status == 200:
                    return self._decode(data)
                if status >= 500 or status == 429:
                    last_error = TransportError(f"{self.url} answered {status}")
                    logger.warning("%s (attempt %d/%d)", last_error, attempt + 1, ATTEMPTS)
                    continue
                raise TransportError(f"{self.url} answered {status}")
            raise TransportError(f"{self.url} unreachable after {ATTEMPTS} attempts: "
                                 f"{last_error}")
        finally:
            self._idle.append(conn)

    def _decode(self, data: bytes) -> LikelihoodResult:
        try:
            # an integer parses as its float literal would: -1e400 floors, 1e400 fails
            payload = json.loads(data, parse_int=float)
            tokens, logprobs = payload["tokens"], payload["logprobs"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ProtocolError(f"malformed response from {self.url}: {exc}") from exc
        if (not isinstance(tokens, list) or not tokens
                or not all(isinstance(t, str) for t in tokens)):
            raise ProtocolError(f"tokens from {self.url} must be a non-empty list of strings")
        # every JSON number is a float now; a bool or a string such as "12" is not
        if not isinstance(logprobs, list) or not all(type(v) is float for v in logprobs):
            raise ProtocolError(f"logprobs from {self.url} must be a list of numbers")
        return LikelihoodResult(tuple(tokens), tuple(floor_logprobs(logprobs)))


# ---------------------------------------------------------------------------
# Bigram reference language model
# ---------------------------------------------------------------------------

def _last_word(text: str) -> str | None:
    """The last of words(text), or None if it has none, tokenizing only as
    much of the end of the text as it needs.

    str.lower maps each character on its own (final sigma aside, which never
    yields [a-z0-9]), so when a tail of the text holds two or more words, a
    separator precedes its last one, which is then the text's last word.
    Otherwise the tail doubles.
    """
    size = 64
    while True:
        start = max(0, len(text) - size)
        tail = words(text[start:])
        if start == 0 or len(tail) > 1:
            return tail[-1] if tail else None
        size *= 2


class BigramLm:
    """Add-one-smoothed word bigram model: a deterministic offline provider.

    Training appends a terminal UNK to every text so each token occurrence
    contributes exactly one bigram; that makes P(.|w) a proper distribution
    over vocabulary + UNK:  P(v|w) = (c(w,v) + 1) / (c(w) + V + 1).

    train(texts, continuations), for requests that continue with their words,
    counts only the bigrams ending in one of them or UNK, its `scope`. Each
    logprob equals the full model's; a word outside the scope raises ValueError.

    Calls memoize each context's last word, keyed by the context string, and
    each finished result, keyed by (that last word, the continuation), since
    the bigram chain sees no more of the context. Memory grows with the
    distinct contexts and (last word, continuation) pairs scored. The memos
    never change an answer; callers on concurrent threads can at worst
    compute the same value twice.
    """

    def __init__(self, unigrams: Counter[str], bigrams: Counter[tuple[str, str]],
                 scope: set[str] | None = None):
        self.unigrams = unigrams
        self.bigrams = bigrams
        self.scope = scope  # None: every bigram was counted
        self.vocab_size = len(unigrams)  # the vocabulary is unigrams' keys
        self._last_words: dict[str, str | None] = {}
        self._results: dict[tuple[str | None, str], LikelihoodResult] = {}

    @classmethod
    def train(cls, texts: Iterable[str], continuations: list[str] | None = None) -> BigramLm:
        unigrams: Counter[str] = Counter()
        bigrams: Counter[tuple[str, str]] = Counter()
        scope = None if continuations is None else {UNK}.union(*map(words, continuations))
        for text in texts:
            tokens = words(text)
            unigrams.update(tokens)
            following = tokens[1:] + [UNK]
            pairs = zip(tokens, following)
            bigrams.update(pairs if scope is None else
                           compress(pairs, map(scope.__contains__, following)))
        if not unigrams:
            raise ValueError("cannot train a bigram model on an empty corpus")
        return cls(unigrams, bigrams, scope)

    def _canon(self, word: str) -> str:
        return word if word in self.unigrams else UNK

    def logprob(self, word: str, prev: str | None) -> float:
        """ln P(word | prev); prev=None means no usable context (UNK path)."""
        w = self._canon(prev) if prev is not None else UNK
        v = self._canon(word)
        if self.scope is not None and v not in self.scope:  # its bigram counts were not kept
            raise ValueError(f"word {word!r} is outside this bigram model's continuations")
        # c(w) counts w's occurrences as a bigram context; terminal UNKs
        # never precede anything, so their context count is 0.
        context_count = self.unigrams[w] if w != UNK else 0
        pair_count = self.bigrams[(w, v)]
        return math.log((pair_count + 1) / (context_count + self.vocab_size + 1))

    def __call__(self, request: LikelihoodRequest) -> LikelihoodResult:
        context = request.context
        try:
            prev = self._last_words[context]
        except KeyError:
            prev = self._last_words[context] = _last_word(context)
        key = prev, request.continuation
        try:
            return self._results[key]
        except KeyError:
            pass
        tokens = words(request.continuation)
        if not tokens:  # a failure of this pair, which on_error="floor" scores at the floor
            raise ProviderError(f"continuation {request.continuation!r} has no word tokens")
        # each word given the one before it; the first word's is the context's last
        logprobs = tuple(map(self.logprob, tokens, [prev, *tokens[:-1]]))
        result = self._results[key] = LikelihoodResult(tokens=tuple(tokens), logprobs=logprobs)
        return result


# ---------------------------------------------------------------------------
# Re-ranking
# ---------------------------------------------------------------------------

def rerank(
    provider: Provider,
    template: PromptTemplate,
    query: Query,
    candidates: list[tuple[str, float]],
    doc_lookup: dict[str, Document],
    **kwargs,
) -> Run:
    """Re-score one query's candidates by query likelihood.

    The output run holds exactly the input candidate set, re-sorted by mean
    query-token logprob. This is rerank_run's scheduler on a single query;
    keyword arguments are as there.
    """
    return _rerank(provider, template, [(query, candidates)], doc_lookup, **kwargs)


def rerank_run(
    provider: Provider,
    template: PromptTemplate,
    queries: list[Query],
    first_stage: Run,
    doc_lookup: dict[str, Document],
    depth: int = 100,
    **kwargs,
) -> Run:
    """Re-rank the top `depth` candidates of every query in a run.

    All (query, doc) pairs of the run form one work list, which the calling
    thread and max_workers - 1 helper threads score, whatever the provider;
    results do not depend on request scheduling order. Each document's
    prompt is rendered once, whatever the number of queries it serves.

    Keyword arguments: doc_max_chars, fewshot (guidance triples, or None
    for zero-shot), max_workers, tag, and on_error: "fail" propagates the
    first provider failure and no thread takes a further pair, "floor" scores
    each failing pair at LOGPROB_FLOOR instead. Queries without
    first-stage candidates are omitted.
    """
    check_value("depth", depth)
    work = [(query, first_stage.entries.get(query.id, [])[:depth]) for query in queries]
    return _rerank(provider, template, [(q, c) for q, c in work if c], doc_lookup, **kwargs)


def _rerank(
    provider: Provider,
    template: PromptTemplate,
    work: list[tuple[Query, list[tuple[str, float]]]],
    doc_lookup: dict[str, Document],
    doc_max_chars: int = DEFAULT_DOC_MAX_CHARS,
    fewshot: list[FewShotExample] | None = None,
    max_workers: int = DEFAULT_MAX_WORKERS,
    on_error: str = "fail",
    tag: str = "qlm",
) -> Run:
    if on_error not in ("fail", "floor"):
        raise ValueError(f"on_error must be 'fail' or 'floor', got {on_error!r}")
    check_value("max_workers", max_workers)
    # the prompt depends on the document only, never on the query
    prompts: dict[str, str] = {}
    pairs: list[tuple[Query, Document]] = []
    for query, candidates in work:
        for did, _ in candidates:
            if did not in doc_lookup:
                raise KeyError(f"candidate doc id {did!r} not in the document lookup")
            doc = doc_lookup[did]
            if did not in prompts:
                prompts[did] = (render_fewshot(template, fewshot, doc, doc_max_chars)
                                if fewshot is not None
                                else render_prompt(template, doc, doc_max_chars))
            pairs.append((query, doc))

    def score_pair(pair: tuple[Query, Document]) -> float:
        query, doc = pair
        # every pair of a document shares its one prompt object, so a provider
        # keying on the context (BigramLm's memo) hashes that string once
        request = make_request(prompts[doc.id], query.text)
        try:
            return score_query_likelihood(provider(request))
        except ProviderError:
            if on_error == "fail":
                raise
            logger.warning("provider failed on doc %s, query %s; scoring at floor %g",
                           doc.id, query.id, LOGPROB_FLOOR)
            return LOGPROB_FLOOR

    scores = iter(_map_pairs(score_pair, pairs, max_workers))
    return Run({query.id: [(did, next(scores)) for did, _ in candidates]
                for query, candidates in work}, tag=tag)


def _map_pairs(fn: Callable[[tuple[Query, Document]], float],
               items: list[tuple[Query, Document]], max_workers: int) -> list[float]:
    """[fn(item) for item in items], computed by the calling thread and at most
    max_workers - 1 helper threads that each take the next item off one queue
    and store its result by index. After a failure no thread takes an item.
    Once the helpers have joined, an interrupt is raised, else the exception
    of the lowest failed item: the loop's first, as every item below it was
    taken before it and so has run."""
    todo = queue.SimpleQueue()
    for entry in enumerate(items):
        todo.put(entry)
    results = [0.0] * len(items)
    failures: list[tuple[bool, int, BaseException]] = []  # (not an interrupt, item, exception)

    def drain() -> None:
        i = -1
        try:
            while not failures:
                try:
                    i, item = todo.get_nowait()
                except queue.Empty:
                    return
                results[i] = fn(item)
        except BaseException as exc:  # KeyboardInterrupt too: it stops the helpers as well
            failures.append((isinstance(exc, Exception), i, exc))

    helpers = [threading.Thread(target=drain) for _ in range(min(max_workers, len(items)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    return results
