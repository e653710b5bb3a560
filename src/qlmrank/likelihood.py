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
import itertools
import json
import logging
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .corpus import DEFAULT_DOC_MAX_CHARS, DEFAULT_MAX_WORKERS, Document, ProviderError, Query, Run
from .prompts import (
    FewShotExample,
    PromptTemplate,
    render_fewshot,
    render_prompt,
)
from .ranking import words

logger = logging.getLogger(__name__)

LOGPROB_FLOOR = -100.0

UNK = "<unk>"


class TransportError(ProviderError):
    """HTTP/network failure that persisted through retries."""


class ProtocolError(ProviderError):
    """The endpoint answered, but not with a valid logprobs payload."""


@dataclass(frozen=True)
class LikelihoodRequest:
    """Context (rendered prompt) and the continuation to be scored."""

    context: str
    continuation: str

    def __post_init__(self) -> None:
        if not self.continuation:
            raise ValueError("continuation must be non-empty")


def make_request(context: str, continuation: str) -> LikelihoodRequest:
    """Build a request, inserting one space between context and continuation
    unless the context already ends in whitespace. Without it, tokenizers
    glue the first query token onto the prompt's last word."""
    if context and not context[-1].isspace() and not continuation[:1].isspace():
        continuation = " " + continuation
    return LikelihoodRequest(context=context, continuation=continuation)


@dataclass(frozen=True)
class LikelihoodResult:
    """Per-token log probabilities of the continuation, as tokenized by the
    provider. All values must be finite (providers floor -inf)."""

    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logprobs):
            raise ProtocolError(
                f"{len(self.tokens)} tokens but {len(self.logprobs)} logprobs"
            )
        for lp in self.logprobs:
            if not math.isfinite(lp):
                raise ProtocolError(f"non-finite logprob {lp!r}")


Provider = Callable[[LikelihoodRequest], LikelihoodResult]


def score_query_likelihood(result: LikelihoodResult) -> float:
    """Mean per-token log probability: the relevance score of the pair."""
    if not result.logprobs:
        raise ValueError("cannot score an empty likelihood result")
    return sum(result.logprobs) / len(result.logprobs)


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

    Each calling thread keeps one keep-alive connection. A reused one that
    the server has dropped is reopened once without counting an attempt.
    `close` ends the connections of every thread.
    Proxy variables and .netrc are not read. The standard library's HTTP
    stack is imported when a provider is built, so the package and its
    offline verbs load without it.
    """

    def __init__(
        self,
        endpoint: str,
        auth_token: str | None = None,
        attempts: int = 3,
        backoff: float = 0.5,
        timeout: float = 30.0,
    ):
        import http.client
        from urllib.parse import urlsplit

        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.url = endpoint.rstrip("/") + "/v1/loglikelihood"
        self._headers = {"Content-Type": "application/json",
                         **({"Authorization": f"Bearer {auth_token}"} if auth_token else {})}
        self.attempts = attempts
        self.backoff = backoff
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []  # every thread's, for close()
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
        self._path = url.path

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on this thread's connection: (status, body). A reused socket
        found dropped (RemoteDisconnected is a ConnectionResetError) is reopened."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._open()
            with self._lock:
                self._conns.append(conn)
        reused = conn.sock is not None
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

    def close(self) -> None:
        """Close the connections of every thread. Call it with no request in
        flight; a later request opens a new connection."""
        with self._lock:
            conns, self._conns = self._conns, []
            self._local = threading.local()
        for conn in conns:
            conn.close()

    def __call__(self, request: LikelihoodRequest) -> LikelihoodResult:
        import http.client

        body = json.dumps({"context": request.context,
                           "continuation": request.continuation}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.attempts):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                self._local.conn.close()
                last_error = exc
                logger.warning("request to %s failed (attempt %d/%d): %s",
                               self.url, attempt + 1, self.attempts, exc)
                continue
            if status == 200:
                return self._decode(data)
            if status >= 500 or status == 429:
                last_error = TransportError(f"{self.url} answered {status}")
                logger.warning("%s (attempt %d/%d)", last_error, attempt + 1, self.attempts)
                continue
            raise TransportError(f"{self.url} answered {status}")
        raise TransportError(f"{self.url} unreachable after {self.attempts} attempts: "
                             f"{last_error}")

    def _decode(self, data: bytes) -> LikelihoodResult:
        try:
            payload = json.loads(data)
            tokens, logprobs = payload["tokens"], payload["logprobs"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed response from {self.url}: {exc}") from exc
        if (not isinstance(tokens, list) or not tokens
                or not all(isinstance(t, str) for t in tokens)):
            raise ProtocolError(f"tokens from {self.url} must be a non-empty list of strings")
        # a JSON number only: bool is an int subclass, and float() would take "12" too
        if not isinstance(logprobs, list) or not all(type(v) in (int, float) for v in logprobs):
            raise ProtocolError(f"logprobs from {self.url} must be a list of numbers")
        return LikelihoodResult(
            tokens=tuple(tokens),
            logprobs=tuple(floor_logprobs([float(v) for v in logprobs])),
        )


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

    Calls memoize each context's last word, keyed by the context string;
    each finished result, keyed by (that last word, the continuation), since
    the bigram chain sees no more of the context; and each (prev, word) log
    probability, as computed by `logprob`. Memory grows with the distinct
    contexts, (last word, continuation) pairs and word pairs scored. The
    memos never change an answer; callers on concurrent threads can at worst
    compute the same value twice.
    """

    def __init__(self, unigrams: Counter[str], bigrams: Counter[tuple[str, str]]):
        self.unigrams = unigrams
        self.bigrams = bigrams
        self.vocab = set(unigrams)
        self.vocab_size = len(self.vocab)
        self._logprobs: dict[tuple[str | None, str], float] = {}
        self._last_words: dict[str, str | None] = {}
        self._results: dict[tuple[str | None, str], LikelihoodResult] = {}

    @classmethod
    def train(cls, texts: list[str]) -> BigramLm:
        unigrams: Counter[str] = Counter()
        bigrams: Counter[tuple[str, str]] = Counter()
        for text in texts:
            tokens = words(text)
            unigrams.update(tokens)
            bigrams.update(zip(tokens, tokens[1:] + [UNK]))
        if not unigrams:
            raise ValueError("cannot train a bigram model on an empty corpus")
        return cls(unigrams, bigrams)

    def _canon(self, word: str) -> str:
        return word if word in self.vocab else UNK

    def logprob(self, word: str, prev: str | None) -> float:
        """ln P(word | prev); prev=None means no usable context (UNK path)."""
        w = self._canon(prev) if prev is not None else UNK
        v = self._canon(word)
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
        if not tokens:
            raise ValueError("continuation has no word tokens")
        memo = self._logprobs
        logprobs = []
        for token in tokens:
            try:
                logprob = memo[prev, token]
            except KeyError:
                logprob = memo[prev, token] = self.logprob(token, prev)
            logprobs.append(logprob)
            prev = token
        result = self._results[key] = LikelihoodResult(tokens=tuple(tokens),
                                                       logprobs=tuple(logprobs))
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

    All (query, doc) pairs of the run form one work list, scored serially
    when max_workers is 1 and otherwise on one pool of max_workers threads;
    results do not depend on request scheduling order. Each document's
    prompt is rendered once, whatever the number of queries it serves.

    Keyword arguments: doc_max_chars, fewshot (guidance triples, or None
    for zero-shot), max_workers, tag, and on_error: "fail" propagates the
    first provider failure and submits no further pairs, "floor" scores
    each failing pair at LOGPROB_FLOOR instead. Queries without
    first-stage candidates are omitted.
    """
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

    if max_workers > 1 and len(pairs) > 1:
        scores = iter(_map_windowed(score_pair, pairs, max_workers))
    else:
        scores = iter([score_pair(pair) for pair in pairs])
    return Run({query.id: [(did, next(scores)) for did, _ in candidates]
                for query, candidates in work}, tag=tag)


def _map_windowed(fn: Callable[[tuple[Query, Document]], float],
                  items: list[tuple[Query, Document]], max_workers: int) -> list[float]:
    """[fn(item) for item in items] on one pool of max_workers threads.

    At most two items per thread are submitted ahead of their results, so
    the first exception, raised here, cancels the few that are queued and
    leaves the rest of the list unsubmitted.
    """
    # imported on use, like RemoteProvider's HTTP stack: only a threaded re-rank needs it
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    results: list[float] = [0.0] * len(items)
    todo = iter(enumerate(items))
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        pending = {pool.submit(fn, item): i
                   for i, item in itertools.islice(todo, 2 * max_workers)}
        try:
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    results[pending.pop(future)] = future.result()
                for i, item in itertools.islice(todo, len(done)):
                    pending[pool.submit(fn, item)] = i
        finally:
            for future in pending:
                future.cancel()
    return results
