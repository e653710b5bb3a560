"""Span recorder and per-layer metrics for the traced benchmark run.

`install` replaces the public functions of each qlmrank module with timing
wrappers, on the attributes the callers actually look up, so the program
itself runs unmodified. Spans stay in memory and are written out once, at
the end of the verb.

A span is [id, name, start, end, parent id, query id, size]. Times come
from time.monotonic (CLOCK_MONOTONIC on Linux), which is comparable across
processes, so the benchmark can time interpreter start-up against it.
`size` is a per-call count: prompt characters, run lines, documents.

Nesting within a thread follows a thread-local stack. Provider calls and
prompt renders run on re-rank pool threads, whose stacks are empty: they
are linked to their open `likelihood.rerank` span by the query text.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from typing import Callable

SID, NAME, START, END, PARENT, QID, SIZE = range(7)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.prompt_hashes: set[int] = set()
        self.query_ids: dict[str, str] = {}      # query text -> query id
        self.open_rerank: dict[str, tuple] = {}  # query text -> (span id, query id)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def link_by_query(self, text: str | None) -> tuple | None:
        """(span id, query id) of the open rerank span for a query text, or
        of the only open rerank span when the text is not given."""
        if text is not None and text.strip() in self.open_rerank:
            return self.open_rerank[text.strip()]
        if len(self.open_rerank) == 1:
            return next(iter(self.open_rerank.values()))
        return None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
             link: tuple | None = None, qid: str | None = None,
             register: str | None = None, size: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        link: (parent span id, query id) for calls off the caller's thread.
        register: query text under which this span is the open rerank span.
        size: f(args, result) -> int, stored on the span.
        """
        stack = self.stack()
        parent = None
        if link is not None:
            parent, qid = link[0], qid or link[1]
        elif stack:
            parent, inherited = stack[-1]
            qid = qid or inherited
        sid = next(self._ids)
        stack.append((sid, qid))
        if register is not None:
            self.open_rerank[register] = (sid, qid)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            if register is not None:
                self.open_rerank.pop(register, None)
            span = [sid, name, start, end, parent, qid, 0]
            self.spans.append(span)
        if size is not None:
            span[SIZE] = size(args, result)
        return result

    def dump(self, path: str, ready: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"ready": ready, "spans": self.spans,
                       "distinct_prompts": len(self.prompt_hashes)}, f)


def _wrap(rec: Recorder, owner, attr: str, name: str, *, size=None, qid_of=None,
          link_of=None, register_of=None, before=None, static: bool = False) -> None:
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        return rec.call(name, original, args, kwargs,
                        link=link_of(args) if link_of else None,
                        qid=qid_of(args) if qid_of else None,
                        register=register_of(args) if register_of else None,
                        size=size)

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _run_lines(run) -> int:
    return sum(len(pairs) for pairs in run.entries.values())


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every qlmrank module."""
    import qlmrank.cli as cli
    import qlmrank.corpus as corpus
    import qlmrank.evaluation as evaluation
    import qlmrank.fusion as fusion
    import qlmrank.likelihood as likelihood
    import qlmrank.prompts as prompts
    import qlmrank.ranking as ranking

    def remember_queries(args, queries):
        rec.query_ids.update((q.text.strip(), q.id) for q in queries)
        return len(queries)

    def query_id(args):            # bm25_search / dirichlet_search(index, params, text)
        return rec.query_ids.get(args[2].strip())

    def off_thread_link(args):     # renders run on pool threads when workers > 1
        return None if rec.stack() else rec.link_by_query(None)

    def provider_link(args):       # provider(self, request)
        return rec.link_by_query(args[1].continuation)

    def note_prompt(args):
        rec.prompt_hashes.add(hash(args[1].context))

    def rendered_chars(args, prompt):
        return len(prompt)

    _wrap(rec, corpus, "load_corpus", "corpus.load_corpus", size=lambda a, r: len(r))
    _wrap(rec, corpus, "load_queries", "corpus.load_queries", size=remember_queries)
    _wrap(rec, corpus, "load_qrels", "corpus.load_qrels", size=lambda a, r: len(r))
    _wrap(rec, corpus, "read_run", "corpus.read_run", size=lambda a, r: _run_lines(r))
    _wrap(rec, corpus, "write_run", "corpus.write_run", size=lambda a, r: _run_lines(a[0]))
    for fn in ("build_index", "save_index", "load_index"):
        _wrap(rec, ranking, fn, f"ranking.{fn}")
    for fn in ("bm25_search", "dirichlet_search"):
        _wrap(rec, ranking, fn, f"ranking.{fn}", qid_of=query_id)
    for fn in ("default_catalog", "load_catalog"):
        _wrap(rec, prompts, fn, f"prompts.{fn}")
    # likelihood looks its prompt renderers and rerank up as module globals
    for fn in ("render_prompt", "render_fewshot"):
        _wrap(rec, likelihood, fn, "prompts.render", link_of=off_thread_link,
              size=rendered_chars)
    _wrap(rec, likelihood, "rerank_run", "likelihood.rerank_run")
    _wrap(rec, likelihood, "rerank", "likelihood.rerank",
          qid_of=lambda a: a[2].id, register_of=lambda a: a[2].text.strip())
    _wrap(rec, likelihood.BigramLm, "train", "likelihood.train", static=True)
    for provider in (likelihood.BigramLm, likelihood.RemoteProvider):
        _wrap(rec, provider, "__call__", "likelihood.provider",
              link_of=provider_link, before=note_prompt)
    _wrap(rec, fusion, "interpolate", "fusion.interpolate")
    _wrap(rec, fusion, "sweep_alpha", "fusion.sweep_alpha")
    # sweep_alpha and significance_matrix look ndcg_at_k up in evaluation;
    # cli imported its three evaluation functions by name
    _wrap(rec, evaluation, "ndcg_at_k", "evaluation.ndcg_at_k")
    _wrap(rec, cli, "ndcg_at_k", "evaluation.ndcg_at_k")
    _wrap(rec, cli, "significance_matrix", "evaluation.significance_matrix")
    _wrap(rec, cli, "format_report", "evaluation.format_report")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.
    Children on other threads may overlap each other; overlap counts once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {span[SID]: (span[END] - span[START])
            - covered(children.get(span[SID], []), span[START], span[END])
            for span in spans}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (layer idle)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(verbs: list[dict], workers: int, stub: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced repeat.

    verbs: one record per verb process: {"spawn": monotonic time before the
    process started, "ready", "spans", "distinct_prompts"} as dumped by
    Recorder.dump. stub: the stub's /stats answer for the repeat, if any.
    """
    spans = [span for verb in verbs for span in verb["spans"]]
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def durations(name: str, scale: float = 1.0) -> list[float]:
        return [(s[END] - s[START]) * scale for s in by_name.get(name, [])]

    def total(name: str) -> float:
        return sum(durations(name))

    def sizes(*names: str) -> list[int]:
        return [s[SIZE] for n in names for s in by_name.get(n, [])]

    selfs = self_times(spans)
    provider_ms = durations("likelihood.provider", 1000.0)
    rerank_wall = total("likelihood.rerank_run") * workers
    chars = sizes("prompts.render")
    service = stub["service_ms"] if stub else []
    return {
        "ranking.build_index_s": total("ranking.build_index"),
        "ranking.save_index_s": total("ranking.save_index"),
        "ranking.load_index_s": total("ranking.load_index"),
        "ranking.bm25_ms.p50": percentile(durations("ranking.bm25_search", 1000.0), 50),
        "ranking.bm25_ms.p95": percentile(durations("ranking.bm25_search", 1000.0), 95),
        "ranking.dirichlet_ms.p50": percentile(durations("ranking.dirichlet_search", 1000.0), 50),
        "ranking.dirichlet_ms.p95": percentile(durations("ranking.dirichlet_search", 1000.0), 95),
        "likelihood.rerank_query_ms.p50": percentile(durations("likelihood.rerank", 1000.0), 50),
        "likelihood.rerank_query_ms.p95": percentile(durations("likelihood.rerank", 1000.0), 95),
        "likelihood.busy_ratio": sum(provider_ms) / 1000.0 / rerank_wall if rerank_wall else 0.0,
        "likelihood.provider_calls": len(provider_ms),
        "likelihood.provider_ms.p50": percentile(provider_ms, 50),
        "likelihood.provider_ms.p95": percentile(provider_ms, 95),
        "likelihood.train_s": total("likelihood.train"),
        "likelihood.distinct_prompt_ratio": (sum(v["distinct_prompts"] for v in verbs)
                                             / len(provider_ms) if provider_ms else 0.0),
        "prompts.render_s": total("prompts.render"),
        "prompts.calls": len(chars),
        "prompts.chars_mean": statistics.fmean(chars) if chars else 0.0,
        "corpus.load_corpus_s": total("corpus.load_corpus"),
        "corpus.read_run_s": total("corpus.read_run"),
        "corpus.write_run_s": total("corpus.write_run"),
        "corpus.run_lines": sum(sizes("corpus.read_run", "corpus.write_run")),
        "fusion.interpolate_s": total("fusion.interpolate"),
        "fusion.calls": len(by_name.get("fusion.interpolate", [])),
        "evaluation.ndcg_s": total("evaluation.ndcg_at_k"),
        "evaluation.sigtest_s": total("evaluation.significance_matrix"),
        "cli.startup_s": statistics.median(v["ready"] - v["spawn"] for v in verbs),
        "cli.self_s": sum(selfs[s[SID]] for s in by_name.get("cli.main", [])),
        "stub.requests": stub["requests"] if stub else 0,
        "stub.connections": stub["connections"] if stub else 0,
        "stub.inflight_max": stub["inflight_max"] if stub else 0,
        "stub.service_ms.p50": percentile(service, 50),
    }
