"""Command-line pipeline orchestration.

Verbs: index, search, rerank, fuse, eval, sigtest, sweep, pipeline. Every
command is a pure file-to-file transformation: identical inputs and flags
produce byte-identical outputs. This module opens no file; the pipes of
its search helpers are the only descriptors it opens. The corpus module's
readers open every input, so a missing or unreadable one fails with an
error naming it, and its atomic writer (corpus.open_atomic) every output,
so interrupted or concurrent runs never leave truncated files.
`pipeline` reads every input before it makes output_dir, then hands each
stage's result to the next in memory.

A parameter has one declaration, its run_* keyword: build_parser makes its
flag from it, VERB_KEYS its config key's type and default, and a Literal
hint gives its choices. corpus.RULES holds every other value rule, the library's too.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider/transport error.
run() is the `qlmrank` command: main() in a process that skips the interpreter's
teardown, and that SIGTERM unwinds as Ctrl-C does.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import marshal
import os
import signal
import sys
import threading
import typing
from types import MappingProxyType, SimpleNamespace
from typing import Literal

# likelihood and prompts are imported where used, so the verbs that never re-rank
# skip them; ranking too, so only index, search and pipeline load the index code
from . import corpus as corpus_io, fusion
from .corpus import (DEFAULT_DOC_MAX_CHARS, DEFAULT_MAX_WORKERS, RULES, ProviderError, Run,
                     check_value)
from .evaluation import RUN_LETTERS, format_report, ndcg_at_k, significance_matrix

if typing.TYPE_CHECKING:
    from . import likelihood, prompts, ranking

# not __name__, which is __main__ under python -m qlmrank.cli
logger = logging.getLogger("qlmrank.cli")

ENDPOINT_ENV = "QLMRANK_ENDPOINT"
AUTH_TOKEN_ENV = "QLMRANK_AUTH_TOKEN"

EXIT_USAGE, EXIT_DATA, EXIT_PROVIDER = 1, 2, 3

# the fewest postings a search helper's block of queries must read. A helper costs 2.6-3.4
# ms (fork, pipe, reap), as long as searching 4,000-5,700 postings takes (0.48-0.82 us each
# on a 1,500-document index, 2 vCPU Xeon): a smaller block costs more than it can save
_BLOCK_POSTINGS = 5_000

# run's collector thresholds: a verb's objects mostly live until it ends, so a
# young-generation pass every 700 allocations (the default) finds little to free
GC_THRESHOLD = (200_000, 30, 30)

# the keys of the config's analyzer section: run_index's analyzer keywords
ANALYZER_KEYS = ("lowercase", "stopwords", "stem")
# the config keys `pipeline` also takes as flags
PIPELINE_FLAGS = ("output_dir", "depth", "provider", "endpoint", "auth_token", "model_family",
                  "dataset", "rerank_alpha", "hybrid_alpha", "fewshot", "eval_k")
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
# the config sections that become their classes
_SECTIONS = (corpus_io.Bm25Params, corpus_io.DirichletParams)

MISSING = object()  # the default of a required keyword or config key


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _check_rule(name: str, value, spelled: str) -> None:
    """Apply `name`'s RULES entry, if it has one, to a value or a list; errors say
    `spelled`. A config key that renames a keyword (VERB_KEYS) takes the keyword's
    rule, a section key (bm25.k1) the rule of its last part."""
    name = VERB_KEYS[name][1] if name in VERB_KEYS else name.rpartition(".")[2]
    if name in RULES and value is not None:
        try:
            check_value(name, value, spelled)
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _keywords(run: typing.Callable) -> dict[str, object]:
    """A run_* function's keywords -> their defaults, MISSING for one without."""
    names = corpus_io._parameters(run)
    defaults = run.__defaults__ or ()
    return dict(zip(names, (MISSING,) * (len(names) - len(defaults)) + defaults))


def _write_text(path: str | None, text: str) -> str:
    """Write `text` atomically to `path`, if one is given; return `text`."""
    if path:
        with corpus_io.open_atomic(path) as f:
            f.write(text)
    return text


# --- Verbs: run_<verb>'s keywords are its flags, its docstring's first line its help ---

def run_index(corpus: str, out: str, lowercase: bool = True, stopwords: str | None = None,
              stem: bool = False) -> None:
    """build an inverted index from a corpus"""
    from . import ranking

    analyzer = _analyzer(lowercase, stopwords, stem)
    index = ranking.build_index(corpus_io.load_corpus(corpus), analyzer)
    ranking.save_index(index, out)
    logger.info("indexed %d documents, %d terms -> %s", index.n_docs, len(index.postings), out)


def _analyzer(lowercase: bool = True, stopwords: str | None = None,
              stem: bool = False) -> ranking.Analyzer:
    """The analyzer of run_index's keywords; reads the stopword file, if one is given."""
    from . import ranking

    words = (frozenset(line.strip() for _, line in corpus_io.read_lines(stopwords))
             if stopwords else frozenset())
    return ranking.Analyzer(lowercase=lowercase, stopwords=words, stem=stem)


def run_search(index: str, queries: str, out: str, ranker: Literal["bm25", "dirichlet"] = "bm25",
               k: int = 100, k1: float = corpus_io.Bm25Params.k1,
               b: float = corpus_io.Bm25Params.b, mu: float = corpus_io.DirichletParams.mu,
               tag: str | None = None) -> None:
    """first-stage lexical retrieval"""
    from . import ranking

    params = corpus_io.Bm25Params(k1, b) if ranker == "bm25" else corpus_io.DirichletParams(mu)
    _search(ranking.load_index(index), corpus_io.load_queries(queries), out, ranker, k, params, tag)


def _search(inverted: ranking.InvertedIndex, query_list: list[corpus_io.Query], out: str,
            ranker: str, k: int, params: corpus_io.Bm25Params | corpus_io.DirichletParams,
            tag: str | None) -> Run:
    """run_search's work on an index and queries in memory: returns the run it wrote to `out`."""
    from . import ranking

    search = ranking.bm25_search if ranker == "bm25" else ranking.dirichlet_search
    texts = [query.text for query in query_list]
    # a search reads the postings of its query's distinct terms; counting them decodes them
    # here, once, before any helper forks, so every helper shares them
    postings = sum(inverted.df(term) for text in texts
                   for term in set(inverted.analyzer.tokenize(text)))
    rankings = _search_on_every_cpu(functools.partial(search, inverted, params, k=k), texts,
                                    postings)
    run = Run(dict(zip([query.id for query in query_list], rankings)), tag=tag or ranker)
    corpus_io.write_run(run, out)
    logger.info("searched %d queries with %s -> %s", len(query_list), ranker, out)
    return run


def _search_on_every_cpu(search: typing.Callable[[str], list[tuple[str, float]]],
                         texts: list[str], postings: int) -> list[list[tuple[str, float]]]:
    """[search(text) for text in texts], the same lists or the same first error, from
    this process and one forked helper per further CPU it may run on, each searching
    one block of consecutive texts over the index as it is in memory, shared copy-on-write.
    The searches read `postings` postings in all: there are no more blocks than leave
    _BLOCK_POSTINGS of them to each.

    Forking is unsafe while another thread runs, so then this process searches alone.
    This process searches the first block. A helper sends back its block's lists in
    marshal, which keeps every float exact, or exits non-zero having sent nothing, and
    ends with os._exit: no finally, atexit handler or stdio flush runs in it. It holds
    no pipe's read end and stops before its next text once this process is gone. The blocks
    are joined in order, and one that no helper delivered (a text in it raised, or its
    helper could not start or died) is searched here in its turn, so the first text
    that raises raises here, as in the loop."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = (max(1, min(cpus or 1, len(texts), postings // _BLOCK_POSTINGS))
            if threading.active_count() == 1 else 1)
    blocks = [texts[len(texts) * i // cpus:len(texts) * (i + 1) // cpus] for i in range(cpus)]
    helpers = {}  # block number -> (pid of its helper, read end of its pipe)
    parent = os.getpid()
    try:
        for block in range(1, cpus):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # at a process limit: this process searches the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # a helper
                try:
                    # hold no read end, so a write fails once the parent is gone
                    os.close(r)
                    for _, pipe in helpers.values():
                        pipe.close()
                    lists = []
                    for text in blocks[block]:
                        if os.getppid() != parent:  # orphaned: nobody will read the lists
                            os._exit(1)
                        lists.append(search(text))
                    data = marshal.dumps(lists)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            helpers[block] = pid, open(r, "rb")
            os.close(w)
        found = list(map(search, blocks[0]))
        for block in range(1, cpus):
            if block in helpers:
                pid, pipe = helpers[block]
                # read a pipe to its end before waiting: a helper blocks on a full pipe until then
                data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del helpers[block]
                pipe.close()
                if os.waitstatus_to_exitcode(status) == 0:
                    found += marshal.loads(data)
                    continue
            found += map(search, blocks[block])
    finally:
        for pid, pipe in helpers.values():  # on an error or an interrupt
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return found


def _remote_provider(endpoint: str | None, auth_token: str | None) -> likelihood.RemoteProvider:
    """The provider of `endpoint` (default $QLMRANK_ENDPOINT); a missing or
    malformed endpoint is a usage error. Building it opens no connection."""
    from . import likelihood

    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise UsageError(f"remote provider needs --endpoint or ${ENDPOINT_ENV}")
    try:
        return likelihood.RemoteProvider(endpoint,
                                         auth_token=auth_token or os.environ.get(AUTH_TOKEN_ENV))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _prompt_setup(catalog: str | None, model_family: str, dataset: str, fewshot: bool
                  ) -> tuple[prompts.PromptTemplate, list[prompts.FewShotExample] | None]:
    """The template of model_family/dataset and, if fewshot, the dataset's
    few-shot triples, from the catalog at `catalog` or the shipped one."""
    from . import prompts

    prompt_catalog = prompts.load_catalog(catalog) if catalog else prompts.default_catalog()
    template = prompt_catalog.template(model_family, dataset)
    triples = prompt_catalog.fewshot_for(dataset) if fewshot else None
    logger.info("prompt: %s/%s, %s", model_family, dataset, "fewshot" if triples else "zeroshot")
    return template, triples


def run_rerank(run: str, corpus: str, queries: str, out: str, model_family: str, dataset: str,
               provider: Literal["bigram", "remote"] = "bigram", endpoint: str | None = None,
               auth_token: str | None = None, catalog: str | None = None, depth: int = 100,
               doc_max_chars: int = DEFAULT_DOC_MAX_CHARS, fewshot: bool = False,
               on_error: Literal["fail", "floor"] = "fail",
               max_workers: int = DEFAULT_MAX_WORKERS, tag: str = "qlm",
               stats_out: str | None = None) -> None:
    """query-likelihood re-ranking of a candidate run"""
    remote = _remote_provider(endpoint, auth_token) if provider == "remote" else None
    docs = corpus_io.load_corpus(corpus)
    query_list = corpus_io.load_queries(queries)
    first_stage = corpus_io.read_run(run)
    _check_candidates(first_stage, query_list, docs, depth, run, corpus)
    template, triples = _prompt_setup(catalog, model_family, dataset, fewshot)
    _rerank(remote, docs, query_list, first_stage, template, out, stats_out, fewshot=triples,
            depth=depth, doc_max_chars=doc_max_chars, on_error=on_error,
            max_workers=max_workers, tag=tag)


def _check_candidates(candidates: Run, query_list: list[corpus_io.Query],
                      docs: list[corpus_io.Document], depth: int, run: str, corpus: str) -> None:
    """FormatError naming the run file, the query and the corpus file for the
    first document that re-ranking would read, a top-`depth` candidate of a
    query in query_list, and that the corpus does not hold."""
    known = {doc.id for doc in docs}
    for query in query_list:
        for did, _ in candidates.entries.get(query.id, [])[:depth]:
            if did not in known:
                raise corpus_io.FormatError(f"{run}: query {query.id}: candidate doc id "
                                            f"{did!r} is not in corpus {corpus}")


def _rerank(remote: likelihood.RemoteProvider | None, docs: list[corpus_io.Document],
            query_list: list[corpus_io.Query], first_stage: Run, template: prompts.PromptTemplate,
            out: str, stats_out: str | None, **options) -> Run:
    """run_rerank's work on inputs in memory, scored by `remote`, which it closes, or else by
    a bigram model of `docs` scoped to the queries; `options` go to rerank_run. Returns the run."""
    from . import likelihood

    provider_fn = remote or likelihood.BigramLm.train((d.text() for d in docs),
                                                      [q.text for q in query_list])
    try:
        reranked = likelihood.rerank_run(provider_fn, template, query_list, first_stage,
                                         {d.id: d for d in docs}, **options)
    finally:
        if remote is not None:
            remote.close()
    corpus_io.write_run(reranked, out)
    # one provider request per pair scored, floored failures included
    pairs = sum(len(ranking) for ranking in reranked.entries.values())
    logger.info("reranked %d queries -> %s | provider_requests=%d",
                len(reranked.entries), out, pairs)
    _write_text(stats_out, json.dumps({"requests": pairs}) + "\n")
    return reranked


def run_fuse(run_a: str, run_b: str, out: str, alpha: float, tag: str | None = None) -> None:
    """min-max normalize and interpolate two runs"""
    a, b = corpus_io.read_run(run_a), corpus_io.read_run(run_b)
    corpus_io.write_run(fusion.interpolate(a, b, alpha, tag=tag), out)
    logger.info("fused %s + %s at alpha=%g -> %s", a.tag, b.tag, alpha, out)


def run_eval(run: str, qrels: str, k: int = 10, out: str | None = None) -> str:
    """nDCG@k of a run against qrels"""
    report = ndcg_at_k(corpus_io.read_run(run), corpus_io.load_qrels(qrels), k=k)
    text = _write_text(out, format_report(report))
    logger.info("nDCG@%d = %.4f over %d queries", k, report.mean, report.evaluated_query_count)
    return text


def run_sigtest(runs: list[str], qrels: str, k: int = 10, alpha_level: float = 0.05,
                correction: Literal["bonferroni", "none"] = "bonferroni",
                out: str | None = None) -> str:
    """pairwise paired t-tests between runs"""
    if not 2 <= len(runs) <= len(RUN_LETTERS):
        raise UsageError(f"sigtest needs 2 to {len(RUN_LETTERS)} run files, got {len(runs)}")
    judged = corpus_io.load_qrels(qrels)
    named = [(os.path.splitext(os.path.basename(path))[0], corpus_io.read_run(path))
             for path in runs]
    if len({name for name, _ in named}) != len(named):
        raise UsageError("run file basenames must be unique (they name the rows)")
    return _write_text(out, significance_matrix(named, judged, k=k, alpha_level=alpha_level,
                                                correction=correction).render())


def run_sweep(run_a: str, run_b: str, qrels: str,
              alphas: list[float] = [i / 10 for i in range(11)],  # shared: never mutated
              k: int = 10, out: str | None = None) -> str:
    """nDCG@k across interpolation weights"""
    rows = fusion.sweep_alpha(corpus_io.read_run(run_a), corpus_io.read_run(run_b), alphas,
                              corpus_io.load_qrels(qrels), k=k)
    return _write_text(out, fusion.format_sweep(rows))


# --- Pipeline config ---

def _choices(hint) -> tuple | None:
    """The values a Literal hint allows; None for any other hint."""
    return typing.get_args(hint) if typing.get_origin(hint) is Literal else None


def _base_type(hint):
    """The type a field holds when it is not None: str for `str | None` or a Literal."""
    return next(type(t) if _choices(hint) else t
                for t in typing.get_args(hint) or (hint,) if t is not type(None))


def _checked(name: str, value, hint):
    """A config value after checking its JSON type against the field type
    `hint` (a bool is not an int), its Literal choices and its RULES. A
    section must hold only known keys; bm25 and dirichlet become their classes."""
    if hint is None:
        raise UsageError(f"unknown config key {name!r}")
    kind, nullable = _base_type(hint), type(None) in typing.get_args(hint)
    if value is None and nullable:
        return None
    if not (type(value) in (int, float) if kind is float
            else isinstance(value, dict) if kind is dict or kind in _SECTIONS
            else type(value) is kind):
        raise UsageError(f"{name} must be {_JSON_TYPES.get(kind, 'an object')}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")
    if isinstance(value, dict):
        keys = (typing.get_type_hints(kind) if kind in _SECTIONS else
                {k: v for k, v in typing.get_type_hints(run_index).items() if k in ANALYZER_KEYS})
        value = {k: _checked(f"{name}.{k}", v, keys.get(k)) for k, v in value.items()}
        return kind(**value) if kind in _SECTIONS else value
    if (choices := _choices(hint)) and value not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    _check_rule(name, value, name)
    return value


# config key -> (run_* function, keyword): every run_rerank keyword the pipeline leaves open
VERB_KEYS = {**{name: (run_rerank, name) for name in _keywords(run_rerank)
                if name not in ("run", "out", "tag", "stats_out")},
             "first_stage": (run_search, "ranker"), "eval_k": (run_eval, "k"),
             **{name: (run_sigtest, name) for name in ("alpha_level", "correction")}}

# the pipeline's own config keys -> (type, default), MISSING if required; none is mutable
PIPELINE_KEYS = {"qrels": (str, MISSING), "output_dir": (str, MISSING),
                 "analyzer": (dict, MappingProxyType({})),
                 "bm25": (corpus_io.Bm25Params, corpus_io.Bm25Params()),
                 "dirichlet": (corpus_io.DirichletParams, corpus_io.DirichletParams()),
                 "external_run": (str | None, None), "hybrid_alpha": (float, fusion.HYBRID_ALPHA),
                 "rerank_alpha": (float, fusion.RERANK_ALPHA)}


@functools.cache
def config_keys() -> dict[str, tuple]:
    """Every pipeline config key -> (type, default), made on first use: PIPELINE_KEYS,
    then each VERB_KEYS entry's hint and default from its run_* signature."""
    hints = {run: typing.get_type_hints(run) for run, _ in VERB_KEYS.values()}
    return {**PIPELINE_KEYS, **{key: (hints[run][kw], _keywords(run)[kw])
                                for key, (run, kw) in VERB_KEYS.items()}}


def load_config(path: str, overrides: dict | None = None) -> SimpleNamespace:
    """The config at `path`, non-None `overrides` winning, checked as _checked does, with
    every absent key at its default. run_pipeline's readers check the files it names."""
    data = corpus_io.read_json(path)
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    keys = config_keys()
    checked = {k: _checked(k, v, keys[k][0] if k in keys else None) for k, v in data.items()}
    missing = [k for k, (_, default) in keys.items() if default is MISSING and k not in data]
    if missing:
        raise UsageError(f"{path}: missing required config keys {missing}")
    return SimpleNamespace(**{k: default for k, (_, default) in keys.items()} | checked)


def run_pipeline(config: str, **overrides) -> None:
    """run the full two-stage pipeline from a config

    index -> search -> (hybrid fuse) -> rerank -> interpolate -> evaluate ->
    significance, from the config file at `config` and the config keys in
    `overrides`. Every intermediate run is persisted for audit or re-fusion,
    never read back: each stage takes the last one's result from memory."""
    from . import ranking

    cfg = load_config(config, overrides)
    remote = _remote_provider(cfg.endpoint, cfg.auth_token) if cfg.provider == "remote" else None
    docs = corpus_io.load_corpus(cfg.corpus)
    query_list = corpus_io.load_queries(cfg.queries)
    qrels = corpus_io.load_qrels(cfg.qrels)
    external = corpus_io.read_run(cfg.external_run) if cfg.external_run else None
    analyzer = _analyzer(**cfg.analyzer)
    template, triples = _prompt_setup(cfg.catalog, cfg.model_family, cfg.dataset, cfg.fewshot)

    def out(name: str) -> str:
        return os.path.join(cfg.output_dir, name)

    with corpus_io.locked_dir(cfg.output_dir):  # a second pipeline there writes nothing
        inverted = ranking.build_index(docs, analyzer)
        ranking.save_index(inverted, out("index.json"))  # for audit: search takes it from memory
        candidates = _search(inverted, query_list, out("first_stage.trec"), cfg.first_stage,
                             cfg.depth, cfg.bm25 if cfg.first_stage == "bm25" else cfg.dirichlet,
                             tag=None)
        del inverted  # re-ranking reads the corpus, not the index
        if external is not None:
            # rerank takes the top `depth` of the hybrid run via its own depth cut
            candidates = fusion.interpolate(candidates, external, cfg.hybrid_alpha, tag="hybrid")
            # only the external run can name a document outside the corpus
            _check_candidates(candidates, query_list, docs, cfg.depth, cfg.external_run,
                              cfg.corpus)
            corpus_io.write_run(candidates, out("hybrid.trec"))

        reranked = _rerank(remote, docs, query_list, candidates, template, out("reranked.trec"),
                           out("provider_stats.json"), fewshot=triples, depth=cfg.depth,
                           doc_max_chars=cfg.doc_max_chars, on_error=cfg.on_error,
                           max_workers=cfg.max_workers)
        fused = fusion.interpolate(candidates, reranked, cfg.rerank_alpha)
        corpus_io.write_run(fused, out("fused.trec"))
        _write_text(out("eval.tsv"), format_report(ndcg_at_k(fused, qrels, k=cfg.eval_k)))
        # sigtest names each run's row by its file
        rows = [("hybrid" if cfg.external_run else "first_stage", candidates),
                ("reranked", reranked), ("fused", fused)]
        _write_text(out("significance.txt"), significance_matrix(
            rows, qrels, k=cfg.eval_k, alpha_level=cfg.alpha_level,
            correction=cfg.correction).render())
    logger.info("pipeline complete -> %s", cfg.output_dir)


# --- Argument parsing and dispatch ---

def _parse_alphas(value: str) -> list[float]:
    # raised past argparse, which would print the usage and a second line
    try:
        alphas = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        alphas = []
    if not alphas:
        raise UsageError(f"--alphas must be comma-separated floats, got {value!r}")
    return alphas


# the help of each flag that has one, by verb and keyword
_HELP = {
    "index": {"stopwords": "newline-separated stopword file", "stem": "enable plural stripping"},
    "rerank": {"run": "first-stage candidate run",
               "endpoint": f"logprobs endpoint (default ${ENDPOINT_ENV})",
               "auth_token": f"bearer token (default ${AUTH_TOKEN_ENV})",
               "catalog": "prompt catalog JSON (default: shipped catalog)",
               "max_workers": "concurrent provider requests",
               "stats_out": "write provider request stats JSON here"},
    "fuse": {"alpha": "weight on run A (run B gets 1 - alpha)"},
    "eval": {"out": "write the per-query TSV report here"},
}


def _add_param(p: argparse.ArgumentParser, name: str, hint, default, help: str | None) -> None:
    """Keyword `name`'s argument: required without a default, positional for a list
    of strings, a switch for a bool (`--no-name` if it defaults to True)."""
    flag = "--" + name.replace("_", "-")
    if hint == list[str]:
        p.add_argument(name, nargs="+", metavar=name.removesuffix("s").upper(), help=help)
    elif _base_type(hint) is bool:
        p.add_argument("--no-" + flag[2:] if default else flag, dest=name, action="store_const",
                       const=not default, default=default, help=help)
    else:
        required = default is MISSING
        p.add_argument(flag, type=_parse_alphas if hint == list[float] else _base_type(hint),
                       choices=_choices(hint), required=required,
                       default=None if required else default, help=help)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """One subcommand per VERBS entry, one flag per run_* keyword; `pipeline`'s
    **overrides become the PIPELINE_FLAGS config keys, each optional. Given
    `only`, the other subcommands get no flags: parsing `only`'s needs none."""
    parser = _Parser(prog="qlmrank",
                     description="Zero-shot retrieval, query-likelihood re-ranking, "
                                 "fusion, and evaluation over BEIR-format data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, run in VERBS.items():
        p = sub.add_parser(verb, help=(run.__doc__ or "").split("\n")[0])
        if only not in (None, verb):
            continue
        hints = typing.get_type_hints(run)
        for name, default in _keywords(run).items():
            _add_param(p, name, hints[name], default, _HELP.get(verb, {}).get(name))
        if run is run_pipeline:  # its **overrides
            for key in PIPELINE_FLAGS:
                _add_param(p, key, config_keys()[key][0], None, None)
    return parser


VERBS: dict[str, typing.Callable[..., object]] = {
    "index": run_index, "search": run_search, "rerank": run_rerank, "fuse": run_fuse,
    "eval": run_eval, "sigtest": run_sigtest, "sweep": run_sweep, "pipeline": run_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        argv = sys.argv[1:] if argv is None else argv
        # the verb is the first argument that is not an option: the top level has only -h
        only = next((arg for arg in argv if not arg.startswith("-")), None)
        try:
            args = vars(build_parser(only).parse_args(argv))
        except SystemExit:  # --help, printed: flushed here as a report is below
            sys.stdout.flush()
            raise
        verb = VERBS[args.pop("command")]
        for name, value in args.items():
            _check_rule(name, value, "--" + name.replace("_", "-"))
        sys.stdout.write(verb(**args) or "")  # a report, if the verb makes one
        sys.stdout.flush()  # here, so that a closed stdout is a data error too
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (OSError, ValueError, KeyError) as exc:  # FormatError and CatalogError included
        # str() of a KeyError is the repr of its message
        print(f"data error: {exc.args[0] if isinstance(exc, KeyError) else exc}",
              file=sys.stderr)
        return EXIT_DATA
    return 0


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread: like KeyboardInterrupt, no except Exception stops it."""


def _terminated(signum, frame) -> None:
    raise _Terminated


def run() -> None:
    """The `qlmrank` command: main() on sys.argv, with the collector at GC_THRESHOLD.

    SIGTERM unwinds main() as Ctrl-C does, so every finally runs (helpers are
    killed and reaped, temp files removed, the output_dir lock released); then
    the process ends by SIGTERM, the status a shell sees without a handler.
    When main() returns, every output is fsynced and renamed, every helper
    reaped and every thread joined, so the process ends with os._exit after
    flushing logging and stdio, and skips the interpreter's teardown."""
    gc.set_threshold(*GC_THRESHOLD)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    except _Terminated:
        code = None
    finally:  # from here on a SIGTERM ends the process at once
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if code is None:
        signal.raise_signal(signal.SIGTERM)
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # what main() could not write to a closed stdout: it said so
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
