"""Command-line pipeline orchestration.

Verbs: index, search, rerank, fuse, eval, sigtest, sweep, pipeline. Every
command is a pure file-to-file transformation: identical inputs and flags
produce byte-identical outputs. Each output is staged to a fresh temp file
beside it, fsynced and renamed into place, so interrupted or concurrent
runs never leave truncated files.

A parameter has one declaration, its run_* keyword: build_parser makes its
flag from it, VERB_KEYS its config key's type and default, and a Literal
hint gives its choices. RULES holds every other value rule.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider/transport error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import os
import pathlib
import sys
import tempfile
import typing
from dataclasses import MISSING, dataclass, field as dc_field, fields, is_dataclass, make_dataclass
from typing import Literal

# likelihood and prompts are imported where used: the verbs that never re-rank skip them
from . import corpus as corpus_io, fusion, ranking
from .corpus import DEFAULT_DOC_MAX_CHARS, DEFAULT_MAX_WORKERS, FormatError, ProviderError, Run
from .evaluation import format_report, ndcg_at_k, significance_matrix

if typing.TYPE_CHECKING:
    from . import likelihood, prompts

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "QLMRANK_ENDPOINT"
AUTH_TOKEN_ENV = "QLMRANK_AUTH_TOKEN"

EXIT_USAGE, EXIT_DATA, EXIT_PROVIDER = 1, 2, 3

# the value rule of each parameter that has one: (test, what the error says)
RULES: dict[str, tuple[typing.Callable[[typing.Any], bool], str]] = {
    **{name: (lambda v: v >= 1, "must be >= 1")
       for name in ("k", "depth", "max_workers", "doc_max_chars")},
    **{name: (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
       for name in ("alpha", "alphas", "hybrid_alpha", "rerank_alpha", "alpha_level")},
    "tag": (lambda v: v.split() == [v], "must be one word without whitespace"),
}
# the keys of the config's analyzer section: run_index's analyzer keywords
ANALYZER_KEYS = ("lowercase", "stopwords", "stem")
# the config keys `pipeline` also takes as flags
PIPELINE_FLAGS = ("output_dir", "depth", "provider", "endpoint", "auth_token", "model_family",
                  "dataset", "rerank_alpha", "hybrid_alpha", "fewshot", "eval_k")
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _check_rule(name: str, value, spelled: str) -> None:
    """Apply `name`'s RULES entry to a value or a list; errors say `spelled`.
    A config key that renames a keyword (VERB_KEYS) takes the keyword's rule."""
    name = VERB_KEYS[name][1] if name in VERB_KEYS else name
    if name not in RULES or value is None:
        return
    test, rule = RULES[name]
    for v in value if isinstance(value, list) else [value]:
        if not test(v):
            raise UsageError(f"{spelled} {rule}, got {v!r}")


def _params(cls, prefix: str, **values):
    # a ranking parameter class's ValueError starts with the field's name
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from None


# mkstemp makes 0600 files; outputs get the mode open() gives: 0o666 less the umask
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str, write: typing.Callable[[str], object]) -> None:
    """Produce `path` by write(tmp), where tmp is a fresh temp file in the
    same directory, then fsync it and rename it over `path`. On any failure
    the temp file is removed and the old `path` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        try:
            os.fchmod(fd, 0o666 & ~_UMASK)
            write(tmp)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_text(path: str | None, text: str) -> str:
    """Write `text` atomically to `path`, if one is given; return `text`."""
    if path:
        atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))
    return text


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise FormatError(f"{what} not found: {path}")
    return path


# --- Verbs: run_<verb>'s keywords are its flags, its docstring's first line its help ---

def run_index(corpus: str, out: str, lowercase: bool = True, stopwords: str | None = None,
              stem: bool = False) -> ranking.InvertedIndex:
    """build an inverted index from a corpus

    Returns the index it wrote to `out`, for pipeline's search."""
    words = frozenset(line.strip() for _, line in corpus_io.read_lines(
        _require_file(stopwords, "stopword list"))) if stopwords else frozenset()
    analyzer = ranking.Analyzer(lowercase=lowercase, stopwords=words, stem=stem)
    docs = corpus_io.load_corpus(_require_file(corpus, "corpus"))
    index = ranking.build_index(docs, analyzer)
    atomic_write(out, lambda tmp: ranking.save_index(index, tmp))
    logger.info("indexed %d documents, %d terms -> %s", index.n_docs, len(index.postings), out)
    return index


def run_search(index: str, queries: str, out: str, ranker: Literal["bm25", "dirichlet"] = "bm25",
               k: int = 100, k1: float = ranking.Bm25Params.k1, b: float = ranking.Bm25Params.b,
               mu: float = ranking.DirichletParams.mu, tag: str | None = None) -> None:
    """first-stage lexical retrieval"""
    # both are built, so a bad --mu fails under bm25 too, before any file is read
    params = {"bm25": _params(ranking.Bm25Params, "--", k1=k1, b=b),
              "dirichlet": _params(ranking.DirichletParams, "--", mu=mu)}[ranker]
    _search(ranking.load_index(_require_file(index, "index")), queries, out, ranker, k,
            params, tag)


def _search(inverted: ranking.InvertedIndex, queries: str, out: str, ranker: str, k: int,
            params: ranking.Bm25Params | ranking.DirichletParams, tag: str | None) -> None:
    """run_search's work on an index already in memory."""
    query_list = corpus_io.load_queries(_require_file(queries, "queries"))
    search = ranking.bm25_search if ranker == "bm25" else ranking.dirichlet_search
    run = Run({query.id: search(inverted, params, query.text, k=k) for query in query_list},
              tag=tag or ranker)
    atomic_write(out, lambda tmp: corpus_io.write_run(run, tmp))
    logger.info("searched %d queries with %s -> %s", len(query_list), ranker, out)


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

    prompt_catalog = (prompts.load_catalog(_require_file(catalog, "prompt catalog"))
                      if catalog else prompts.default_catalog())
    return (prompt_catalog.template(model_family, dataset),
            prompt_catalog.fewshot_for(dataset) if fewshot else None)


def run_rerank(run: str, corpus: str, queries: str, out: str, model_family: str, dataset: str,
               provider: Literal["bigram", "remote"] = "bigram", endpoint: str | None = None,
               auth_token: str | None = None, catalog: str | None = None, depth: int = 100,
               doc_max_chars: int = DEFAULT_DOC_MAX_CHARS, fewshot: bool = False,
               on_error: Literal["fail", "floor"] = "fail",
               max_workers: int = DEFAULT_MAX_WORKERS, tag: str = "qlm",
               stats_out: str | None = None) -> None:
    """query-likelihood re-ranking of a candidate run"""
    from . import likelihood

    remote = _remote_provider(endpoint, auth_token) if provider == "remote" else None
    docs = corpus_io.load_corpus(_require_file(corpus, "corpus"))
    query_list = corpus_io.load_queries(_require_file(queries, "queries"))
    first_stage = corpus_io.read_run(_require_file(run, "candidate run"))
    template, triples = _prompt_setup(catalog, model_family, dataset, fewshot)
    logger.info("prompt: %s/%s, %s", model_family, dataset, "fewshot" if triples else "zeroshot")

    provider_fn = remote or likelihood.BigramLm.train(
        [f"{d.title} {d.body}" if d.title else d.body for d in docs])
    if provider == "bigram":
        max_workers = 1  # pure Python: threads would only contend for the GIL
    try:
        reranked = likelihood.rerank_run(
            provider_fn, template, query_list, first_stage, {d.id: d for d in docs},
            depth=depth, doc_max_chars=doc_max_chars, fewshot=triples,
            max_workers=max_workers, on_error=on_error, tag=tag)
    finally:
        if remote is not None:
            remote.close()
    atomic_write(out, lambda tmp: corpus_io.write_run(reranked, tmp))
    # one provider request per pair scored, floored failures included
    pairs = sum(len(ranking) for ranking in reranked.entries.values())
    logger.info("reranked %d queries -> %s | provider_requests=%d",
                len(reranked.entries), out, pairs)
    _write_text(stats_out, json.dumps({"requests": pairs}) + "\n")


def run_fuse(run_a: str, run_b: str, out: str, alpha: float, tag: str | None = None) -> None:
    """min-max normalize and interpolate two runs"""
    a = corpus_io.read_run(_require_file(run_a, "run A"))
    b = corpus_io.read_run(_require_file(run_b, "run B"))
    fused = fusion.interpolate(a, b, alpha, tag=tag)
    atomic_write(out, lambda tmp: corpus_io.write_run(fused, tmp))
    logger.info("fused %s + %s at alpha=%g -> %s", a.tag, b.tag, alpha, out)


def run_eval(run: str, qrels: str, k: int = 10, out: str | None = None) -> str:
    """nDCG@k of a run against qrels"""
    report = ndcg_at_k(corpus_io.read_run(_require_file(run, "run")),
                       corpus_io.load_qrels(_require_file(qrels, "qrels")), k=k)
    text = _write_text(out, format_report(report))
    logger.info("nDCG@%d = %.4f over %d queries", k, report.mean, report.evaluated_query_count)
    return text


def run_sigtest(runs: list[str], qrels: str, k: int = 10, alpha_level: float = 0.05,
                correction: Literal["bonferroni", "none"] = "bonferroni",
                out: str | None = None) -> str:
    """pairwise paired t-tests between runs"""
    if len(runs) < 2:
        raise UsageError("sigtest needs at least 2 run files")
    judged = corpus_io.load_qrels(_require_file(qrels, "qrels"))
    named = [(os.path.splitext(os.path.basename(path))[0],
              corpus_io.read_run(_require_file(path, "run"))) for path in runs]
    if len({name for name, _ in named}) != len(named):
        raise UsageError("run file basenames must be unique (they name the rows)")
    return _write_text(out, significance_matrix(named, judged, k=k, alpha_level=alpha_level,
                                                correction=correction).render())


def run_sweep(run_a: str, run_b: str, qrels: str,
              alphas: list[float] = [i / 10 for i in range(11)],  # shared: never mutated
              k: int = 10, out: str | None = None) -> str:
    """nDCG@k across interpolation weights"""
    rows = fusion.sweep_alpha(corpus_io.read_run(_require_file(run_a, "run A")),
                              corpus_io.read_run(_require_file(run_b, "run B")), alphas,
                              corpus_io.load_qrels(_require_file(qrels, "qrels")), k=k)
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
            else isinstance(value, dict) if kind is dict or is_dataclass(kind)
            else type(value) is kind):
        raise UsageError(f"{name} must be {_JSON_TYPES.get(kind, 'an object')}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")
    if isinstance(value, dict):
        keys = (typing.get_type_hints(kind) if is_dataclass(kind) else
                {k: v for k, v in typing.get_type_hints(run_index).items() if k in ANALYZER_KEYS})
        value = {k: _checked(f"{name}.{k}", v, keys.get(k)) for k, v in value.items()}
        return _params(kind, f"{name}.", **value) if is_dataclass(kind) else value
    if (choices := _choices(hint)) and value not in choices:
        raise UsageError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    _check_rule(name, value, name)
    return value


# config key -> (run_* function, keyword): every run_rerank keyword the pipeline leaves open
VERB_KEYS = {**{name: (run_rerank, name) for name in inspect.signature(run_rerank).parameters
                if name not in ("run", "out", "tag", "stats_out")},
             "first_stage": (run_search, "ranker"), "eval_k": (run_eval, "k"),
             **{name: (run_sigtest, name) for name in ("alpha_level", "correction")}}


@dataclass
class _PipelineKeys:
    """The pipeline's own config keys. PipelineConfig adds the VERB_KEYS: everything
    one end-to-end experiment needs, loadable from JSON with CLI flag overrides (flags win)."""

    qrels: str
    output_dir: str
    analyzer: dict = dc_field(default_factory=dict)
    bm25: ranking.Bm25Params = dc_field(default_factory=ranking.Bm25Params)
    dirichlet: ranking.DirichletParams = dc_field(default_factory=ranking.DirichletParams)
    external_run: str | None = None
    hybrid_alpha: float = fusion.HYBRID_ALPHA
    rerank_alpha: float = fusion.RERANK_ALPHA

    @classmethod
    def load(cls, path: str, overrides: dict | None = None) -> _PipelineKeys:
        """Read and check a config, with non-None `overrides` winning; every
        check runs here, before any stage touches the disk."""
        data = corpus_io.read_json(_require_file(path, "config"))
        if not isinstance(data, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        data.update({k: v for k, v in (overrides or {}).items() if v is not None})
        types = typing.get_type_hints(cls)
        checked = {name: _checked(name, value, types.get(name)) for name, value in data.items()}
        missing = [f.name for f in fields(cls) if f.name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise UsageError(f"{path}: missing required config keys {missing}")
        config = cls(**checked)
        paths = [(name, getattr(config, name))
                 for name in ("corpus", "queries", "qrels", "external_run", "catalog")]
        for name, path in paths + [("analyzer.stopwords", config.analyzer.get("stopwords"))]:
            if path:
                _require_file(path, name)
        # the re-rank stage's own checks, in its order
        if config.provider == "remote":
            _remote_provider(config.endpoint, config.auth_token)
        _prompt_setup(config.catalog, config.model_family, config.dataset, config.fewshot)
        return config


@functools.cache
def _pipeline_config() -> type[_PipelineKeys]:
    """PipelineConfig, made on first use: the verbs that run no pipeline skip making it."""
    hints = {run: typing.get_type_hints(run) for run, _ in VERB_KEYS.values()}
    return make_dataclass("PipelineConfig", bases=(_PipelineKeys,), kw_only=True, fields=[
        (key, hints[run][kw],
         dc_field(default=MISSING if param.default is param.empty else param.default))
        for key, (run, kw) in VERB_KEYS.items()
        for param in [inspect.signature(run).parameters[kw]]],
        namespace={"__module__": __name__})  # make_dataclass sets no module before Python 3.12


def __getattr__(name: str):
    if name == "PipelineConfig":
        return _pipeline_config()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_pipeline(config: str, **overrides) -> None:
    """run the full two-stage pipeline from a config

    index -> search -> (hybrid fuse) -> rerank -> interpolate -> evaluate ->
    significance, from the config file at `config` and the config keys in
    `overrides`. Every intermediate run is persisted for audit or re-fusion."""
    cfg = _pipeline_config().load(config, overrides)
    os.makedirs(cfg.output_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(cfg.output_dir, name)

    # search takes the index just built; index.json is written as an artifact
    inverted = run_index(cfg.corpus, out("index.json"), **cfg.analyzer)
    _search(inverted, cfg.queries, out("first_stage.trec"), cfg.first_stage, cfg.depth,
            cfg.bm25 if cfg.first_stage == "bm25" else cfg.dirichlet, tag=None)

    candidates = out("first_stage.trec")
    if cfg.external_run:
        # rerank takes the top `depth` of the hybrid run via its own depth cut
        run_fuse(out("first_stage.trec"), cfg.external_run, out("hybrid.trec"),
                 alpha=cfg.hybrid_alpha, tag="hybrid")
        candidates = out("hybrid.trec")

    run_rerank(candidates, out=out("reranked.trec"), stats_out=out("provider_stats.json"),
               **{keyword: getattr(cfg, key)
                  for key, (run, keyword) in VERB_KEYS.items() if run is run_rerank})
    run_fuse(candidates, out("reranked.trec"), out("fused.trec"), alpha=cfg.rerank_alpha)
    run_eval(out("fused.trec"), cfg.qrels, k=cfg.eval_k, out=out("eval.tsv"))
    run_sigtest([candidates, out("reranked.trec"), out("fused.trec")], cfg.qrels,
                k=cfg.eval_k, alpha_level=cfg.alpha_level, correction=cfg.correction,
                out=out("significance.txt"))
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
               "max_workers": "concurrent requests to the remote provider "
                              "(the bigram provider always scores serially)",
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
        required = default is inspect.Parameter.empty
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
        for name, param in inspect.signature(run).parameters.items():
            if param.kind is param.VAR_KEYWORD:
                types = typing.get_type_hints(_pipeline_config())
                for key in PIPELINE_FLAGS:
                    _add_param(p, key, types[key], None, None)
            else:
                _add_param(p, name, hints[name], param.default, _HELP.get(verb, {}).get(name))
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
        args = vars(build_parser(only).parse_args(argv))
        verb = VERBS[args.pop("command")]
        for name, value in args.items():
            _check_rule(name, value, "--" + name.replace("_", "-"))
        text = verb(**args)  # a report, or run_index's index
        sys.stdout.write(text if isinstance(text, str) else "")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (OSError, ValueError, KeyError) as exc:  # FormatError and CatalogError included
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
