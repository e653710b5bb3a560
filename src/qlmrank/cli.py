"""Command-line pipeline orchestration.

Verbs: index, search, rerank, fuse, eval, sigtest, sweep, pipeline. Every
command is a pure file-to-file transformation: identical inputs and flags
produce byte-identical outputs. Each output is staged to a fresh temp file
beside it, fsynced and renamed into place, so interrupted or concurrent
runs never leave truncated files.

A parameter has one name: its flag's dest, its run_* keyword and its
config key are the same word; RANGES and CHOICES hold its rules.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider/transport error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import pathlib
import sys
import tempfile
import typing
from dataclasses import MISSING, dataclass, field as dc_field, fields, is_dataclass

from . import corpus as corpus_io, fusion, likelihood, prompts, ranking
from .corpus import FormatError, Run
from .evaluation import format_report, ndcg_at_k, significance_matrix
from .likelihood import ProviderError, ProviderStats
from .prompts import CatalogError

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "QLMRANK_ENDPOINT"
AUTH_TOKEN_ENV = "QLMRANK_AUTH_TOKEN"

EXIT_USAGE, EXIT_DATA, EXIT_PROVIDER = 1, 2, 3

# the range rule of each ranged parameter: (test, what the error says)
RANGES: dict[str, tuple[typing.Callable[[float], bool], str]] = {
    **{name: (lambda v: v >= 1, "must be >= 1")
       for name in ("k", "depth", "max_workers", "eval_k", "doc_max_chars")},
    **{name: (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
       for name in ("alpha", "alphas", "hybrid_alpha", "rerank_alpha", "alpha_level")},
}
CHOICES = {"ranker": ("bm25", "dirichlet"), "first_stage": ("bm25", "dirichlet"),
           "provider": ("bigram", "remote"), "on_error": ("fail", "floor"),
           "correction": ("bonferroni", "none")}
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


def _check_range(name: str, value, spelled: str) -> None:
    """Apply `name`'s RANGES rule to a value or a list; errors say `spelled`."""
    if name not in RANGES or value is None:
        return
    test, rule = RANGES[name]
    for v in value if isinstance(value, list) else [value]:
        if not test(v):
            raise UsageError(f"{spelled} {rule}, got {v}")


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


# --- Verbs: run_<verb> takes the verb's flags as keywords ---

def run_index(corpus: str, out: str, lowercase: bool = True, stopwords: str | None = None,
              stem: bool = False) -> None:
    words: frozenset[str] = frozenset()
    if stopwords:
        with open(_require_file(stopwords, "stopword list"), encoding="utf-8") as f:
            words = frozenset(w.strip() for w in f if w.strip())
    analyzer = ranking.Analyzer(lowercase=lowercase, stopwords=words, stem=stem)
    docs = corpus_io.load_corpus(_require_file(corpus, "corpus"))
    index = ranking.build_index(docs, analyzer)
    atomic_write(out, lambda tmp: ranking.save_index(index, tmp))
    logger.info("indexed %d documents, %d terms -> %s", index.n_docs, len(index.postings), out)


def run_search(index: str, queries: str, out: str, ranker: str, k: int,
               k1: float, b: float, mu: float, tag: str | None) -> None:
    # both are built, so a bad --mu fails under bm25 too, before any file is read
    params = {"bm25": _params(ranking.Bm25Params, "--", k1=k1, b=b),
              "dirichlet": _params(ranking.DirichletParams, "--", mu=mu)}[ranker]
    inverted = ranking.load_index(_require_file(index, "index"))
    query_list = corpus_io.load_queries(_require_file(queries, "queries"))
    search = ranking.bm25_search if ranker == "bm25" else ranking.dirichlet_search
    run = Run({query.id: search(inverted, params, query.text, k=k) for query in query_list},
              tag=tag or ranker)
    atomic_write(out, lambda tmp: corpus_io.write_run(run, tmp))
    logger.info("searched %d queries with %s -> %s", len(query_list), ranker, out)


def _build_provider(provider: str, endpoint: str | None, auth_token: str | None,
                    docs: list[corpus_io.Document], max_workers: int) -> likelihood.Provider:
    if provider == "bigram":
        return likelihood.BigramLm.train([f"{d.title} {d.body}" if d.title else d.body
                                          for d in docs])
    return likelihood.RemoteProvider(_endpoint(endpoint), pool_size=max_workers,
                                     auth_token=auth_token or os.environ.get(AUTH_TOKEN_ENV))


def _endpoint(endpoint: str | None) -> str:
    endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise UsageError(f"remote provider needs --endpoint or ${ENDPOINT_ENV}")
    return endpoint


def _prompt_setup(catalog: str | None, model_family: str, dataset: str, fewshot: bool
                  ) -> tuple[prompts.PromptTemplate, list[prompts.FewShotExample] | None]:
    """The template of model_family/dataset and, if fewshot, the dataset's
    few-shot triples, from the catalog at `catalog` or the shipped one."""
    prompt_catalog = (prompts.load_catalog(_require_file(catalog, "prompt catalog"))
                      if catalog else prompts.default_catalog())
    return (prompt_catalog.template(model_family, dataset),
            prompt_catalog.fewshot_for(dataset) if fewshot else None)


def run_rerank(run: str, corpus: str, queries: str, out: str, provider: str,
               endpoint: str | None, auth_token: str | None, catalog: str | None,
               model_family: str, dataset: str, depth: int, doc_max_chars: int,
               fewshot: bool, on_error: str, max_workers: int, tag: str,
               stats_out: str | None = None) -> None:
    docs = corpus_io.load_corpus(_require_file(corpus, "corpus"))
    query_list = corpus_io.load_queries(_require_file(queries, "queries"))
    first_stage = corpus_io.read_run(_require_file(run, "candidate run"))
    template, triples = _prompt_setup(catalog, model_family, dataset, fewshot)
    logger.info("prompt: %s/%s, %s", model_family, dataset, "fewshot" if triples else "zeroshot")

    provider_fn = _build_provider(provider, endpoint, auth_token, docs, max_workers)
    if provider == "bigram":
        max_workers = 1  # pure Python: threads would only contend for the GIL
    stats = ProviderStats()
    reranked = likelihood.rerank_run(
        provider_fn, template, query_list, first_stage, {d.id: d for d in docs},
        depth=depth, doc_max_chars=doc_max_chars, fewshot=triples,
        stats=stats, max_workers=max_workers, on_error=on_error, tag=tag)
    atomic_write(out, lambda tmp: corpus_io.write_run(reranked, tmp))
    logger.info("reranked %d queries -> %s | provider_requests=%d",
                len(reranked.entries), out, stats.requests)
    _write_text(stats_out, json.dumps({"requests": stats.requests}) + "\n")


def run_fuse(run_a: str, run_b: str, out: str, alpha: float, tag: str | None) -> None:
    a = corpus_io.read_run(_require_file(run_a, "run A"))
    b = corpus_io.read_run(_require_file(run_b, "run B"))
    fused = fusion.interpolate(a, b, alpha, tag=tag)
    atomic_write(out, lambda tmp: corpus_io.write_run(fused, tmp))
    logger.info("fused %s + %s at alpha=%g -> %s", a.tag, b.tag, alpha, out)


def run_eval(run: str, qrels: str, k: int, out: str | None) -> str:
    report = ndcg_at_k(corpus_io.read_run(_require_file(run, "run")),
                       corpus_io.load_qrels(_require_file(qrels, "qrels")), k=k)
    text = _write_text(out, format_report(report))
    logger.info("nDCG@%d = %.4f over %d queries", k, report.mean, report.evaluated_query_count)
    return text


def run_sigtest(runs: list[str], qrels: str, k: int, alpha_level: float,
                correction: str, out: str | None) -> str:
    if len(runs) < 2:
        raise UsageError("sigtest needs at least 2 run files")
    judged = corpus_io.load_qrels(_require_file(qrels, "qrels"))
    named = [(os.path.splitext(os.path.basename(path))[0],
              corpus_io.read_run(_require_file(path, "run"))) for path in runs]
    if len({name for name, _ in named}) != len(named):
        raise UsageError("run file basenames must be unique (they name the rows)")
    return _write_text(out, significance_matrix(named, judged, k=k, alpha_level=alpha_level,
                                                correction=correction).render())


def run_sweep(run_a: str, run_b: str, qrels: str, alphas: list[float], k: int,
              out: str | None) -> str:
    rows = fusion.sweep_alpha(corpus_io.read_run(_require_file(run_a, "run A")),
                              corpus_io.read_run(_require_file(run_b, "run B")), alphas,
                              corpus_io.load_qrels(_require_file(qrels, "qrels")), k=k)
    return _write_text(out, fusion.format_sweep(rows))


# --- Pipeline config ---

def _base_type(hint):
    """The type a field holds when it is not None: str for `str | None`."""
    return next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))


def _checked(name: str, value, hint):
    """A config value after checking its JSON type against the field type
    `hint` (a bool is not an int), its CHOICES and its RANGES. A section
    must hold only known keys; bm25 and dirichlet become their classes."""
    if hint is None:
        raise UsageError(f"unknown config key {name!r}")
    kind = _base_type(hint)
    if value is None and kind is not hint:
        return None
    if not (type(value) in (int, float) if kind is float
            else isinstance(value, dict) if kind is dict or is_dataclass(kind)
            else type(value) is kind):
        null = " or null" if kind is not hint else ""
        raise UsageError(f"{name} must be {_JSON_TYPES.get(kind, 'an object')}{null}, "
                         f"got {json.dumps(value)}")
    if isinstance(value, dict):
        keys = (typing.get_type_hints(kind) if is_dataclass(kind) else
                {k: v for k, v in typing.get_type_hints(run_index).items() if k in ANALYZER_KEYS})
        value = {k: _checked(f"{name}.{k}", v, keys.get(k)) for k, v in value.items()}
        return _params(kind, f"{name}.", **value) if is_dataclass(kind) else value
    if name in CHOICES and value not in CHOICES[name]:
        raise UsageError(f"{name} must be one of {', '.join(CHOICES[name])}, got {value!r}")
    _check_range(name, value, name)
    return value


@dataclass
class PipelineConfig:
    """Everything one end-to-end experiment needs, loadable from JSON with
    CLI flag overrides (flags win)."""

    corpus: str
    queries: str
    qrels: str
    output_dir: str
    model_family: str
    dataset: str
    analyzer: dict = dc_field(default_factory=dict)
    first_stage: str = "bm25"
    bm25: ranking.Bm25Params = dc_field(default_factory=ranking.Bm25Params)
    dirichlet: ranking.DirichletParams = dc_field(default_factory=ranking.DirichletParams)
    depth: int = 100
    external_run: str | None = None
    hybrid_alpha: float = fusion.HYBRID_ALPHA
    provider: str = "bigram"
    endpoint: str | None = None
    auth_token: str | None = None
    catalog: str | None = None
    doc_max_chars: int = prompts.DEFAULT_DOC_MAX_CHARS
    fewshot: bool = False
    on_error: str = "fail"
    max_workers: int = likelihood.DEFAULT_MAX_WORKERS
    rerank_alpha: float = fusion.RERANK_ALPHA
    eval_k: int = 10
    alpha_level: float = 0.05
    correction: str = "bonferroni"

    @classmethod
    def load(cls, path: str, overrides: dict | None = None) -> PipelineConfig:
        """Read and check a config, with non-None `overrides` winning; every
        check runs here, before any stage touches the disk."""
        with open(_require_file(path, "config"), encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        data.update({k: v for k, v in (overrides or {}).items() if v is not None})
        checked = {name: _checked(name, value, CONFIG_TYPES.get(name))
                   for name, value in data.items()}
        missing = [f.name for f in fields(cls) if f.name not in data
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise UsageError(f"{path}: missing required config keys {missing}")
        config = cls(**checked)
        for name in ("corpus", "queries", "qrels", "external_run", "catalog"):
            if getattr(config, name):
                _require_file(getattr(config, name), name)
        # the re-rank stage's own checks, in its order
        _prompt_setup(config.catalog, config.model_family, config.dataset, config.fewshot)
        if config.provider == "remote":
            _endpoint(config.endpoint)
        return config


CONFIG_TYPES = typing.get_type_hints(PipelineConfig)


def run_pipeline(config: str, **overrides) -> None:
    """index -> first-stage search -> (hybrid fuse) -> rerank -> interpolate
    -> evaluate -> significance, from the config file at `config` and the
    config keys in `overrides`. Every intermediate run is persisted so any
    stage can be audited or re-fused afterwards."""
    cfg = PipelineConfig.load(config, overrides)
    os.makedirs(cfg.output_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(cfg.output_dir, name)

    run_index(cfg.corpus, out("index.json"), **cfg.analyzer)
    run_search(out("index.json"), cfg.queries, out("first_stage.trec"),
               ranker=cfg.first_stage, k=cfg.depth, k1=cfg.bm25.k1, b=cfg.bm25.b,
               mu=cfg.dirichlet.mu, tag=None)

    candidates = out("first_stage.trec")
    if cfg.external_run:
        # rerank takes the top `depth` of the hybrid run via its own depth cut
        run_fuse(out("first_stage.trec"), cfg.external_run, out("hybrid.trec"),
                 alpha=cfg.hybrid_alpha, tag="hybrid")
        candidates = out("hybrid.trec")

    # every other keyword of run_rerank is the config key of the same name
    keys = [k for k in inspect.signature(run_rerank).parameters if k in CONFIG_TYPES]
    run_rerank(candidates, out=out("reranked.trec"), tag="qlm",
               stats_out=out("provider_stats.json"), **{k: getattr(cfg, k) for k in keys})
    run_fuse(candidates, out("reranked.trec"), out("fused.trec"),
             alpha=cfg.rerank_alpha, tag=None)
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


def _required(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlmrank",
                     description="Zero-shot retrieval, query-likelihood re-ranking, "
                                 "fusion, and evaluation over BEIR-format data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an inverted index from a corpus")
    _required(p, "--corpus", "--out")
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false")
    p.add_argument("--stopwords", help="newline-separated stopword file")
    p.add_argument("--stem", action="store_true", help="enable plural stripping")

    p = sub.add_parser("search", help="first-stage lexical retrieval")
    _required(p, "--index", "--queries", "--out")
    p.add_argument("--ranker", choices=CHOICES["ranker"], default="bm25")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--k1", type=float, default=ranking.Bm25Params.k1)
    p.add_argument("--b", type=float, default=ranking.Bm25Params.b)
    p.add_argument("--mu", type=float, default=ranking.DirichletParams.mu)
    p.add_argument("--tag")

    p = sub.add_parser("rerank", help="query-likelihood re-ranking of a candidate run")
    p.add_argument("--run", required=True, help="first-stage candidate run")
    _required(p, "--corpus", "--queries", "--out", "--model-family", "--dataset")
    p.add_argument("--provider", choices=CHOICES["provider"], default="bigram")
    p.add_argument("--endpoint", help=f"logprobs endpoint (default ${ENDPOINT_ENV})")
    p.add_argument("--auth-token", help=f"bearer token (default ${AUTH_TOKEN_ENV})")
    p.add_argument("--catalog", help="prompt catalog JSON (default: shipped catalog)")
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--doc-max-chars", type=int, default=prompts.DEFAULT_DOC_MAX_CHARS)
    p.add_argument("--fewshot", action="store_true")
    p.add_argument("--on-error", choices=CHOICES["on_error"], default="fail")
    p.add_argument("--max-workers", type=int, default=likelihood.DEFAULT_MAX_WORKERS,
                   help="concurrent requests to the remote provider "
                        "(the bigram provider always scores serially)")
    p.add_argument("--tag", default="qlm")
    p.add_argument("--stats-out", help="write provider request stats JSON here")

    p = sub.add_parser("fuse", help="min-max normalize and interpolate two runs")
    _required(p, "--run-a", "--run-b", "--out")
    p.add_argument("--alpha", type=float, required=True,
                   help="weight on run A (run B gets 1 - alpha)")
    p.add_argument("--tag")

    p = sub.add_parser("eval", help="nDCG@k of a run against qrels")
    _required(p, "--run", "--qrels")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", help="write the per-query TSV report here")

    p = sub.add_parser("sigtest", help="pairwise paired t-tests between runs")
    p.add_argument("runs", nargs="+", metavar="RUN")
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--alpha-level", type=float, default=0.05)
    p.add_argument("--correction", choices=CHOICES["correction"], default="bonferroni")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="nDCG@k across interpolation weights")
    _required(p, "--run-a", "--run-b", "--qrels")
    p.add_argument("--alphas", type=_parse_alphas,
                   default=",".join(str(i / 10) for i in range(11)))
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")

    p = sub.add_parser("pipeline", help="run the full two-stage pipeline from a config")
    p.add_argument("--config", required=True)
    for name in PIPELINE_FLAGS:
        flag, kind = "--" + name.replace("_", "-"), _base_type(CONFIG_TYPES[name])
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True)
        else:
            p.add_argument(flag, type=kind, choices=CHOICES.get(name))

    return parser


VERBS: dict[str, typing.Callable[..., str | None]] = {
    "index": run_index, "search": run_search, "rerank": run_rerank, "fuse": run_fuse,
    "eval": run_eval, "sigtest": run_sigtest, "sweep": run_sweep, "pipeline": run_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        args = vars(build_parser().parse_args(argv))
        verb = VERBS[args.pop("command")]
        for name, value in args.items():
            _check_range(name, value, "--" + name.replace("_", "-"))
        sys.stdout.write(verb(**args) or "")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (FormatError, CatalogError, OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return 0


if __name__ == "__main__":
    sys.exit(main())
