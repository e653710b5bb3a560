"""Command-line pipeline orchestration.

Verbs: index, search, rerank, fuse, eval, sigtest, sweep, pipeline. Every
command is a pure file-to-file transformation: identical inputs and flags
produce byte-identical outputs. Outputs are staged to a temp file and
promoted atomically, so interrupted runs never leave truncated files.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider/transport
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field as dc_field

from . import corpus, fusion, likelihood, prompts, ranking
from .corpus import FormatError, Run
from .evaluation import format_report, ndcg_at_k, significance_matrix
from .likelihood import ProviderError, ProviderStats
from .prompts import CatalogError

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "QLMRANK_ENDPOINT"
AUTH_TOKEN_ENV = "QLMRANK_AUTH_TOKEN"

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


class UsageError(Exception):
    """Bad flag/config values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _atomic_write(path: str, content: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(content)
    os.replace(tmp, path)


def _write_run_atomic(run: Run, path: str) -> None:
    tmp = f"{path}.tmp"
    corpus.write_run(run, tmp)
    os.replace(tmp, path)


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise FormatError(f"{what} not found: {path}")
    return path


def _load_analyzer(lowercase: bool, stopwords_path: str | None, stem: bool) -> ranking.Analyzer:
    stopwords: frozenset[str] = frozenset()
    if stopwords_path:
        with open(_require_file(stopwords_path, "stopword list"), encoding="utf-8") as f:
            stopwords = frozenset(w.strip() for w in f if w.strip())
    return ranking.Analyzer(lowercase=lowercase, stopwords=stopwords, stem=stem)


# ---------------------------------------------------------------------------
# Command implementations (shared by the verb dispatch and `pipeline`)
# ---------------------------------------------------------------------------

def run_index(corpus_path: str, out_path: str, analyzer: ranking.Analyzer) -> None:
    docs = corpus.load_corpus(_require_file(corpus_path, "corpus"))
    index = ranking.build_index(docs, analyzer)
    tmp = f"{out_path}.tmp"
    ranking.save_index(index, tmp)
    os.replace(tmp, out_path)
    logger.info("indexed %d documents, %d terms -> %s",
                index.n_docs, len(index.postings), out_path)


def run_search(index_path: str, queries_path: str, out_path: str, ranker: str,
               k: int, k1: float, b: float, mu: float, tag: str | None) -> None:
    if k < 1:
        raise UsageError(f"--k must be >= 1, got {k}")
    index = ranking.load_index(_require_file(index_path, "index"))
    queries = corpus.load_queries(_require_file(queries_path, "queries"))
    entries = {}
    if ranker == "bm25":
        params = ranking.Bm25Params(k1=k1, b=b)
        for query in queries:
            entries[query.id] = ranking.bm25_search(index, params, query.text, k=k)
    elif ranker == "dirichlet":
        dparams = ranking.DirichletParams(mu=mu)
        for query in queries:
            entries[query.id] = ranking.dirichlet_search(index, dparams, query.text, k=k)
    else:
        raise UsageError(f"unknown ranker {ranker!r}")
    run = Run(entries, tag=tag or ranker)
    _write_run_atomic(run, out_path)
    logger.info("searched %d queries with %s -> %s", len(queries), ranker, out_path)


def _build_provider(provider: str, endpoint: str | None, auth_token: str | None,
                    docs: list[corpus.Document], max_workers: int,
                    attempts: int = 3, backoff: float = 0.5) -> likelihood.Provider:
    if provider == "bigram":
        texts = [f"{d.title} {d.body}" if d.title else d.body for d in docs]
        return likelihood.BigramLm.train(texts)
    if provider == "remote":
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        auth_token = auth_token or os.environ.get(AUTH_TOKEN_ENV)
        if not endpoint:
            raise UsageError(
                f"remote provider needs --endpoint or ${ENDPOINT_ENV}"
            )
        return likelihood.RemoteProvider(endpoint, auth_token=auth_token,
                                         attempts=attempts, backoff=backoff,
                                         pool_size=max_workers)
    raise UsageError(f"unknown provider {provider!r}")


def run_rerank(run_path: str, corpus_path: str, queries_path: str, out_path: str,
               provider: str, endpoint: str | None, auth_token: str | None,
               catalog_path: str | None, model_family: str, dataset: str,
               depth: int, doc_max_chars: int, fewshot: bool, on_error: str,
               max_workers: int, tag: str, stats_out: str | None = None) -> None:
    if depth < 1:
        raise UsageError(f"--depth must be >= 1, got {depth}")
    if max_workers < 1:
        raise UsageError(f"--max-workers must be >= 1, got {max_workers}")
    docs = corpus.load_corpus(_require_file(corpus_path, "corpus"))
    queries = corpus.load_queries(_require_file(queries_path, "queries"))
    first_stage = corpus.read_run(_require_file(run_path, "candidate run"))
    catalog = (prompts.load_catalog(_require_file(catalog_path, "prompt catalog"))
               if catalog_path else prompts.default_catalog())
    template = catalog.template(model_family, dataset)
    triples = catalog.fewshot_for(dataset) if fewshot else None
    logger.info("prompt: %s/%s, %s", model_family, dataset,
                "fewshot" if triples else "zeroshot")

    provider_fn = _build_provider(provider, endpoint, auth_token, docs, max_workers)
    # the bigram model is pure Python: threads would only contend for the GIL
    if provider == "bigram":
        max_workers = 1
    doc_lookup = {d.id: d for d in docs}
    stats = ProviderStats()
    cache: dict = {}
    reranked = likelihood.rerank_run(
        provider_fn, template, queries, first_stage, doc_lookup,
        depth=depth, doc_max_chars=doc_max_chars, fewshot=triples,
        cache=cache, stats=stats, max_workers=max_workers,
        on_error=on_error, tag=tag,
    )
    _write_run_atomic(reranked, out_path)
    logger.info("reranked %d queries -> %s | provider_requests=%d cache_hits=%d hit_rate=%.3f",
                len(reranked.entries), out_path, stats.requests, stats.cache_hits,
                stats.hit_rate())
    if stats_out:
        _atomic_write(stats_out, json.dumps(
            {"requests": stats.requests, "cache_hits": stats.cache_hits,
             "hit_rate": stats.hit_rate()}, sort_keys=True) + "\n")


def run_fuse(run_a_path: str, run_b_path: str, out_path: str, alpha: float,
             tag: str | None) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"--alpha must be in [0, 1], got {alpha}")
    run_a = corpus.read_run(_require_file(run_a_path, "run A"))
    run_b = corpus.read_run(_require_file(run_b_path, "run B"))
    fused = fusion.interpolate(run_a, run_b, alpha, tag=tag)
    _write_run_atomic(fused, out_path)
    logger.info("fused %s + %s at alpha=%g -> %s", run_a.tag, run_b.tag, alpha, out_path)


def run_eval(run_path: str, qrels_path: str, k: int, out_path: str | None) -> str:
    if k < 1:
        raise UsageError(f"--k must be >= 1, got {k}")
    run = corpus.read_run(_require_file(run_path, "run"))
    qrels = corpus.load_qrels(_require_file(qrels_path, "qrels"))
    report = ndcg_at_k(run, qrels, k=k)
    text = format_report(report)
    if out_path:
        _atomic_write(out_path, text)
    logger.info("nDCG@%d = %.4f over %d queries", k, report.mean,
                report.evaluated_query_count)
    return text


def run_sigtest(run_paths: list[str], qrels_path: str, k: int, alpha_level: float,
                correction: str, out_path: str | None) -> str:
    if len(run_paths) < 2:
        raise UsageError("sigtest needs at least 2 run files")
    qrels = corpus.load_qrels(_require_file(qrels_path, "qrels"))
    named = []
    for path in run_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        named.append((name, corpus.read_run(_require_file(path, "run"))))
    if len({name for name, _ in named}) != len(named):
        raise UsageError("run file basenames must be unique (they name the rows)")
    matrix = significance_matrix(named, qrels, k=k, alpha_level=alpha_level,
                                 correction=correction)
    text = matrix.render()
    if out_path:
        _atomic_write(out_path, text)
    return text


def run_sweep(run_a_path: str, run_b_path: str, qrels_path: str, alphas: list[float],
              k: int, out_path: str | None) -> str:
    run_a = corpus.read_run(_require_file(run_a_path, "run A"))
    run_b = corpus.read_run(_require_file(run_b_path, "run B"))
    qrels = corpus.load_qrels(_require_file(qrels_path, "qrels"))
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise UsageError(f"alpha values must be in [0, 1], got {alpha}")
    rows = fusion.sweep_alpha(run_a, run_b, alphas, qrels, k=k)
    text = fusion.format_sweep(rows)
    if out_path:
        _atomic_write(out_path, text)
    return text


# ---------------------------------------------------------------------------
# Pipeline config
# ---------------------------------------------------------------------------

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
    bm25: dict = dc_field(default_factory=dict)
    dirichlet: dict = dc_field(default_factory=dict)
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
        with open(_require_file(path, "config"), encoding="utf-8") as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
        if overrides:
            data.update({k: v for k, v in overrides.items() if v is not None})
        missing = {"corpus", "queries", "qrels", "output_dir",
                   "model_family", "dataset"} - set(data)
        if missing:
            raise UsageError(f"{path}: missing required config keys {sorted(missing)}")
        config = cls(**data)
        config.validate()
        return config

    def validate(self) -> None:
        for attr in ("corpus", "queries", "qrels"):
            _require_file(getattr(self, attr), attr)
        if self.external_run:
            _require_file(self.external_run, "external_run")
        if self.catalog:
            _require_file(self.catalog, "catalog")
        for name, alpha in (("rerank_alpha", self.rerank_alpha),
                            ("hybrid_alpha", self.hybrid_alpha)):
            if not 0.0 <= alpha <= 1.0:
                raise UsageError(f"{name} must be in [0, 1], got {alpha}")
        if self.first_stage not in ("bm25", "dirichlet"):
            raise UsageError(f"first_stage must be bm25 or dirichlet, got {self.first_stage!r}")
        if self.provider not in ("bigram", "remote"):
            raise UsageError(f"provider must be bigram or remote, got {self.provider!r}")
        if self.depth < 1:
            raise UsageError(f"depth must be >= 1, got {self.depth}")
        if self.max_workers < 1:
            raise UsageError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.eval_k < 1:
            raise UsageError(f"eval_k must be >= 1, got {self.eval_k}")


def run_pipeline(config: PipelineConfig) -> None:
    """index -> first-stage search -> (hybrid fuse) -> rerank -> interpolate
    -> evaluate -> significance. Every intermediate run is persisted so any
    stage can be audited or re-fused afterwards."""
    os.makedirs(config.output_dir, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(config.output_dir, name)

    analyzer = _load_analyzer(
        lowercase=config.analyzer.get("lowercase", True),
        stopwords_path=config.analyzer.get("stopwords"),
        stem=config.analyzer.get("stem", False),
    )
    run_index(config.corpus, out("index.json"), analyzer)
    run_search(
        out("index.json"), config.queries, out("first_stage.trec"),
        ranker=config.first_stage, k=config.depth,
        k1=config.bm25.get("k1", 0.9), b=config.bm25.get("b", 0.4),
        mu=config.dirichlet.get("mu", 1000.0), tag=None,
    )

    candidates_path = out("first_stage.trec")
    if config.external_run:
        # rerank takes the top `depth` of the hybrid run via its own depth cut
        run_fuse(out("first_stage.trec"), config.external_run, out("hybrid.trec"),
                 alpha=config.hybrid_alpha, tag="hybrid")
        candidates_path = out("hybrid.trec")

    run_rerank(
        candidates_path, config.corpus, config.queries, out("reranked.trec"),
        provider=config.provider, endpoint=config.endpoint,
        auth_token=config.auth_token, catalog_path=config.catalog,
        model_family=config.model_family, dataset=config.dataset,
        depth=config.depth, doc_max_chars=config.doc_max_chars,
        fewshot=config.fewshot, on_error=config.on_error,
        max_workers=config.max_workers, tag="qlm",
        stats_out=out("provider_stats.json"),
    )
    run_fuse(candidates_path, out("reranked.trec"), out("fused.trec"),
             alpha=config.rerank_alpha, tag=None)
    run_eval(out("fused.trec"), config.qrels, k=config.eval_k, out_path=out("eval.tsv"))

    stage_runs = [candidates_path, out("reranked.trec"), out("fused.trec")]
    run_sigtest(stage_runs, config.qrels, k=config.eval_k,
                alpha_level=config.alpha_level, correction=config.correction,
                out_path=out("significance.txt"))
    logger.info("pipeline complete -> %s", config.output_dir)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parse_alphas(value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad alpha list {value!r}; expected comma-separated floats") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qlmrank",
                     description="Zero-shot retrieval, query-likelihood re-ranking, "
                                 "fusion, and evaluation over BEIR-format data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build an inverted index from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-lowercase", dest="lowercase", action="store_false")
    p.add_argument("--stopwords", help="newline-separated stopword file")
    p.add_argument("--stem", action="store_true", help="enable plural stripping")

    p = sub.add_parser("search", help="first-stage lexical retrieval")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ranker", choices=["bm25", "dirichlet"], default="bm25")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--k1", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--mu", type=float, default=1000.0)
    p.add_argument("--tag")

    p = sub.add_parser("rerank", help="query-likelihood re-ranking of a candidate run")
    p.add_argument("--run", required=True, help="first-stage candidate run")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provider", choices=["bigram", "remote"], default="bigram")
    p.add_argument("--endpoint", help=f"logprobs endpoint (default ${ENDPOINT_ENV})")
    p.add_argument("--auth-token", help=f"bearer token (default ${AUTH_TOKEN_ENV})")
    p.add_argument("--catalog", help="prompt catalog JSON (default: shipped catalog)")
    p.add_argument("--model-family", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--doc-max-chars", type=int, default=prompts.DEFAULT_DOC_MAX_CHARS)
    p.add_argument("--fewshot", action="store_true")
    p.add_argument("--on-error", choices=["fail", "floor"], default="fail")
    p.add_argument("--max-workers", type=int, default=likelihood.DEFAULT_MAX_WORKERS,
                   help="concurrent requests to the remote provider "
                        "(the bigram provider always scores serially)")
    p.add_argument("--tag", default="qlm")
    p.add_argument("--stats-out", help="write provider request stats JSON here")

    p = sub.add_parser("fuse", help="min-max normalize and interpolate two runs")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--alpha", type=float, required=True,
                   help="weight on run A (run B gets 1 - alpha)")
    p.add_argument("--out", required=True)
    p.add_argument("--tag")

    p = sub.add_parser("eval", help="nDCG@k of a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", help="write the per-query TSV report here")

    p = sub.add_parser("sigtest", help="pairwise paired t-tests between runs")
    p.add_argument("runs", nargs="+", metavar="RUN")
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--alpha-level", type=float, default=0.05)
    p.add_argument("--correction", choices=["bonferroni", "none"], default="bonferroni")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="nDCG@k across interpolation weights")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--alphas", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")

    p = sub.add_parser("pipeline", help="run the full two-stage pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.add_argument("--depth", type=int)
    p.add_argument("--provider", choices=["bigram", "remote"])
    p.add_argument("--endpoint")
    p.add_argument("--auth-token")
    p.add_argument("--model-family")
    p.add_argument("--dataset")
    p.add_argument("--rerank-alpha", type=float)
    p.add_argument("--hybrid-alpha", type=float)
    p.add_argument("--fewshot", action="store_const", const=True, default=None)
    p.add_argument("--eval-k", type=int)

    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "index":
        analyzer = _load_analyzer(args.lowercase, args.stopwords, args.stem)
        run_index(args.corpus, args.out, analyzer)
    elif args.command == "search":
        run_search(args.index, args.queries, args.out, ranker=args.ranker, k=args.k,
                   k1=args.k1, b=args.b, mu=args.mu, tag=args.tag)
    elif args.command == "rerank":
        run_rerank(args.run, args.corpus, args.queries, args.out,
                   provider=args.provider, endpoint=args.endpoint,
                   auth_token=args.auth_token, catalog_path=args.catalog,
                   model_family=args.model_family, dataset=args.dataset,
                   depth=args.depth, doc_max_chars=args.doc_max_chars,
                   fewshot=args.fewshot, on_error=args.on_error,
                   max_workers=args.max_workers, tag=args.tag,
                   stats_out=args.stats_out)
    elif args.command == "fuse":
        run_fuse(args.run_a, args.run_b, args.out, alpha=args.alpha, tag=args.tag)
    elif args.command == "eval":
        sys.stdout.write(run_eval(args.run, args.qrels, k=args.k, out_path=args.out))
    elif args.command == "sigtest":
        sys.stdout.write(run_sigtest(args.runs, args.qrels, k=args.k,
                                     alpha_level=args.alpha_level,
                                     correction=args.correction, out_path=args.out))
    elif args.command == "sweep":
        sys.stdout.write(run_sweep(args.run_a, args.run_b, args.qrels,
                                   alphas=_parse_alphas(args.alphas), k=args.k,
                                   out_path=args.out))
    elif args.command == "pipeline":
        overrides = {
            "output_dir": args.output_dir,
            "depth": args.depth,
            "provider": args.provider,
            "endpoint": args.endpoint,
            "auth_token": args.auth_token,
            "model_family": args.model_family,
            "dataset": args.dataset,
            "rerank_alpha": args.rerank_alpha,
            "hybrid_alpha": args.hybrid_alpha,
            "fewshot": args.fewshot,
            "eval_k": args.eval_k,
        }
        config = PipelineConfig.load(args.config, overrides)
        run_pipeline(config)
    else:  # pragma: no cover - argparse enforces the choices
        raise UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _dispatch(args)
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
