"""Two-stage zero-shot ranking: lexical retrieval, query-likelihood
re-ranking through pluggable logprob providers, score fusion, and
TREC-style evaluation.

Each public name is re-exported here and imported on first use (PEP 562),
so `import qlmrank` itself loads none of the package's modules.
"""

import importlib

# the public names of each module
_EXPORTS = {
    "corpus": ("Document", "FormatError", "QrelSet", "Query", "Run", "load_corpus",
               "load_qrels", "load_queries", "read_run", "write_run"),
    "evaluation": ("EvalReport", "SigResult", "ndcg_at_k", "paired_ttest",
                   "significance_matrix"),
    "fusion": ("interpolate", "minmax_normalize", "sweep_alpha", "truncate"),
    "likelihood": ("BigramLm", "LikelihoodRequest", "LikelihoodResult", "ProtocolError",
                   "ProviderError", "RemoteProvider", "TransportError", "make_request",
                   "rerank", "rerank_run", "score_query_likelihood"),
    "prompts": ("FewShotExample", "PromptCatalog", "PromptTemplate", "default_catalog",
                "load_catalog", "render_fewshot", "render_prompt", "save_catalog"),
    "ranking": ("Analyzer", "Bm25Params", "DirichletParams", "InvertedIndex", "bm25_score",
                "bm25_search", "build_index", "dirichlet_qlm_score", "dirichlet_search",
                "load_index", "save_index"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
