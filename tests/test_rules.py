"""corpus.RULES declares each parameter's value rule once: every library
function that takes such a parameter checks it there, with the table's
wording, and every name in the table is a parameter the CLI takes."""

import inspect
import re

import pytest

from qlmrank import cli
from qlmrank.corpus import RULES, Document, QrelSet, Query, Run
from qlmrank.evaluation import ndcg_at_k, significance_matrix
from qlmrank.fusion import interpolate, sweep_alpha
from qlmrank.likelihood import rerank_run
from qlmrank.prompts import FewShotExample, PromptTemplate, render_fewshot, render_prompt
from qlmrank.ranking import Bm25Params, DirichletParams, bm25_search, build_index, dirichlet_search

DOC = Document("d1", "", "apple pie")
INDEX = build_index([DOC])
RUN = Run({"q1": [("d1", 1.0)], "q2": [("d1", 1.0)]})
QRELS = QrelSet({"q1": {"d1": 1}, "q2": {"d1": 1}})
TEMPLATE = PromptTemplate(body="{doc}")
TRIPLES = [FewShotExample("a document", "a good question", "a bad question")] * 3


def no_call(request):
    raise AssertionError("the provider is called before the arguments are checked")


def rerank(name):
    return lambda value: rerank_run(no_call, TEMPLATE, [Query("q1", "apple")], RUN, {"d1": DOC},
                                    **{name: value})


# (library call of one argument, the parameter it passes that argument as, bad values)
CASES = {
    "bm25_search-k": (lambda v: bm25_search(INDEX, Bm25Params(), "apple", k=v), "k", [0, -1]),
    "dirichlet_search-k": (lambda v: dirichlet_search(INDEX, DirichletParams(), "apple", k=v),
                           "k", [0, -1]),
    "ndcg_at_k-k": (lambda v: ndcg_at_k(RUN, QRELS, k=v), "k", [0]),
    "sweep_alpha-k": (lambda v: sweep_alpha(RUN, RUN, [0.5], QRELS, k=v), "k", [0]),
    "interpolate-alpha": (lambda v: interpolate(RUN, RUN, v), "alpha", [-0.1, 1.5]),
    "sweep_alpha-alphas": (lambda v: sweep_alpha(RUN, RUN, [0.5, v], QRELS), "alphas", [1.5]),
    "rerank_run-depth": (rerank("depth"), "depth", [0, -1]),
    "rerank_run-max_workers": (rerank("max_workers"), "max_workers", [0, -2]),
    "render_prompt-doc_max_chars": (lambda v: render_prompt(TEMPLATE, DOC, v),
                                    "doc_max_chars", [0]),
    "render_fewshot-doc_max_chars": (lambda v: render_fewshot(TEMPLATE, TRIPLES, DOC, v),
                                     "doc_max_chars", [0]),
    "Bm25Params-k1": (lambda v: Bm25Params(k1=v), "k1", [0.0, -1.0, float("inf"), float("nan")]),
    "Bm25Params-b": (lambda v: Bm25Params(b=v), "b", [-0.5, 2, float("nan")]),
    "DirichletParams-mu": (lambda v: DirichletParams(mu=v), "mu", [0, float("inf")]),
    "significance_matrix-alpha_level": (
        lambda v: significance_matrix([("a", RUN), ("b", RUN)], QRELS, alpha_level=v),
        "alpha_level", [5, -1]),
}


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{case}-{value}")
    for case, (call, name, values) in CASES.items() for value in values])
def test_library_checks_the_table(call, name, value):
    message = f"{name} {RULES[name][1]}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def test_every_rule_names_a_parameter():
    # a run_* keyword, a pipeline config key, or a key of a config section
    keywords = {name for run in cli.VERBS.values() for name in inspect.signature(run).parameters}
    config = set(cli.config_keys())
    sections = {name for params in (Bm25Params, DirichletParams)
                for name in params.__match_args__}
    assert set(RULES) <= keywords | config | sections | set(cli.ANALYZER_KEYS)
