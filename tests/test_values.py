"""The package's value types behave as the dataclasses they replaced did, and
no module loads dataclasses, inspect, ast or dis, which cost every verb
process start-up time."""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from qlmrank.corpus import Bm25Params, DirichletParams, Document, Query, Run
from qlmrank.evaluation import EvalReport, SignificanceMatrix, SigResult
from qlmrank.likelihood import LikelihoodRequest, LikelihoodResult
from qlmrank.prompts import FewShotExample, PromptCatalog, PromptTemplate
from qlmrank.ranking import Analyzer, InvertedIndex

SRC = Path(__file__).resolve().parent.parent / "src"
TEMPLATE = PromptTemplate("{doc}")

# type -> (its fields in order, a value's arguments, another value's, which
# differs in one field, the default of each field that has one, and whether
# the type is frozen). A default that is no class attribute, as a
# dataclass's default_factory was not, is in brackets.
CASES = {
    Bm25Params: (("k1", "b"), (1.2, 0.75), (1.2, 0.5), {"k1": 0.9, "b": 0.4}, True),
    DirichletParams: (("mu",), (500.0,), (2000.0,), {"mu": 1000.0}, True),
    Document: (("id", "title", "body"), ("d1", "Apples", "apple pie"),
               ("d1", "", "apple pie"), {}, True),
    Query: (("id", "text"), ("q1", "apple pie"), ("q2", "apple pie"), {}, True),
    Run: (("entries", "tag"), ({"q1": [("d1", 1.0)]}, "bm25"), ({"q1": [("d1", 2.0)]}, "bm25"),
          {"entries": [{}], "tag": "run"}, False),
    EvalReport: (("per_query", "mean", "k", "evaluated_query_count"), ({"q1": 0.5}, 0.5, 10, 1),
                 ({"q1": 0.5}, 0.5, 5, 1), {}, False),
    SigResult: (("t_statistic", "p_value", "df", "degenerate"), (1.5, 0.2, 9, True),
                (1.5, 0.3, 9, True), {"degenerate": False}, False),
    SignificanceMatrix: (
        ("names", "letters", "means", "beats", "k", "alpha_level", "correction"),
        (["x", "y"], {"x": "a", "y": "b"}, {"x": 0.5, "y": 0.4}, {"x": {"b"}}, 5, 0.01, "none"),
        (["x", "y"], {"x": "a", "y": "b"}, {"x": 0.5, "y": 0.4}, {"x": set()}, 5, 0.01, "none"),
        {"beats": [{}], "k": 10, "alpha_level": 0.05, "correction": "bonferroni"}, False),
    Analyzer: (("lowercase", "stopwords", "stem"), (False, frozenset({"the"}), True),
               (False, frozenset(), True),
               {"lowercase": True, "stopwords": frozenset(), "stem": False}, True),
    InvertedIndex: (("doc_ids", "doc_len", "postings", "analyzer"),
                    (["d1"], array("I", [2]), {"pie": (array("I", [0]), array("I", [2]))},
                     Analyzer(stem=True)),
                    (["d2"], array("I", [2]), {"pie": (array("I", [0]), array("I", [2]))},
                     Analyzer(stem=True)),
                    {"analyzer": [Analyzer()]}, False),
    LikelihoodRequest: (("context", "continuation"), ("a prompt", " apple pie"),
                        ("a prompt", " apple"), {}, True),
    LikelihoodResult: (("tokens", "logprobs"), (("apple", "pie"), (-1.0, -2.0)),
                       (("apple", "pie"), (-1.0, -3.0)), {}, True),
    PromptTemplate: (("body", "system_prefix", "suffix"), ("Doc: {doc}", "sys ", " end"),
                     ("Doc: {doc}", "", " end"), {"system_prefix": "", "suffix": ""}, True),
    FewShotExample: (("document", "good_question", "bad_question"), ("a doc", "good?", "bad?"),
                     ("a doc", "good?", "worse?"), {}, True),
    PromptCatalog: (("entries", "fewshot"), ({("llama", "trecc"): TEMPLATE}, {}),
                    ({("flan", "trecc"): TEMPLATE}, {}), {}, False),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names, args, other_args, defaults, frozen = CASES[cls]
    value = cls(*args)
    assert cls.__match_args__ == names
    assert [getattr(value, name) for name in names] == list(args)
    assert cls(**dict(zip(names, args))) == value

    # defaults: each omitted argument takes its default; a plain one is also the class's
    required = len(names) - len(defaults)
    assert list(defaults) == list(names[required:])
    bare = cls(*args[:required])
    for name, default in defaults.items():
        if isinstance(default, list):
            [default] = default
        else:
            assert getattr(cls, name) == default
        assert getattr(bare, name) == default, name

    # equal only to a value of the same class with equal fields: never to a tuple
    assert value == cls(*args) and not value != cls(*args)
    assert value != cls(*other_args)
    assert value != tuple(args) and tuple(args) != value
    assert value != type("Derived", (cls,), {})(*args)

    if frozen:
        assert hash(value) == hash(cls(*args))
        for name in names:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
        changed = cls(*args)
        setattr(changed, names[-1], other_args[-1])
        assert getattr(changed, names[-1]) == other_args[-1]

    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
    assert repr(value) == f"{cls.__name__}({fields})"


def test_repr_spells_each_field():
    assert repr(Bm25Params()) == "Bm25Params(k1=0.9, b=0.4)"
    assert repr(Run({"q1": [("d1", 1)]})) == "Run(entries={'q1': [('d1', 1.0)]}, tag='run')"


def test_a_default_built_on_each_call_is_not_shared():
    assert Run().entries is not Run().entries
    assert SignificanceMatrix([], {}, {}).beats is not SignificanceMatrix([], {}, {}).beats


def test_no_module_loads_what_slows_start_up():
    # -S: no site module, so only the package's own imports count
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
            "import qlmrank.cli, qlmrank.ranking, qlmrank.likelihood, qlmrank.prompts, "
            "qlmrank.evaluation, qlmrank.fusion\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
