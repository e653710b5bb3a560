import json
import re

import pytest

from qlmrank.corpus import Document
from qlmrank.prompts import (
    CatalogError,
    FewShotExample,
    PromptCatalog,
    PromptTemplate,
    default_catalog,
    load_catalog,
    render_fewshot,
    render_prompt,
    save_catalog,
)

TRIPLES = [
    FewShotExample("doc one", "good one", "bad one"),
    FewShotExample("doc two", "good two", "bad two"),
    FewShotExample("doc three", "good three", "bad three"),
]


class TestPromptTemplate:
    def test_placeholder_required(self):
        with pytest.raises(CatalogError):
            PromptTemplate(body="no placeholder here")

    def test_placeholder_must_be_unique(self):
        with pytest.raises(CatalogError):
            PromptTemplate(body="{doc} and {doc}")


class TestRenderPrompt:
    def test_direct_substitution(self):
        template = PromptTemplate(body="Q: {doc}")
        assert render_prompt(template, Document("d", "", "xyz")) == "Q: xyz"

    def test_default_llama_template(self):
        catalog = default_catalog()
        template = catalog.template("llama", "trecc")
        assert template.body == (
            "Generate a question that is the most relevant to the given "
            "article's title and abstract.\n{doc}"
        )
        assert template.suffix == "\n\nHere is a generated relevant question:"
        rendered = render_prompt(template, Document("d", "", "D"))
        assert rendered == (
            "Generate a question that is the most relevant to the given "
            "article's title and abstract.\nD\n\nHere is a generated relevant question:"
        )

    def test_title_joined_with_newline(self):
        template = PromptTemplate(body="{doc}")
        assert render_prompt(template, Document("d", "Title", "Body")) == "Title\nBody"

    def test_hard_truncation_without_whitespace(self):
        template = PromptTemplate(body="{doc}")
        assert render_prompt(template, Document("d", "", "abcd"), doc_max_chars=2) == "ab"

    def test_truncation_backs_up_to_word_boundary(self):
        template = PromptTemplate(body="{doc}")
        out = render_prompt(template, Document("d", "", "alpha beta gamma"), doc_max_chars=12)
        assert out == "alpha beta"

    def test_no_truncation_when_short(self):
        template = PromptTemplate(body="{doc}")
        assert render_prompt(template, Document("d", "", "short"), doc_max_chars=4000) == "short"

    def test_prefix_and_suffix_concatenated(self):
        template = PromptTemplate(body="mid {doc}", system_prefix="PRE ", suffix=" POST")
        assert render_prompt(template, Document("d", "", "X")) == "PRE mid X POST"

    def test_bad_doc_max_chars(self):
        template = PromptTemplate(body="{doc}")
        with pytest.raises(ValueError):
            render_prompt(template, Document("d", "", "x"), doc_max_chars=0)

    def test_output_length_bounded(self):
        template = PromptTemplate(body="ask about {doc} please", system_prefix="P", suffix="S")
        doc = Document("d", "t" * 50, "b" * 5000)
        out = render_prompt(template, doc, doc_max_chars=64)
        bound = len(template.system_prefix) + len(template.body) + len(template.suffix) + 64
        assert len(out) <= bound


class TestRenderFewshot:
    def test_structural_counts(self):
        template = PromptTemplate(body="Write a question.\n{doc}")
        out = render_fewshot(template, TRIPLES, Document("d", "", "target"))
        assert out.count("Bad question:") == 3
        assert out.count("Good question:") == 4
        assert out.endswith("Good question:")
        assert "target" in out

    def test_deterministic(self):
        template = PromptTemplate(body="{doc}")
        doc = Document("d", "T", "B")
        assert render_fewshot(template, TRIPLES, doc) == render_fewshot(template, TRIPLES, doc)

    def test_triple_order_preserved(self):
        template = PromptTemplate(body="{doc}")
        out = render_fewshot(template, TRIPLES, Document("d", "", "X"))
        assert out.index("doc one") < out.index("doc two") < out.index("doc three")

    def test_wrong_triple_count_rejected(self):
        template = PromptTemplate(body="{doc}")
        with pytest.raises(ValueError):
            render_fewshot(template, TRIPLES[:2], Document("d", "", "X"))

    def test_empty_triple_field_rejected(self):
        with pytest.raises(CatalogError):
            FewShotExample("", "good", "bad")

    def test_system_prefix_appears_once(self):
        template = PromptTemplate(body="{doc}", system_prefix="SYS|")
        out = render_fewshot(template, TRIPLES, Document("d", "", "X"))
        assert out.count("SYS|") == 1
        assert out.startswith("SYS|")


class TestCatalog:
    def test_load_missing_placeholder_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('[{"model_family": "m", "dataset": "d", "body": "oops"}]')
        with pytest.raises(CatalogError):
            load_catalog(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        entry = '{"model_family": "m", "dataset": "d", "body": "{doc}"}'
        path.write_text(f"[{entry}, {entry}]")
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(str(path))

    def test_fewshot_of_two_rejected(self, tmp_path):
        path = tmp_path / "catalog.json"
        triple = '{"document": "d", "good_question": "g", "bad_question": "b"}'
        path.write_text(
            '[{"model_family": "m", "dataset": "d", "body": "{doc}", '
            f'"fewshot": [{triple}, {triple}]}}]'
        )
        with pytest.raises(CatalogError, match="exactly 3"):
            load_catalog(str(path))

    @pytest.mark.parametrize("key", ["model_family", "dataset", "body", "good_question"])
    def test_entry_missing_a_key_rejected(self, tmp_path, key):
        triple = {"document": "d", "good_question": "g", "bad_question": "b"}
        entry = {"model_family": "m", "dataset": "d", "body": "{doc}", "fewshot": [triple] * 3}
        entry = {k: v for k, v in entry.items() if k != key}
        if key == "good_question":
            entry["fewshot"] = [{k: v for k, v in triple.items() if k != key}] * 3
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([entry]))
        message = f"{re.escape(str(path))}: catalog entry missing key '{key}'"
        with pytest.raises(CatalogError, match=message):
            load_catalog(str(path))

    def test_conflicting_fewshot_lists_for_one_dataset_rejected(self, tmp_path):
        def entry(family, good):
            triple = {"document": "d", "good_question": good, "bad_question": "b"}
            return {"model_family": family, "dataset": "d", "body": "{doc}",
                    "fewshot": [triple] * 3}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([entry("m1", "g"), entry("m2", "g")]))
        assert len(load_catalog(str(path)).fewshot_for("d")) == 3  # the same list twice is fine
        path.write_text(json.dumps([entry("m1", "g"), entry("m2", "other")]))
        with pytest.raises(CatalogError, match="dataset 'd': conflicting few-shot lists"):
            load_catalog(str(path))

    @pytest.mark.parametrize("text", ['{"model_family": "m"}', '"m"', "null"])
    def test_catalog_that_is_not_an_array_rejected(self, tmp_path, text):
        path = tmp_path / "catalog.json"
        path.write_text(text)
        with pytest.raises(CatalogError, match="catalog must be a JSON array of entries"):
            load_catalog(str(path))

    def test_default_catalog_round_trips(self, tmp_path):
        catalog = default_catalog()
        path = str(tmp_path / "catalog.json")
        save_catalog(catalog, path)
        back = load_catalog(path)
        assert back.entries == catalog.entries
        assert back.fewshot == catalog.fewshot

    def test_default_catalog_covers_all_pairs(self):
        catalog = default_catalog()
        families = {family for family, _ in catalog.entries}
        datasets = {dataset for _, dataset in catalog.entries}
        assert datasets == {"trecc", "dbpedia", "fiqa", "robust04"}
        for family in families:
            for dataset in datasets:
                assert (family, dataset) in catalog.entries
        for dataset in datasets:
            assert len(catalog.fewshot_for(dataset)) == 3

    def test_unknown_key_lookup(self):
        with pytest.raises(KeyError):
            default_catalog().template("nonexistent", "trecc")

    def test_catalog_constructor_validates_fewshot_length(self):
        with pytest.raises(CatalogError):
            PromptCatalog(entries={}, fewshot={"d": TRIPLES[:1]})
