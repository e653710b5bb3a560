"""Prompt templates for question-generation style scoring.

A catalog maps (model family, dataset) pairs to templates; each template
wraps one document and ends positioned for the query continuation. The
few-shot variant prepends three (document, good question, bad question)
guidance triples.
"""

from __future__ import annotations

import importlib.resources
import json
import logging
from dataclasses import dataclass

from .corpus import DEFAULT_DOC_MAX_CHARS, Document, read_json

logger = logging.getLogger(__name__)

DOC_PLACEHOLDER = "{doc}"


class CatalogError(ValueError):
    """Invalid prompt catalog contents."""


@dataclass(frozen=True)
class PromptTemplate:
    """A scoring prompt: system_prefix + body (with one {doc} slot) + suffix."""

    body: str
    system_prefix: str = ""
    suffix: str = ""

    def __post_init__(self) -> None:
        if not all(isinstance(part, str) for part in (self.body, self.system_prefix, self.suffix)):
            raise CatalogError("template body, system_prefix and suffix must be strings")
        if self.body.count(DOC_PLACEHOLDER) != 1:
            raise CatalogError(
                f"template body must contain {DOC_PLACEHOLDER} exactly once: {self.body!r}"
            )


@dataclass(frozen=True)
class FewShotExample:
    document: str
    good_question: str
    bad_question: str

    def __post_init__(self) -> None:
        if not all(isinstance(text, str) and text
                   for text in (self.document, self.good_question, self.bad_question)):
            raise CatalogError("few-shot example fields must all be non-empty strings")


@dataclass
class PromptCatalog:
    """Templates keyed by (model_family, dataset), plus optional per-dataset
    few-shot triples (exactly three when present)."""

    entries: dict[tuple[str, str], PromptTemplate]
    fewshot: dict[str, list[FewShotExample]]

    def __post_init__(self) -> None:
        for dataset, triples in self.fewshot.items():
            if len(triples) != 3:
                raise CatalogError(
                    f"dataset {dataset!r}: few-shot list must have exactly 3 examples, "
                    f"got {len(triples)}"
                )

    def template(self, model_family: str, dataset: str) -> PromptTemplate:
        key = (model_family, dataset)
        if key not in self.entries:
            known = ", ".join(f"{m}/{d}" for m, d in self.entries)
            raise KeyError(f"no template for {model_family}/{dataset} (have: {known})")
        return self.entries[key]

    def fewshot_for(self, dataset: str) -> list[FewShotExample]:
        if dataset not in self.fewshot:
            raise KeyError(f"no few-shot examples for dataset {dataset!r}")
        return self.fewshot[dataset]


def _parse_entry(obj: dict) -> tuple[tuple[str, str], PromptTemplate, list[FewShotExample] | None]:
    if not isinstance(obj, dict):
        raise CatalogError(f"catalog entry must be an object, got {type(obj).__name__}")
    try:
        key = (obj["model_family"], obj["dataset"])
        if not all(isinstance(part, str) for part in key):
            raise CatalogError(f"model_family and dataset must be strings, got {key}")
        template = PromptTemplate(
            body=obj["body"],
            system_prefix=obj.get("system_prefix", ""),
            suffix=obj.get("suffix", ""),
        )
        fewshot = None
        if "fewshot" in obj:
            if not (isinstance(obj["fewshot"], list)
                    and all(isinstance(t, dict) for t in obj["fewshot"])):
                raise CatalogError(f"{key[0]}/{key[1]}: fewshot must be a list of objects")
            fewshot = [
                FewShotExample(
                    document=t["document"],
                    good_question=t["good_question"],
                    bad_question=t["bad_question"],
                )
                for t in obj["fewshot"]
            ]
    except KeyError as exc:
        raise CatalogError(f"catalog entry missing key {exc}") from exc
    return key, template, fewshot


def _catalog_from_objects(objects: list[dict]) -> PromptCatalog:
    entries: dict[tuple[str, str], PromptTemplate] = {}
    fewshot: dict[str, list[FewShotExample]] = {}
    for obj in objects:
        key, template, triples = _parse_entry(obj)
        if key in entries:
            raise CatalogError(f"duplicate catalog key {key[0]}/{key[1]}")
        entries[key] = template
        if triples is not None:
            dataset = key[1]
            if dataset in fewshot and fewshot[dataset] != triples:
                raise CatalogError(
                    f"dataset {dataset!r}: conflicting few-shot lists across entries"
                )
            fewshot[dataset] = triples
    return PromptCatalog(entries=entries, fewshot=fewshot)


def load_catalog(path: str) -> PromptCatalog:
    """Load a catalog from a JSON array of entry objects.

    Each entry carries model_family, dataset, body and optional
    system_prefix, suffix, and fewshot (array of exactly 3 triples).
    """
    objects = read_json(path)
    if not isinstance(objects, list):
        raise CatalogError(f"{path}: catalog must be a JSON array of entries")
    try:
        return _catalog_from_objects(objects)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None


def save_catalog(catalog: PromptCatalog, path: str) -> None:
    """Serialize a catalog so load_catalog(save_catalog(c)) == c."""
    objects = []
    for (family, dataset), template in catalog.entries.items():
        obj: dict = {
            "model_family": family,
            "dataset": dataset,
            "system_prefix": template.system_prefix,
            "body": template.body,
            "suffix": template.suffix,
        }
        objects.append(obj)
    emitted: set[str] = set()
    for obj in objects:
        dataset = obj["dataset"]
        if dataset in catalog.fewshot and dataset not in emitted:
            obj["fewshot"] = [
                {
                    "document": t.document,
                    "good_question": t.good_question,
                    "bad_question": t.bad_question,
                }
                for t in catalog.fewshot[dataset]
            ]
            emitted.add(dataset)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(objects, f, indent=2, ensure_ascii=False)
        f.write("\n")


def default_catalog() -> PromptCatalog:
    """The catalog shipped with the package (one template per model
    family and dataset, plus placeholder few-shot triples)."""
    data = importlib.resources.files("qlmrank.data").joinpath("default_catalog.json")
    return _catalog_from_objects(json.loads(data.read_text(encoding="utf-8")))


def _truncate_at_whitespace(text: str, limit: int) -> str:
    if len(text) <= limit:
        return text
    cut = text[:limit]
    # back up to a word boundary unless the cut already lands on one
    if not text[limit].isspace() and not cut[-1].isspace():
        for i in range(len(cut) - 1, -1, -1):
            if cut[i].isspace():
                cut = cut[:i]
                break
    return cut.rstrip()


def document_text(doc: Document, doc_max_chars: int = DEFAULT_DOC_MAX_CHARS) -> str:
    """Title + newline + body (body alone if untitled), length-capped at a
    whitespace boundary when possible."""
    if doc_max_chars < 1:
        raise ValueError(f"doc_max_chars must be >= 1, got {doc_max_chars}")
    text = doc.text()
    truncated = _truncate_at_whitespace(text, doc_max_chars)
    if len(truncated) < len(text):
        logger.debug("document %s truncated from %d to %d chars",
                     doc.id, len(text), len(truncated))
    return truncated


def render_prompt(template: PromptTemplate, doc: Document,
                  doc_max_chars: int = DEFAULT_DOC_MAX_CHARS) -> str:
    """Render the zero-shot scoring prompt for one document."""
    doc_text = document_text(doc, doc_max_chars)
    return (
        template.system_prefix
        + template.body.replace(DOC_PLACEHOLDER, doc_text)
        + template.suffix
    )


def render_fewshot(template: PromptTemplate, triples: list[FewShotExample],
                   doc: Document, doc_max_chars: int = DEFAULT_DOC_MAX_CHARS) -> str:
    """Render the guided few-shot prompt: three worked triples, then the
    target document, ending right after "Good question:" so the query
    continuation follows."""
    if len(triples) != 3:
        raise ValueError(f"expected exactly 3 few-shot examples, got {len(triples)}")
    parts = [template.system_prefix]
    for triple in triples:
        parts.append(template.body.replace(DOC_PLACEHOLDER, triple.document))
        parts.append(f"\nGood question: {triple.good_question}")
        parts.append(f"\nBad question: {triple.bad_question}\n\n")
    parts.append(template.body.replace(DOC_PLACEHOLDER, document_text(doc, doc_max_chars)))
    parts.append("\nGood question:")
    return "".join(parts)
