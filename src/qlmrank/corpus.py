"""BEIR-format dataset loaders, TREC run files, and the shared data model.

Documents, queries, qrels, and runs are the currency every other module
trades in. Loaders are pure functions over files; loaded objects are
treated as immutable. Every input file of the package is opened here, by
read_lines or read_json, so one that does not decode or parse is named.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

logger = logging.getLogger(__name__)

DEFAULT_DOC_MAX_CHARS = 4000  # a prompt's document text is cut to this many characters
DEFAULT_MAX_WORKERS = 8  # concurrent requests to a remote provider


class FormatError(ValueError):
    """Malformed input data: an input file, or a value of the data model."""


class ProviderError(RuntimeError):
    """Base for likelihood-provider failures."""


def _check_id(kind: str, value: str) -> None:
    # a TREC run file's columns are split on whitespace, so an id must be one word
    if not value:
        raise FormatError(f"{kind} id must be non-empty")
    if value.split() != [value]:
        raise FormatError(f"{kind} id {value!r} must not contain whitespace")


@dataclass(frozen=True)
class Document:
    """One corpus document. Title and body are stored verbatim."""

    id: str
    title: str
    body: str

    def __post_init__(self) -> None:
        _check_id("document", self.id)
        if not isinstance(self.title, str) or not isinstance(self.body, str):
            raise FormatError(f"document {self.id!r}: title and body must be strings")

    def text(self) -> str:
        """Title and body joined for display/prompting; body alone if untitled."""
        return f"{self.title}\n{self.body}" if self.title else self.body


@dataclass(frozen=True)
class Query:
    id: str
    text: str

    def __post_init__(self) -> None:
        _check_id("query", self.id)
        if not isinstance(self.text, str) or not self.text:
            raise FormatError(f"query {self.id!r}: text must be a non-empty string")


class QrelSet:
    """Graded relevance judgments: (query id, doc id) -> grade >= 0.

    Absent pairs mean "unjudged". Duplicate lines in the source file are
    resolved last-wins (see load_qrels).
    """

    def __init__(self, judgments: dict[str, dict[str, int]] | None = None) -> None:
        self.judgments: dict[str, dict[str, int]] = {}
        if judgments:
            for qid, docs in judgments.items():
                for did, grade in docs.items():
                    self.add(qid, did, grade)

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade < 0:
            raise FormatError(
                f"qrels ({query_id}, {doc_id}): grade must be >= 0, got {grade}"
            )
        self.judgments.setdefault(query_id, {})[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int | None:
        """Grade for the pair, or None if unjudged."""
        return self.judgments.get(query_id, {}).get(doc_id)

    def query_ids(self) -> list[str]:
        return list(self.judgments)

    def __len__(self) -> int:
        return sum(len(docs) for docs in self.judgments.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QrelSet) and self.judgments == other.judgments


def _sort_ranking(pairs: list[tuple[str, float]]) -> list[tuple[str, float]]:
    # Score descending, doc id ascending on ties: the one tie-break rule
    # used everywhere so rankings are reproducible.
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


def _top_k(pairs: list[tuple[str, float]], k: int) -> list[tuple[str, float]]:
    """_sort_ranking(pairs)[:k], sorting only the pairs that score at least
    the k-th best score."""
    if len(pairs) > k:
        kth = sorted([s for _, s in pairs], reverse=True)[k - 1]
        pairs = [pair for pair in pairs if pair[1] >= kth]
    return _sort_ranking(pairs)[:k]


@dataclass
class Run:
    """Per-query ranked lists of (doc id, score).

    Entries are normalized on construction: within each query, doc ids are
    unique, scores finite, and the list is sorted by score descending with
    ties broken by ascending doc id.
    """

    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    tag: str = "run"

    def __post_init__(self) -> None:
        normalized = {}
        for qid, pairs in self.entries.items():
            pairs = [(did, float(score)) for did, score in pairs]
            seen = set()
            for did, score in pairs:
                if did in seen:
                    raise FormatError(f"run {self.tag!r}, query {qid}: duplicate doc id {did!r}")
                if not math.isfinite(score):
                    raise FormatError(f"run {self.tag!r}, query {qid}, doc {did}: non-finite score")
                seen.add(did)
            normalized[qid] = _sort_ranking(pairs)
        self.entries = normalized

    @classmethod
    def from_scores(cls, scores: dict[str, dict[str, float]], tag: str = "run") -> Run:
        """Build a run from {query id: {doc id: score}} mappings."""
        return cls({qid: list(docs.items()) for qid, docs in scores.items()}, tag=tag)

    def query_ids(self) -> list[str]:
        return list(self.entries)

    def doc_ids(self, query_id: str) -> list[str]:
        return [did for did, _ in self.entries.get(query_id, [])]


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """(physical line number, line) for each non-blank line of a UTF-8 file.
    Undecodable bytes raise FormatError naming the path."""
    with open(path, encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, 1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            # exc's position counts from the start of a decoded chunk, not of the file
            raise FormatError(f"{path}: not UTF-8 ({exc.reason})") from None


def read_json(path: str) -> object:
    """The JSON value of a UTF-8 file. Undecodable bytes or invalid JSON
    raise FormatError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def _load_jsonl(path: str, line_kind: str, id_kind: str,
                make: Callable[[dict], Document | Query]) -> list:
    """make(object) for each line of a JSONL file, in order; a malformed line
    or a repeated id raises FormatError naming the line."""
    items = []
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        try:
            item = make(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, FormatError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed {line_kind} line ({exc})") from exc
        if item.id in seen:
            raise FormatError(f"{path}:{lineno}: duplicate {id_kind} id {item.id!r}")
        seen.add(item.id)
        items.append(item)
    return items


def load_corpus(path: str) -> list[Document]:
    """Load a BEIR corpus.jsonl: one {"_id", "title"?, "text"} object per line.

    Order-preserving and total on well-formed input; duplicate ids and
    malformed lines are errors (the error names the offending line).
    """
    return _load_jsonl(path, "corpus", "document", lambda obj: Document(
        id=str(obj["_id"]), title=obj.get("title", "") or "", body=obj.get("text", "")))


def load_queries(path: str) -> list[Query]:
    """Load a BEIR queries.jsonl: one {"_id", "text"} object per line."""
    return _load_jsonl(path, "query", "query",
                       lambda obj: Query(id=str(obj["_id"]), text=obj["text"]))


def load_qrels(path: str) -> QrelSet:
    """Load tab-separated qrels: query-id <TAB> corpus-id <TAB> grade.

    An optional header line is skipped. Later duplicates overwrite earlier
    ones with a warning (tolerates concatenated qrels files).
    """
    qrels = QrelSet()
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated columns, got {len(parts)}")
        qid, did, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError:
            if lineno == 1:  # optional header line
                continue
            raise FormatError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from None
        if grade < 0:
            raise FormatError(f"{path}:{lineno}: negative grade {grade}")
        if qrels.grade(qid, did) is not None:
            logger.warning("%s:%d: duplicate judgment (%s, %s), keeping the later one",
                           path, lineno, qid, did)
        qrels.add(qid, did, grade)
    return qrels


def read_run(path: str) -> Run:
    """Read a 6-column TREC run file: qid Q0 docid rank score tag.

    The returned Run is re-sorted per the run invariant (score descending,
    doc id ascending on ties); the file's rank column is not trusted.
    """
    entries: dict[str, list[tuple[str, float]]] = {}
    tag: str | None = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        qid, _, did, _, score_str, line_tag = parts
        if tag is None:
            tag = line_tag
        try:
            score = float(score_str)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-numeric score {score_str!r}") from None
        entries.setdefault(qid, []).append((did, score))
    try:
        return Run(entries, tag=tag or "run")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_run(run: Run, path: str) -> None:
    """Write a run in 6-column TREC format, ranks starting at 1 per query.

    Scores are serialized with repr precision, so read_run(write_run(r))
    reproduces orderings and scores exactly. A tag that is not one word
    would add columns, so it raises FormatError before the file is opened.
    """
    if run.tag.split() != [run.tag]:
        raise FormatError(f"run tag {run.tag!r} must be one word without whitespace")
    with open(path, "w", encoding="utf-8") as f:
        for qid, pairs in run.entries.items():
            for rank, (did, score) in enumerate(pairs, 1):
                f.write(f"{qid} Q0 {did} {rank} {score!r} {run.tag}\n")
