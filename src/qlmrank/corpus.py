"""BEIR-format dataset loaders, TREC run files, and the shared data model.

Documents, queries, qrels, and runs are the currency every other module
trades in. Loaders are pure functions over files; loaded objects are
treated as immutable. Every file of the package is opened here: inputs by
read_lines or read_json, so one that is missing, does not decode or does
not parse is named, and outputs by open_atomic, so an interrupted or
concurrent write never leaves a truncated file. The word rule (words) and
the lexical rankers' parameters live here too, not in ranking: the verbs
that neither index nor search use them without loading the index code.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import math
import os
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, TextIO

logger = logging.getLogger(__name__)

DEFAULT_DOC_MAX_CHARS = 4000  # a prompt's document text is cut to this many characters
DEFAULT_MAX_WORKERS = 8  # threads that score re-rank pairs, whatever the provider
MAX_GRADE = 1023  # the largest qrels grade whose nDCG gain, 2 ** grade - 1, is a finite float


def one_word(values: list[str]) -> bool:
    """Whether each string is one word: a TREC run file's columns are split on whitespace."""
    return " ".join(values).split() == values  # one join and split for the whole list


# the value rule of each parameter that has one, by name: (test, what the error says).
# The library checks its arguments here, the CLI its flags and config keys.
RULES: dict[str, tuple[Callable[[Any], bool], str]] = {
    **{name: (lambda v: v >= 1, "must be >= 1")
       for name in ("k", "depth", "max_workers", "doc_max_chars")},
    **{name: (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
       for name in ("alpha", "alphas", "hybrid_alpha", "rerank_alpha", "alpha_level", "b")},
    **{name: (lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")
       for name in ("k1", "mu")},
    "tag": (lambda v: one_word([v]), "must be one word without whitespace"),
}


def check_value(name: str, value, spelled: str | None = None) -> None:
    """Apply RULES[name] to a value, or to each item of a list or tuple: a value
    that breaks it raises ValueError naming `spelled`, by default `name`."""
    test, rule = RULES[name]
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if not test(v):
            raise ValueError(f"{spelled or name} {rule}, got {v!r}")


class FormatError(ValueError):
    """Malformed input data: an input file, or a value of the data model."""


class ProviderError(RuntimeError):
    """Base for likelihood-provider failures."""


def check_words(kind: str, values: list[str]) -> None:
    """Apply RULES["tag"] to every value at once; FormatError names the first that breaks it."""
    if not one_word(values):
        test, rule = RULES["tag"]
        raise FormatError(f"{kind} {next(v for v in values if not test(v))!r} {rule}")


def check_unique(doc_ids: list[str], where: str = "") -> None:
    """Raise FormatError, after `where`, naming the first doc id that repeats an earlier one."""
    if len(set(doc_ids)) != len(doc_ids):
        seen: set[str] = set()
        first = next(did for did in doc_ids if did in seen or seen.add(did))
        raise FormatError(f"{where}duplicate doc id {first!r}")


_WORD_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyz"
# byte -> itself if words keep it, else a space
_KEEP_LOWER = bytes(c if c in _WORD_BYTES else 32 for c in range(256))
_KEEP_CASED = bytes(c if c in _WORD_BYTES + _WORD_BYTES[10:].upper() else 32
                    for c in range(256))


def words(text: str, lowercase: bool = True) -> list[str]:
    """The maximal runs of ASCII [a-z0-9] in text.lower(), in order; with
    lowercase false, the runs of ASCII [A-Za-z0-9] in text as given.

    Every other code point separates words: the ASCII encoding turns each
    non-ASCII one into "?", and the table turns each byte outside a word
    into a space, so split() sees only word bytes and spaces.
    """
    table = _KEEP_LOWER if lowercase else _KEEP_CASED
    if lowercase:
        text = text.lower()
    return text.encode("ascii", "replace").translate(table).decode("ascii").split()


_set = object.__setattr__  # how a frozen value's __init__ sets its fields


def _parameters(function: Callable) -> tuple[str, ...]:
    """The names of a function's parameters, in order, as its code object holds
    them: no value type's __init__ and no verb takes a keyword-only one."""
    code = function.__code__
    return code.co_varnames[:code.co_argcount]


class _Record:
    """The base of the package's value types, with what dataclasses would
    generate, written once: __match_args__ names the fields, the parameters
    after self of the class's own __init__; two values are equal when they are
    of one class and their fields are equal, so a value never equals a tuple;
    repr is Name(field=value, ...). Its fields can be assigned, so it is
    unhashable."""

    __slots__ = ()
    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in vars(cls):  # else its base's fields are its own
            cls.__match_args__ = _parameters(cls.__init__)[1:]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A _Record whose __init__ sets each field with _set, and which no
    assignment changes after: equal values hash equal."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Bm25Params(_Frozen):
    k1: float = 0.9
    b: float = 0.4

    def __init__(self, k1: float = k1, b: float = b) -> None:
        check_value("k1", k1)
        check_value("b", b)
        _set(self, "k1", k1)
        _set(self, "b", b)


class DirichletParams(_Frozen):
    mu: float = 1000.0

    def __init__(self, mu: float = mu) -> None:
        check_value("mu", mu)
        _set(self, "mu", mu)


class Document(_Frozen):
    """One corpus document. Title and body are stored verbatim."""

    id: str
    title: str
    body: str

    def __init__(self, id: str, title: str, body: str) -> None:
        check_words("document id", [id])
        if not isinstance(title, str) or not isinstance(body, str):
            raise FormatError(f"document {id!r}: title and body must be strings")
        _set(self, "id", id)
        _set(self, "title", title)
        _set(self, "body", body)

    def text(self) -> str:
        """Title and body joined for display/prompting; body alone if untitled."""
        return f"{self.title}\n{self.body}" if self.title else self.body


class Query(_Frozen):
    id: str
    text: str

    def __init__(self, id: str, text: str) -> None:
        check_words("query id", [id])
        if not isinstance(text, str) or not text:
            raise FormatError(f"query {id!r}: text must be a non-empty string")
        _set(self, "id", id)
        _set(self, "text", text)


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
        # an id a run file cannot hold would never be matched: a judgment of nothing
        check_words("query id", [query_id])
        check_words("doc id", [doc_id])
        if not 0 <= grade <= MAX_GRADE:
            raise FormatError(f"qrels ({query_id}, {doc_id}): grade must be in "
                              f"[0, {MAX_GRADE}], got {grade}")
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
    # used everywhere so rankings are reproducible. Two stable sorts with
    # C-level keys: by doc id, then by score, which keeps ties in id order.
    ranked = sorted(pairs, key=itemgetter(0))
    ranked.sort(key=itemgetter(1), reverse=True)
    return ranked


def _sum_in_order(values: Iterable[float]) -> float:
    """The floats' sum, added left to right from 0.0, as sum() adds them up to
    Python 3.11. Sums that reach an artifact use it: from 3.12 on sum() is
    compensated and rounds some of them differently, and math.fsum, exact on
    every version, would change the bytes every earlier version wrote. (A loop
    takes half the time of functools.reduce on a query's few logprobs.)"""
    total = 0.0
    for value in values:
        total += value
    return total


def _top_k(pairs: list[tuple[str, float]], k: int) -> list[tuple[str, float]]:
    """_sort_ranking(pairs)[:k], sorting only the pairs that score at least
    the k-th best score."""
    if len(pairs) > k:
        kth = sorted([s for _, s in pairs], reverse=True)[k - 1]
        pairs = [pair for pair in pairs if pair[1] >= kth]
    return _sort_ranking(pairs)[:k]


class Run(_Record):
    """Per-query ranked lists of (doc id, score).

    Entries are normalized on construction: within each query, doc ids are
    unique, scores finite, and the list is sorted by score descending with
    ties broken by ascending doc id. A query whose ranking is empty is
    absent, as it is from a run file, so a run that holds a line equals
    read_run of its file.
    """

    entries: dict[str, list[tuple[str, float]]]
    tag: str = "run"

    # the default is never changed: entries is read, and the run holds a new dict
    def __init__(self, entries: dict[str, list[tuple[str, float]]] = {},
                 tag: str = tag) -> None:
        normalized = {}
        for qid, pairs in entries.items():
            pairs = [(did, float(score)) for did, score in pairs]
            if not pairs:
                continue
            check_unique(list(map(itemgetter(0), pairs)), f"run {tag!r}, query {qid}: ")
            if not all(map(math.isfinite, map(itemgetter(1), pairs))):
                did = next(did for did, score in pairs if not math.isfinite(score))
                raise FormatError(f"run {tag!r}, query {qid}, doc {did}: non-finite score")
            normalized[qid] = _sort_ranking(pairs)
        self.entries = normalized
        self.tag = tag

    def query_ids(self) -> list[str]:
        return list(self.entries)

    def doc_ids(self, query_id: str) -> list[str]:
        return [did for did, _ in self.entries.get(query_id, [])]


@contextlib.contextmanager
def open_atomic(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file that becomes `path` when the block ends: a fresh
    temp file beside `path`, made with the mode open() gives (0o666 less the
    umask in force), fsynced and renamed over it. On any failure the temp file
    is removed and the old `path` is left as it was; an OSError that names no
    file, or the temp file, is raised naming `path`."""
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with open(fd, "w", encoding="utf-8") as f:
            yield f
            f.flush()
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        # the caller never saw the temp file's name: os.open's error names it,
        # os.replace's the temp file and `path`, a failed write none
        if isinstance(exc, OSError) and exc.errno and (
                tmp is None or exc.filename in (None, tmp)):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


@contextlib.contextmanager
def locked_dir(path: str) -> Iterator[None]:
    """Make directory `path` if it is missing and hold an exclusive flock on it for the block."""
    os.makedirs(path, exist_ok=True)
    fd = os.open(path, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # released when fd closes
        except BlockingIOError:
            raise OSError(f"{path}: in use by another pipeline") from None
        yield
    finally:
        os.close(fd)


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
    # json raises RecursionError for nesting too deep, ValueError for an int of too many digits
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def _load_jsonl(path: str, line_kind: str, id_kind: str,
                make: Callable[[dict], Document | Query]) -> list:
    """make(object) for each line of a JSONL file, in order; a malformed line
    or a repeated id raises FormatError naming the line."""
    items: dict[str, Document | Query] = {}  # by id, in file order
    for lineno, line in read_lines(path):
        try:
            obj = json.loads(line)
            if type(obj["_id"]) not in (str, int):  # a bool is neither
                raise ValueError(f"_id must be a string or an integer, "
                                 f"got {json.dumps(obj['_id'])}")
            item = make(obj)
        except (ValueError, RecursionError, KeyError, TypeError) as exc:  # FormatError included
            raise FormatError(f"{path}:{lineno}: malformed {line_kind} line ({exc})") from exc
        if items.setdefault(item.id, item) is not item:
            raise FormatError(f"{path}:{lineno}: duplicate {id_kind} id {item.id!r}")
    return list(items.values())


def load_corpus(path: str) -> list[Document]:
    """Load a BEIR corpus.jsonl: one {"_id", "title"?, "text"} object per line.

    Order-preserving and total on well-formed input; duplicate ids and
    malformed lines are errors (the error names the offending line).
    """
    return _load_jsonl(path, "corpus", "document", lambda obj: Document(
        str(obj["_id"]), "" if obj.get("title") is None else obj["title"], obj.get("text", "")))


def load_queries(path: str) -> list[Query]:
    """Load a BEIR queries.jsonl: one {"_id", "text"} object per line."""
    return _load_jsonl(path, "query", "query",
                       lambda obj: Query(id=str(obj["_id"]), text=obj["text"]))


def load_qrels(path: str) -> QrelSet:
    """Load tab-separated qrels: query-id <TAB> corpus-id <TAB> grade.

    Line 1 is a header, skipped, if its grade is not a number at all. Later
    duplicates overwrite earlier ones with a warning (tolerates concatenated qrels files).
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
            try:
                float(grade_str)  # a number, if not an integer: a malformed judgment
            except ValueError:
                if lineno == 1:
                    continue
            raise FormatError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from None
        judged = qrels.grade(qid, did) is not None
        try:
            qrels.add(qid, did, grade)
        except FormatError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if judged:
            logger.warning("%s:%d: duplicate judgment (%s, %s), keeping the later one",
                           path, lineno, qid, did)
    return qrels


def read_run(path: str) -> Run:
    """Read a 6-column TREC run file: qid Q0 docid rank score tag.

    The returned Run is re-sorted per the run invariant (score descending,
    doc id ascending on ties); the file's rank column is not trusted. The
    tag is the first line's, so a file with no line reads as Run({}, tag="run").
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
    reproduces orderings and scores exactly. A tag, query id or doc id that
    is not one word would add or drop columns: it raises FormatError, and the
    atomic write (see open_atomic) leaves `path` as it was. A run with no line
    writes an empty file, which keeps no tag: read_run gives Run({}, tag="run").
    """
    check_words("run tag", [run.tag])
    with open_atomic(path) as f:
        for qid, pairs in run.entries.items():
            check_words("query id", [qid])
            check_words("doc id", list(map(itemgetter(0), pairs)))
            for rank, (did, score) in enumerate(pairs, 1):
                f.write(f"{qid} Q0 {did} {rank} {score!r} {run.tag}\n")
