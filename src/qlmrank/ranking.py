"""Inverted index and the two lexical zero-shot retrievers: BM25 and
Dirichlet-smoothed query likelihood.

BM25 uses the Lucene-style non-negative idf with k1=0.9, b=0.4 defaults.
The index is immutable after build; scoring and search are read-only.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .corpus import Document, FormatError, _sort_ranking

INDEX_FORMAT_VERSION = 1

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TOKEN_RE_CASED = re.compile(r"[A-Za-z0-9]+")


def _s_stem(word: str) -> str:
    """Harman s-stemmer: conservative plural stripping."""
    if len(word) <= 3 or not word.endswith("s"):
        return word
    if word.endswith("ies") and not word.endswith(("eies", "aies")):
        return word[:-3] + "y"
    if word.endswith("es") and not word.endswith(("aes", "ees", "oes")):
        return word[:-1]
    if not word.endswith(("us", "ss")):
        return word[:-1]
    return word


@dataclass(frozen=True)
class Analyzer:
    """Deterministic tokenizer: split on non-alphanumeric runs.

    Stemming (a light plural stripper) and stopword removal are off by
    default; lowercasing is on.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    stem: bool = False

    def tokenize(self, text: str) -> list[str]:
        if self.lowercase:
            tokens = _TOKEN_RE.findall(text.lower())
        else:
            tokens = _TOKEN_RE_CASED.findall(text)
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        if self.stem:
            tokens = [_s_stem(t) for t in tokens]
        return tokens

    def to_dict(self) -> dict:
        return {
            "lowercase": self.lowercase,
            "stopwords": sorted(self.stopwords),
            "stem": self.stem,
        }

    @classmethod
    def from_dict(cls, data: dict) -> Analyzer:
        return cls(
            lowercase=data["lowercase"],
            stopwords=frozenset(data["stopwords"]),
            stem=data["stem"],
        )


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError(f"k1 must be finite and > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class DirichletParams:
    mu: float = 1000.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")


@dataclass
class InvertedIndex:
    """Postings plus the collection statistics BM25 and Dirichlet QLM need.

    Invariants maintained by build_index:
      sum of tf over a term's postings == cf(term)
      sum of doc_len values == total_terms
      avgdl == total_terms / N
    """

    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    n_docs: int
    total_terms: int
    cf: dict[str, int]
    analyzer: Analyzer = field(default_factory=Analyzer)

    @property
    def avgdl(self) -> float:
        return self.total_terms / self.n_docs

    @functools.cached_property
    def _docs_by_length(self) -> dict[int, list[str]]:
        """Doc ids grouped by document length, in doc_len order."""
        groups: dict[int, list[str]] = {}
        for did, dl in self.doc_len.items():
            groups.setdefault(dl, []).append(did)
        return groups

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: str) -> int:
        if doc_id not in self.doc_len:
            raise KeyError(f"unknown doc id {doc_id!r}")
        for did, tf in self.postings.get(term, ()):
            if did == doc_id:
                return tf
        return 0


def build_index(docs: list[Document], analyzer: Analyzer | None = None) -> InvertedIndex:
    """Index title + " " + body of every document.

    Building is deterministic: identical inputs give identical statistics
    and postings order (document insertion order).
    """
    if not docs:
        raise ValueError("cannot index an empty collection")
    analyzer = analyzer or Analyzer()

    postings: dict[str, list[tuple[str, int]]] = {}
    doc_len: dict[str, int] = {}
    cf: Counter[str] = Counter()
    for doc in docs:
        if doc.id in doc_len:
            raise FormatError(f"duplicate document id {doc.id!r}")
        text = f"{doc.title} {doc.body}" if doc.title else doc.body
        tokens = analyzer.tokenize(text)
        doc_len[doc.id] = len(tokens)
        counts = Counter(tokens)
        for term in sorted(counts):
            postings.setdefault(term, []).append((doc.id, counts[term]))
            cf[term] += counts[term]
    return InvertedIndex(
        postings=postings,
        doc_len=doc_len,
        n_docs=len(docs),
        total_terms=sum(doc_len.values()),
        cf=dict(cf),
        analyzer=analyzer,
    )


def bm25_term_weight(index: InvertedIndex, params: Bm25Params, term: str,
                     tf: int, doc_length: int) -> float:
    """Lucene BM25: idf = ln(1 + (N - df + 0.5)/(df + 0.5)),
    tf part = tf / (tf + k1 * (1 - b + b * dl/avgdl))."""
    df = index.df(term)
    if df == 0 or tf == 0:
        return 0.0
    idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
    norm = params.k1 * (1.0 - params.b + params.b * doc_length / index.avgdl)
    return idf * tf / (tf + norm)


def bm25_score(index: InvertedIndex, params: Bm25Params,
               query_terms: list[str], doc_id: str) -> float:
    """BM25 score of one document; query terms must come from the index's
    analyzer. Repeated query terms contribute once per occurrence."""
    if doc_id not in index.doc_len:
        raise KeyError(f"unknown doc id {doc_id!r}")
    dl = index.doc_len[doc_id]
    score = 0.0
    for term, count in Counter(query_terms).items():
        tf = index.term_frequency(term, doc_id)
        score += count * bm25_term_weight(index, params, term, tf, dl)
    return score


def bm25_search(index: InvertedIndex, params: Bm25Params, query: str,
                k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents with positive BM25 score, ranked per the run
    invariant. Equivalent to scoring every document and truncating."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_terms = index.analyzer.tokenize(query)
    # bm25_term_weight's expressions, with idf hoisted per term and the
    # length norm per distinct dl: every weight is bit-identical
    avgdl = index.avgdl
    norms: dict[int, float] = {}
    scores: dict[str, float] = {}
    for term, count in Counter(query_terms).items():
        if term not in index.postings:
            continue
        df = index.df(term)
        idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
        for did, tf in index.postings[term]:
            dl = index.doc_len[did]
            norm = norms.get(dl)
            if norm is None:
                norm = norms[dl] = params.k1 * (1.0 - params.b + params.b * dl / avgdl)
            scores[did] = scores.get(did, 0.0) + count * (idf * tf / (tf + norm))
    ranked = _sort_ranking([(did, s) for did, s in scores.items() if s > 0.0])
    return ranked[:k]


def dirichlet_qlm_score(index: InvertedIndex, params: DirichletParams,
                        query_terms: list[str], doc_id: str) -> float:
    """Dirichlet-smoothed query log likelihood:
    sum over query tokens of ln((tf + mu * cf/total) / (dl + mu)).

    Tokens absent from the whole collection are skipped (contribute 0)
    rather than producing -inf.
    """
    if doc_id not in index.doc_len:
        raise KeyError(f"unknown doc id {doc_id!r}")
    dl = index.doc_len[doc_id]
    score = 0.0
    for term, count in Counter(query_terms).items():
        cf = index.cf.get(term, 0)
        if cf == 0:
            continue
        tf = index.term_frequency(term, doc_id)
        p = (tf + params.mu * cf / index.total_terms) / (dl + params.mu)
        score += count * math.log(p)
    return score


def dirichlet_search(index: InvertedIndex, params: DirichletParams, query: str,
                     k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents by Dirichlet query likelihood: the same list, scores
    included, as scoring every document with dirichlet_qlm_score and
    truncating. Smoothing gives nonzero scores without term overlap, so an
    all-OOV query yields doc-id order with zero scores.

    Documents holding a query term are scored one by one. Every other
    document scores by its length alone, so each distinct length is scored
    once and only the best length groups, enough to fill k and every group
    tied with the last one taken, join the final sort.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # (count, mu * cf / total, tf by doc id) per query term in Counter
    # order: float accumulation stays identical to dirichlet_qlm_score
    terms = [(count, params.mu * index.cf[term] / index.total_terms,
              dict(index.postings.get(term, ())))
             for term, count in Counter(index.analyzer.tokenize(query)).items()
             if index.cf.get(term, 0) > 0]

    def score(did: str | None, dl: int) -> float:
        # did None: a document of length dl in no posting
        s = 0.0
        for count, smoothed, tf_map in terms:
            s += count * math.log((tf_map.get(did, 0) + smoothed) / (dl + params.mu))
        return s

    touched = {did for _, _, tf_map in terms for did in tf_map}
    shortlist = [(did, score(did, index.doc_len[did])) for did in touched]
    groups = sorted(((score(None, dl), ids) for dl, ids in index._docs_by_length.items()),
                    key=lambda group: -group[0])
    # a non-posting doc left out scores below `last`, and k others score at least `last`
    taken = 0
    last = None
    for s, ids in groups:
        if taken >= k and s != last:
            break
        fresh = [(did, s) for did in ids if did not in touched]
        shortlist += fresh
        taken += len(fresh)
        last = s
    return _sort_ranking(shortlist)[:k]


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as versioned JSON; all statistics round-trip exactly."""
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "analyzer": index.analyzer.to_dict(),
        "n_docs": index.n_docs,
        "total_terms": index.total_terms,
        "doc_len": index.doc_len,
        "cf": index.cf,
        "postings": {term: [[did, tf] for did, tf in plist]
                     for term, plist in index.postings.items()},
    }
    # one dumps call runs the C encoder; json.dump streams through Python
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_index(path: str) -> InvertedIndex:
    """Read save_index's JSON; a file of another shape raises FormatError."""
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != INDEX_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported index format version {version!r}")
    if not all(isinstance(payload.get(key), dict) for key in ("postings", "doc_len", "cf")):
        raise FormatError(f"{path}: postings, doc_len and cf must be objects")
    if not all(type(payload.get(key)) is int for key in ("n_docs", "total_terms")):
        raise FormatError(f"{path}: n_docs and total_terms must be integers")
    try:
        return InvertedIndex(
            postings={term: [(did, tf) for did, tf in plist]
                      for term, plist in payload["postings"].items()},
            doc_len=payload["doc_len"],
            n_docs=payload["n_docs"],
            total_terms=payload["total_terms"],
            cf=payload["cf"],
            analyzer=Analyzer.from_dict(payload["analyzer"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed index ({type(exc).__name__}: {exc})") from None
