"""Inverted index and the two lexical zero-shot retrievers: BM25 and
Dirichlet-smoothed query likelihood.

BM25 uses the Lucene-style non-negative idf with k1=0.9, b=0.4 defaults.
The index is immutable after build; scoring and search are read-only.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
import operator
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .corpus import Document, FormatError, _top_k, read_json

INDEX_FORMAT_VERSION = 3
_INDEX_KEYS = {"format_version", "analyzer", "doc_ids", "terms", "doc_len", "df",
               "positions", "tfs"}
_WIDTHS = {code: array(code).itemsize for code in "BHI"}  # unsigned, narrowest first

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
    """Deterministic tokenizer. A token is a maximal run of ASCII [a-z0-9]
    after str.lower() (of [A-Za-z0-9] in the text as given, with lowercase
    off); every other code point separates tokens, as in `words`.

    Stemming (a light plural stripper) and stopword removal are off by
    default; lowercasing is on.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    stem: bool = False

    def tokenize(self, text: str) -> list[str]:
        tokens = words(text, self.lowercase)
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
        """The analyzer to_dict describes; any other value raises ValueError."""
        if not (isinstance(data, dict) and data.keys() == {"lowercase", "stopwords", "stem"}
                and type(data["lowercase"]) is bool and type(data["stem"]) is bool
                and isinstance(data["stopwords"], list)
                and all(type(word) is str for word in data["stopwords"])):
            raise ValueError("analyzer must be {lowercase: bool, stopwords: [string], "
                             f"stem: bool}}, got {json.dumps(data)}")
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
    """Postings plus the document lengths BM25 and Dirichlet QLM need.

    A document is named by its position in doc_ids; doc_len holds its
    length. A term's postings are two arrays of equal length: the positions
    of the documents that hold it, and its tf in each.

    Invariants (build_index makes all; load_index checks all but the last,
    and of the last only its sum over all documents, sum(tfs) == sum(doc_len)):
      doc ids are unique, non-empty and free of whitespace, and
        len(doc_ids) == len(doc_len) >= 1
      positions are non-empty, ascend and are below n_docs; each tf >= 1
      a document's tfs over all postings sum to its doc_len
    The statistics are derived, never stored: n_docs == len(doc_ids),
    df(term) == len(positions), cf(term) == sum(tfs),
    total_terms == sum(doc_len) and avgdl == total_terms / n_docs.
    """

    doc_ids: list[str]
    doc_len: array  # array('I'), by position
    postings: dict[str, tuple[array, array]]  # term -> (positions, tfs), both array('I')
    analyzer: Analyzer = field(default_factory=Analyzer)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @functools.cached_property
    def total_terms(self) -> int:
        return sum(self.doc_len)

    @property
    def avgdl(self) -> float:
        return self.total_terms / self.n_docs

    @functools.cached_property
    def _positions(self) -> dict[str, int]:
        """Doc id -> position, built on first use by the string-id oracles."""
        return {did: pos for pos, did in enumerate(self.doc_ids)}

    @functools.cached_property
    def _docs_by_length(self) -> dict[int, list[int]]:
        """Doc positions grouped by document length, in position order."""
        groups: dict[int, list[int]] = {}
        for pos, dl in enumerate(self.doc_len):
            groups.setdefault(dl, []).append(pos)
        return groups

    def position(self, doc_id: str) -> int:
        """doc_id's index in doc_ids; KeyError for an unknown id."""
        try:
            return self._positions[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc id {doc_id!r}") from None

    def df(self, term: str) -> int:
        positions, _ = self.postings.get(term, ((), ()))
        return len(positions)

    def cf(self, term: str) -> int:
        _, tfs = self.postings.get(term, ((), ()))
        return sum(tfs)

    def term_frequency(self, term: str, doc_id: str) -> int:
        pos = self.position(doc_id)
        positions, tfs = self.postings.get(term, ((), ()))
        i = bisect_left(positions, pos)
        return tfs[i] if i < len(positions) and positions[i] == pos else 0


def build_index(docs: list[Document], analyzer: Analyzer | None = None) -> InvertedIndex:
    """Index title + " " + body of every document.

    Building is deterministic: identical inputs give identical doc
    positions (insertion order), lengths and postings.
    """
    if not docs:
        raise ValueError("cannot index an empty collection")
    analyzer = analyzer or Analyzer()

    doc_ids = [doc.id for doc in docs]
    if len(set(doc_ids)) != len(doc_ids):
        raise FormatError(f"duplicate document id {_first_duplicate(doc_ids)!r}")
    doc_len = array("I")
    postings: dict[str, tuple[array, array]] = {}
    for pos, doc in enumerate(docs):
        text = f"{doc.title} {doc.body}" if doc.title else doc.body
        tokens = analyzer.tokenize(text)
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            plist = postings.get(term)
            if plist is None:
                plist = postings[term] = (array("I"), array("I"))
            plist[0].append(pos)
            plist[1].append(tf)
    return InvertedIndex(doc_ids=doc_ids, doc_len=doc_len, postings=postings,
                         analyzer=analyzer)


def _first_duplicate(ids: list[str]) -> str:
    """The first id that repeats an earlier one."""
    seen: set[str] = set()
    return next(did for did in ids if did in seen or seen.add(did))


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
    dl = index.doc_len[index.position(doc_id)]
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
    doc_len = index.doc_len
    norms: dict[int, float] = {}
    scores: dict[int, float] = {}  # by doc position
    for term, count in Counter(query_terms).items():
        if term not in index.postings:
            continue
        positions, tfs = index.postings[term]
        df = len(positions)
        idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
        for pos, tf in zip(positions, tfs):
            dl = doc_len[pos]
            norm = norms.get(dl)
            if norm is None:
                norm = norms[dl] = params.k1 * (1.0 - params.b + params.b * dl / avgdl)
            scores[pos] = scores.get(pos, 0.0) + count * (idf * tf / (tf + norm))
    doc_ids = index.doc_ids
    return _top_k([(doc_ids[pos], s) for pos, s in scores.items() if s > 0.0], k)


def dirichlet_qlm_score(index: InvertedIndex, params: DirichletParams,
                        query_terms: list[str], doc_id: str) -> float:
    """Dirichlet-smoothed query log likelihood:
    sum over query tokens of ln((tf + mu * cf/total) / (dl + mu)).

    Tokens absent from the whole collection are skipped (contribute 0)
    rather than producing -inf.
    """
    dl = index.doc_len[index.position(doc_id)]
    score = 0.0
    for term, count in Counter(query_terms).items():
        cf = index.cf(term)
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

    Documents holding a query term are scored exactly. Every other
    document scores by its length alone, so each distinct length is scored
    once and only the best length groups, enough to fill k and every group
    tied with the last one taken, join the final ranking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    mu = params.mu
    lengths = index._docs_by_length
    # (count, mu * cf / total, tf by doc position) per query term in Counter order
    terms = [(count, mu * index.cf(term) / index.total_terms, dict(zip(*index.postings[term])))
             for term, count in Counter(index.analyzer.tokenize(query)).items()
             if term in index.postings]
    touched_set = {pos for _, _, tf_map in terms for pos in tf_map}
    touched = list(touched_set)
    touched_len = [index.doc_len[pos] for pos in touched]
    # dirichlet_qlm_score's sum, one query term at a time in Counter order, for
    # each document holding a query term and for each length a document in no
    # posting can have (tf 0): every score is bit-identical to the oracle's
    scores = [0.0] * len(touched)
    by_length = dict.fromkeys(lengths, 0.0)
    for count, smoothed, tf_map in terms:
        absent = {dl: count * math.log(smoothed / (dl + mu)) for dl in lengths}
        by_length = {dl: s + absent[dl] for dl, s in by_length.items()}
        tf_of = tf_map.get
        scores = [s + (count * math.log((tf + smoothed) / (dl + mu)) if (tf := tf_of(pos))
                       else absent[dl])
                  for s, pos, dl in zip(scores, touched, touched_len)]

    doc_ids = index.doc_ids
    shortlist = [(doc_ids[pos], s) for pos, s in zip(touched, scores)]
    groups = sorted(((by_length[dl], group) for dl, group in lengths.items()),
                    key=lambda group: -group[0])
    # a non-posting doc left out scores below `last`, and k others score at least `last`
    taken = 0
    last = None
    for s, group in groups:
        if taken >= k and s != last:
            break
        fresh = [(doc_ids[pos], s) for pos in group if pos not in touched_set]
        shortlist += fresh
        taken += len(fresh)
        last = s
    return _top_k(shortlist, k)


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as versioned, canonical JSON: doc ids once, the
    terms in sorted order, and every integer array packed (see _pack).
    positions and tfs are the postings of all terms, concatenated in terms
    order, and df holds each term's share. Everything round-trips exactly."""
    terms = sorted(index.postings)
    positions, tfs = array("I"), array("I")
    for term in terms:
        term_positions, term_tfs = index.postings[term]
        positions.extend(term_positions)
        tfs.extend(term_tfs)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "analyzer": index.analyzer.to_dict(),
        "doc_ids": index.doc_ids,
        "terms": terms,
        "doc_len": _pack(index.doc_len),
        "df": _pack(array("I", [len(index.postings[term][0]) for term in terms])),
        "positions": _pack(positions),
        "tfs": _pack(tfs),
    }
    # one dumps call runs the C encoder; json.dump streams through Python
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _pack(values: array) -> str:
    """The typecode of the narrowest of B, H and I that holds every value,
    then base64 of the values' little-endian bytes in that width."""
    top = max(values, default=0)
    code = next(code for code, width in _WIDTHS.items() if top < 1 << 8 * width)
    if sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    data = _resize(values.tobytes(), values.itemsize, _WIDTHS[code])
    return code + base64.b64encode(data).decode("ascii")


def _unpack(name: str, value: object) -> array:
    """_pack's values as array('I'); anything _pack cannot write raises
    ValueError naming the field."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a packed array string, got {json.dumps(value)[:40]}")
    code, text = value[:1], value[1:]
    if code not in _WIDTHS:
        raise ValueError(f"{name} must start with typecode B, H or I, got {code!r}")
    try:
        data = base64.b64decode(text)
    except ValueError:  # binascii.Error, or a character outside ASCII
        data = None
    # b64decode skips stray characters and ignores padding bits, so only
    # re-encoding proves that text is the one encoding of data
    if data is None or base64.b64encode(data).decode("ascii") != text:
        raise ValueError(f"{name} is not canonical base64")
    width = _WIDTHS[code]
    if len(data) % width:
        raise ValueError(f"{name} holds {len(data)} bytes, not a multiple of its "
                         f"item size {width}")
    unpacked = array("I")
    unpacked.frombytes(_resize(data, width, unpacked.itemsize))
    if sys.byteorder == "big":
        unpacked.byteswap()
    return unpacked


def _resize(data: bytes, width: int, new_width: int) -> bytearray:
    """Little-endian unsigned items of width bytes as items of new_width
    bytes: zero-extended, or cut to their low bytes, which must hold them.
    Strided slices move the bytes without making an int per item."""
    resized = bytearray(len(data) // width * new_width)
    for k in range(min(width, new_width)):
        resized[k::new_width] = data[k::width]
    return resized


def load_index(path: str) -> InvertedIndex:
    """Read save_index's JSON. A file of another shape, or with a value
    build_index cannot make, raises FormatError naming the path."""
    payload = read_json(path)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != INDEX_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported index format version {version!r}")
    try:
        return _index_from_payload(payload)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _index_from_payload(payload: dict) -> InvertedIndex:
    # each check is a C-level call over a whole list or array, or one step
    # per term: none is a Python-level pass over the postings
    if payload.keys() != _INDEX_KEYS:
        raise ValueError(f"index keys must be {sorted(_INDEX_KEYS)}, got {sorted(payload)}")
    analyzer = Analyzer.from_dict(payload["analyzer"])
    doc_ids, terms = payload["doc_ids"], payload["terms"]
    # a TREC run file's columns are split on whitespace, so an id must be one word
    if not (isinstance(doc_ids, list) and doc_ids and set(map(type, doc_ids)) == {str}
            and " ".join(doc_ids).split() == doc_ids):
        raise ValueError("doc_ids must be a non-empty list of non-empty strings "
                         "without whitespace")
    if len(set(doc_ids)) != len(doc_ids):
        raise ValueError(f"duplicate doc id {_first_duplicate(doc_ids)!r}")
    if not (isinstance(terms, list) and set(map(type, terms)) <= {str}
            and all(map(operator.lt, terms, terms[1:]))):
        raise ValueError("terms must be a list of unique strings in sorted order")
    doc_len, df, positions, tfs = (_unpack(name, payload[name])
                                   for name in ("doc_len", "df", "positions", "tfs"))
    n = len(doc_ids)
    if len(doc_len) != n:
        raise ValueError(f"doc_len must hold one length per doc id ({n}), got {len(doc_len)}")
    if len(df) != len(terms):
        raise ValueError(f"df must hold one count per term ({len(terms)}), got {len(df)}")
    if 0 in df:
        raise ValueError("every df must be >= 1")
    total = sum(df)
    if not len(positions) == len(tfs) == total:
        raise ValueError(f"positions and tfs must each hold sum(df) = {total} entries, "
                         f"got {len(positions)} and {len(tfs)}")
    if 0 in tfs:
        raise ValueError("every tf must be >= 1")
    if sum(tfs) != sum(doc_len):
        raise ValueError(f"doc_len must sum to the sum of all tfs ({sum(tfs)}), "
                         f"got {sum(doc_len)}")
    postings: dict[str, tuple[array, array]] = {}
    start = 0
    for term, end in zip(terms, itertools.accumulate(df)):
        term_positions = positions[start:end]
        if term_positions[-1] >= n or not all(map(operator.lt, term_positions,
                                                  term_positions[1:])):
            raise ValueError(f"positions of {term!r} must ascend and be below {n}")
        postings[term] = (term_positions, tfs[start:end])
        start = end
    return InvertedIndex(doc_ids=doc_ids, doc_len=doc_len, postings=postings,
                         analyzer=analyzer)
