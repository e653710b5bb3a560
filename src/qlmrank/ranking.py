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
import zlib
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping

# Bm25Params, DirichletParams and words live in corpus, which every verb loads
from .corpus import (Bm25Params, DirichletParams, Document, FormatError, _Frozen, _Record, _set,
                     _top_k, check_unique, check_value, check_words, open_atomic, read_json,
                     words)

INDEX_FORMAT_VERSION = 7
# level 6 makes a 1.5k-document index 1.3% smaller (231,266 against 234,318
# bytes) and its save some 5 ms slower (2 vCPU Xeon): only the word lists
# shrink, as _pack's Z_RLE streams are the same at every level
ZLIB_LEVEL = 1
_INDEX_KEYS = {"format_version", "analyzer", "doc_ids", "terms", "doc_len", "df",
               "positions", "tfs"}
_WIDTHS = {code: array(code).itemsize for code in "BHI"}  # unsigned, narrowest first
_CHUNK = 1 << 16  # items _unpack assembles at a time; 2^14 to 2^18 run alike


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


class Analyzer(_Frozen):
    """Deterministic tokenizer. A token is a maximal run of ASCII [a-z0-9]
    after str.lower() (of [A-Za-z0-9] in the text as given, with lowercase
    off); every other code point separates tokens, as in `words`.

    Stemming (a light plural stripper) and stopword removal are off by
    default; lowercasing is on.
    """

    lowercase: bool = True
    stopwords: frozenset[str] = frozenset()
    stem: bool = False

    def __init__(self, lowercase: bool = lowercase, stopwords: frozenset[str] = stopwords,
                 stem: bool = stem) -> None:
        _set(self, "lowercase", lowercase)
        _set(self, "stopwords", stopwords)
        _set(self, "stem", stem)

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


class InvertedIndex(_Record):
    """Postings plus the document lengths BM25 and Dirichlet QLM need.

    A document is named by its position in doc_ids; doc_len holds its
    length. A term's postings are two arrays of equal length: the positions
    of the documents that hold it, and its tf in each. build_index maps
    terms to them in a dict, load_index in a read-only Mapping that decodes
    a term's arrays on its first lookup (see _Postings).

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
    postings: Mapping[str, tuple[array, array]]  # term -> (positions, tfs), both array('I')
    analyzer: Analyzer

    # an Analyzer is immutable, so one default serves every index
    def __init__(self, doc_ids: list[str], doc_len: array,
                 postings: Mapping[str, tuple[array, array]],
                 analyzer: Analyzer = Analyzer()) -> None:
        self.doc_ids = doc_ids
        self.doc_len = doc_len
        self.postings = postings
        self.analyzer = analyzer

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
    """Index the text() of every document.

    Building is deterministic: identical inputs give identical doc
    positions (insertion order), lengths and postings.
    """
    if not docs:
        raise ValueError("cannot index an empty collection")
    analyzer = analyzer or Analyzer()

    doc_ids = [doc.id for doc in docs]
    check_unique(doc_ids)
    doc_len = array("I")
    postings: dict[str, tuple[array, array]] = {}
    for pos, doc in enumerate(docs):
        tokens = analyzer.tokenize(doc.text())
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            plist = postings.get(term)
            if plist is None:
                plist = postings[term] = (array("I"), array("I"))
            plist[0].append(pos)
            plist[1].append(tf)
    return InvertedIndex(doc_ids=doc_ids, doc_len=doc_len, postings=postings,
                         analyzer=analyzer)


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
    check_value("k", k)
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
    """Dirichlet-smoothed query log likelihood, the sum over query tokens of
    ln((tf + s_t) / (dl + mu)) with s_t = mu * cf_t / total, in the
    rank-equivalent form of Zhai and Lafferty (SIGIR 2001), c_t being term
    t's count in the query:
        (sum_t c_t ln s_t - (sum_t c_t) ln(dl + mu))
          + sum of c_t (ln(tf + s_t) - ln s_t) over the terms d holds,
    each sum added left to right in Counter order. Tokens absent from the
    whole collection are skipped (contribute 0) rather than producing -inf;
    a mu out of range raises ValueError.
    """
    mu = params.mu
    dl = index.doc_len[index.position(doc_id)]
    longest = max(index._docs_by_length) + mu
    base, tokens, gain = 0.0, 0, 0.0  # base is sum_t c_t ln s_t, tokens sum_t c_t
    for term, count in Counter(query_terms).items():
        if term not in index.postings:
            continue
        smoothed = _smoothed(index, mu, term, longest)
        log_s = math.log(smoothed)
        base += count * log_s
        tokens += count
        tf = index.term_frequency(term, doc_id)
        if tf:
            # ln(tf + s) - ln s, not log1p(tf / s): tf / s overflows for a subnormal s
            gain += count * (math.log(tf + smoothed) - log_s)
    return base - tokens * math.log(dl + mu) + gain


def _smoothed(index: InvertedIndex, mu: float, term: str, longest: float) -> float:
    """mu * cf / total of a collection term; ValueError naming mu and the term if its
    smoothed probability in the longest document, that / `longest`, is 0 or inf."""
    smoothed = mu * index.cf(term) / index.total_terms
    if not 0.0 < smoothed / longest < math.inf:
        raise ValueError(f"mu={mu!r} is out of range: term {term!r} gets smoothed "
                         f"probability mu * cf / total / (dl + mu) = "
                         f"{smoothed / longest!r} in the longest document")
    return smoothed


def dirichlet_search(index: InvertedIndex, params: DirichletParams, query: str,
                     k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents by Dirichlet query likelihood: the same list, scores
    included, as scoring every document with dirichlet_qlm_score and
    truncating. Smoothing gives nonzero scores without term overlap, so an
    all-OOV query yields doc-id order with zero scores. A mu so small or so
    large that a query term's smoothed probability underflows to 0 or
    overflows to inf raises ValueError.

    One pass over the postings, in Counter order, adds up each document's
    gain, sum of c_t (ln(tf + s_t) - ln s_t) over the terms it holds; each
    distinct length gets its prior, sum_t c_t ln s_t - (sum_t c_t) ln(dl + mu).
    A score is prior + gain, the floats dirichlet_qlm_score adds. A document
    holding no query term scores its length's prior, so each length is one
    group; only the best groups, enough to fill k and every group tied with
    the last one taken, join the final ranking.
    """
    check_value("k", k)
    mu = params.mu
    log = math.log
    lengths = index._docs_by_length
    longest = max(lengths) + mu
    base, tokens = 0.0, 0  # sum_t c_t ln s_t and sum_t c_t
    gains: dict[int, float] = {}  # by doc position, for the documents holding a query term
    for term, count in Counter(index.analyzer.tokenize(query)).items():
        if term not in index.postings:
            continue
        smoothed = _smoothed(index, mu, term, longest)
        log_s = log(smoothed)
        base += count * log_s
        tokens += count
        positions, tfs = index.postings[term]
        # ln(tf + s) - ln s, not log1p(tf / s): tf / s overflows for a subnormal s
        gain = {tf: count * (log(tf + smoothed) - log_s) for tf in set(tfs)}
        for pos, tf in zip(positions, tfs):
            gains[pos] = gains.get(pos, 0.0) + gain[tf]
    prior = {dl: base - tokens * log(dl + mu) for dl in lengths}
    doc_len = index.doc_len
    scores = [prior[doc_len[pos]] + g for pos, g in gains.items()]

    # k documents score at least kth, so none scoring below it can rank
    kth = sorted(scores)[-k] if len(scores) >= k else -math.inf
    doc_ids = index.doc_ids
    shortlist = [(doc_ids[pos], s) for pos, s in zip(gains, scores) if s >= kth]
    groups = sorted(((s, lengths[dl]) for dl, s in prior.items() if s >= kth),
                    key=lambda group: -group[0])
    # a non-posting doc left out scores below `last`, and k others score at least `last`
    taken, last = 0, None
    for s, group in groups:
        if taken >= k and s != last:
            break
        fresh = [(doc_ids[pos], s) for pos in group if pos not in gains]
        shortlist += fresh
        taken += len(fresh)
        last = s
    return _top_k(shortlist, k)


def save_index(index: InvertedIndex, path: str) -> None:
    """Persist the index as versioned, canonical JSON: doc ids once and the
    terms in sorted order, each list packed (see _pack_words), and every
    integer array packed (see _pack).
    positions and tfs are the postings of all terms, concatenated by df,
    ties in terms order (see _layout), and df holds each term's share, in
    terms order: a term's d-gaps follow a distribution its df sets, so terms
    of like df side by side deflate smaller. positions holds each term's
    first document position and then its d-gaps. Everything round-trips
    exactly. The file is written atomically (see open_atomic)."""
    terms = sorted(index.postings)
    df = [len(index.postings[term][0]) for term in terms]
    positions, tfs = array("I"), array("I")
    starts = []
    for slot in _layout(df):
        term_positions, term_tfs = index.postings[terms[slot]]
        starts.append(len(positions))
        positions.extend(term_positions)
        tfs.extend(term_tfs)
    payload = {
        "format_version": INDEX_FORMAT_VERSION,
        "analyzer": index.analyzer.to_dict(),
        "doc_ids": _pack_words(index.doc_ids),
        "terms": _pack_words(terms),
        "doc_len": _pack(index.doc_len),
        "df": _pack(array("I", df)),
        "positions": _pack(_gaps(positions, starts)),
        "tfs": _pack(tfs),
    }
    # one dumps call runs the C encoder; json.dump streams through Python
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open_atomic(path) as f:
        f.write(text)


def _layout(df: list[int]) -> list[int]:
    """The order in which the terms' postings lie in the file, as indexes into
    terms order: by df, ties in terms order (one stable C-level sort)."""
    return sorted(range(len(df)), key=df.__getitem__)


def _gaps(positions: array, starts: list[int]) -> array:
    """Ascending runs, concatenated, each beginning at an index in starts, as
    each run's first value and then the differences of its neighbours.

    One int subtraction in C takes them all: positions' bytes read as one
    integer, less those of `before`, each item's predecessor in its run or
    0 at a run's start. No item of `before` exceeds the one it is taken
    from, so no borrow crosses an item."""
    before = positions[-1:] + positions[:-1]  # item 0 is a run's start, zeroed below
    for start in starts:
        before[start] = 0
    order = sys.byteorder
    gaps = array(positions.typecode)
    gaps.frombytes((int.from_bytes(positions.tobytes(), order)
                    - int.from_bytes(before.tobytes(), order))
                   .to_bytes(len(positions) * positions.itemsize, order))
    return gaps


def _pack(values: array) -> str:
    """The typecode of the narrowest of B, H and I that holds every value,
    then base64 of the zlib stream, at ZLIB_LEVEL with the Z_RLE strategy, of
    the values' byte planes in that width: byte 0 (the lowest) of every item,
    then byte 1, and so on. Items far below their width's top leave their
    high planes mostly zeros, which zlib squeezes better than the same bytes
    interleaved; Z_RLE, which matches only runs of one byte, squeezes these
    planes smaller and faster than the default search."""
    top = max(values, default=0)
    code = next(code for code, width in _WIDTHS.items() if top < 1 << 8 * width)
    data, size = values.tobytes(), values.itemsize
    planes = b"".join(data[offset::size] for offset in _plane_offsets(_WIDTHS[code], size))
    deflater = zlib.compressobj(ZLIB_LEVEL, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return code + base64.b64encode(deflater.compress(planes) + deflater.flush()).decode("ascii")


def _plane_offsets(width: int, size: int) -> list[int]:
    """Where planes 0 to width - 1 lie in each item of `size` bytes: plane k holds
    each item's k-th lowest byte, the k-th in memory on a little-endian host, the
    k-th from the end on a big-endian one."""
    return [k if sys.byteorder == "little" else size - 1 - k for k in range(width)]


def _pack_words(values: list[str]) -> str:
    """The byte count of the values joined by newlines in UTF-8, a colon, and
    base64 of those bytes' zlib stream at ZLIB_LEVEL. A value is never empty
    and never holds whitespace, so splitting at the newlines gives it back."""
    data = "\n".join(values).encode("utf-8")
    return f"{len(data)}:" + base64.b64encode(zlib.compress(data, ZLIB_LEVEL)).decode("ascii")


def _unpack(name: str, value: object, count: int) -> tuple[array, int]:
    """_pack's values as array('I'), of at most count items, and how many of
    them are 0: inflating stops one byte past count items. Anything else _pack
    cannot write raises ValueError naming the field."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a packed array string, got {json.dumps(value)[:40]}")
    code, text = value[:1], value[1:]
    if code not in _WIDTHS:
        raise ValueError(f"{name} must start with typecode B, H or I, got {code!r}")
    width = _WIDTHS[code]
    data = _inflate(name, text, count * width)
    if len(data) % width:
        raise ValueError(f"{name} holds {len(data)} bytes, not a multiple of its "
                         f"item size {width}")
    n, view = len(data) // width, memoryview(data)
    unpacked, zeros = array("I", [0]) * n, 0
    size = unpacked.itemsize
    with memoryview(unpacked).cast("B") as items:
        # the planes go to the items' bytes one chunk of items at a time: a bytearray's
        # strided copy is a tight loop in C, a memoryview's is one memcpy call a byte
        for start in range(0, n, _CHUNK):
            end = min(start + _CHUNK, n)
            chunk, ored = bytearray((end - start) * size), 0
            for k, offset in enumerate(_plane_offsets(width, size)):
                plane = view[k * n + start:k * n + end]
                chunk[offset::size] = plane
                ored |= int.from_bytes(plane, "little")
            items[start * size:end * size] = chunk
            # an item is 0 where the OR of the planes has a 0 byte: counted there, no
            # int object is made per item
            zeros += ored.to_bytes(end - start, "little").count(0)
    return unpacked, zeros


def _inflate(name: str, text: str, limit: int) -> bytes:
    """The bytes that base64 text's one zlib stream inflates to, at most
    limit of them: inflating stops one byte past limit. Anything else
    raises ValueError naming the field."""
    try:
        data = base64.b64decode(text)
    except ValueError:  # binascii.Error, or a character outside ASCII
        data = None
    # b64decode skips stray characters and ignores padding bits, so only
    # re-encoding proves that text is the one encoding of data
    if data is None or base64.b64encode(data).decode("ascii") != text:
        raise ValueError(f"{name} is not canonical base64")
    inflater = zlib.decompressobj()
    try:
        data = inflater.decompress(data, limit + 1)
    except zlib.error as exc:
        raise ValueError(f"{name} is not a zlib stream: {exc}") from None
    if len(data) > limit:
        raise ValueError(f"{name} decompresses to more than its {limit} bytes")
    if not inflater.eof:
        raise ValueError(f"{name} ends inside its zlib stream")
    if inflater.unused_data:
        raise ValueError(f"{name} holds bytes after its zlib stream")
    return data


def _unpack_words(name: str, value: object) -> list[str]:
    """_pack_words's values; anything else _pack_words cannot write, but for
    an empty value or one holding whitespace, raises ValueError naming the
    field. Inflating stops one byte past the byte count."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a packed word list string, got "
                         f"{json.dumps(value)[:40]}")
    size, colon, text = value.partition(":")
    # canonical decimal, short enough that no int() of it is slow or too large for zlib
    if not (colon and size.isascii() and size.isdigit() and len(size) <= 18
            and size == str(int(size))):
        raise ValueError(f"{name} must start with its byte count in decimal and a colon")
    data = _inflate(name, text, int(size))
    if len(data) != int(size):
        raise ValueError(f"{name} holds {len(data)} bytes, not its byte count {size}")
    try:
        joined = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{name} is not UTF-8 ({exc.reason})") from None
    # freed before split() builds the list: held there, they left glibc keeping
    # 5-8 MB more of a search process's heap at 10k-20k documents
    del data
    return joined.split("\n") if joined else []


class _Postings(Mapping):
    """load_index's postings: a read-only mapping over every term's postings
    kept flat, as in the file, where terms lists the terms in the file's
    layout order (see _layout) and term i holds items bounds[i] up to
    bounds[i + 1]. A term's positions are decoded from its d-gaps, and its
    tfs sliced, on its first lookup, and kept."""

    def __init__(self, terms: list[str], bounds: list[int], gaps: array, tfs: array) -> None:
        self._slot = dict(zip(terms, range(len(terms))))
        self._bounds, self._gaps, self._tfs = bounds, gaps, tfs
        self._decoded: dict[str, tuple[array, array]] = {}

    def __getitem__(self, term: str) -> tuple[array, array]:
        plist = self._decoded.get(term)
        if plist is None:
            slot = self._slot[term]
            start, end = self._bounds[slot], self._bounds[slot + 1]
            plist = self._decoded[term] = (
                array("I", itertools.accumulate(self._gaps[start:end])), self._tfs[start:end])
        return plist

    def __contains__(self, term: object) -> bool:
        return term in self._slot

    def __iter__(self):
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)


def load_index(path: str) -> InvertedIndex:
    """Read save_index's JSON. A file of another shape or format version,
    or with a value build_index cannot make, raises FormatError naming the
    path; no packed field is inflated past the size the file gives it.
    Every value is checked here, whether or not a search will read it."""
    payload = read_json(path)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != INDEX_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported index format version {version!r}")
    try:
        return _index_from_payload(payload)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _index_from_payload(payload: dict) -> InvertedIndex:
    # each check is a C-level call over a whole list or array: none is a
    # Python-level step per term or per posting
    if payload.keys() != _INDEX_KEYS:
        raise ValueError(f"index keys must be {sorted(_INDEX_KEYS)}, got {sorted(payload)}")
    analyzer = Analyzer.from_dict(payload["analyzer"])
    doc_ids = _unpack_words("doc_ids", payload["doc_ids"])
    if not doc_ids:
        raise ValueError("doc_ids must hold at least one doc id")
    check_words("doc id", doc_ids)
    check_unique(doc_ids)
    terms = _unpack_words("terms", payload["terms"])
    if terms[:1] == [""] or not all(map(operator.lt, terms, terms[1:])):
        raise ValueError("terms must be unique non-empty strings in sorted order")
    n = len(doc_ids)
    doc_len, _ = _unpack("doc_len", payload["doc_len"], n)
    if len(doc_len) != n:
        raise ValueError(f"doc_len must hold one length per doc id ({n}), got {len(doc_len)}")
    df, zero_dfs = _unpack("df", payload["df"], len(terms))
    if len(df) != len(terms):
        raise ValueError(f"df must hold one count per term ({len(terms)}), got {len(df)}")
    if zero_dfs:
        raise ValueError("every df must be >= 1")
    total = sum(df)
    (positions, zero_positions), (tfs, zero_tfs) = (
        _unpack(name, payload[name], total) for name in ("positions", "tfs"))
    if not len(positions) == len(tfs) == total:
        raise ValueError(f"positions and tfs must each hold sum(df) = {total} entries, "
                         f"got {len(positions)} and {len(tfs)}")
    if zero_tfs:
        raise ValueError("every tf must be >= 1")
    if sum(tfs) != sum(doc_len):
        raise ValueError(f"doc_len must sum to the sum of all tfs ({sum(tfs)}), "
                         f"got {sum(doc_len)}")
    # from here on, terms and bounds go in the postings' order; a list's
    # items are read faster than an array's, which makes an int for each
    counts = df.tolist()
    order = _layout(counts)
    terms = list(map(terms.__getitem__, order))
    bounds = list(itertools.accumulate(map(counts.__getitem__, order), initial=0))

    def gaps():  # each term's first position, then its d-gaps
        return map(positions.__getitem__, map(slice, bounds, bounds[1:]))

    # a term's positions ascend if no gap but its first is 0, and stay below n
    # if its gaps sum below n; only a failure is traced to its term
    firsts = list(map(positions.__getitem__, bounds[:-1]))
    if zero_positions != firsts.count(0) or max(map(sum, gaps()), default=0) >= n:
        term = next(term for term, term_gaps in zip(terms, gaps())
                    if term_gaps.count(0) > (term_gaps[0] == 0) or sum(term_gaps) >= n)
        raise ValueError(f"positions of {term!r} must ascend and be below {n}")
    return InvertedIndex(doc_ids=doc_ids, doc_len=doc_len,
                         postings=_Postings(terms, bounds, positions, tfs), analyzer=analyzer)
