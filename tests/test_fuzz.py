"""Fuzz properties over the readers and the remote decoder.

A verb given a mutated input file exits with a documented code (0 to 3)
and, on failure, one stderr line and no output file; it never raises, and
every mutation finishes within a deadline. The index property's mutations
reach each layer of a packed array (its base64 text, its zlib stream, its
bytes and its integers) and of a packed word list (its byte count, its
base64 text, its zlib stream and its UTF-8 bytes and separators), the JSON
keys and values around them, and the file's text itself. The text readers' mutations reach lines, columns,
JSON fields, nesting depth and bytes of corpus, queries, qrels, run and
catalog files. RemoteProvider's decoder, given a mutated response body,
returns finite float logprobs or raises ProtocolError, and decodes every
well-formed body as its numbers' float literals read, floored.

The examples are derandomized, so the same mutations run every time.
"""

import base64
import contextlib
import copy
import io
import json
import math
import os
import shutil
import signal
import zlib
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from qlmrank import cli
from qlmrank.corpus import Document
from qlmrank.likelihood import LOGPROB_FLOOR, ProtocolError, RemoteProvider
from qlmrank.ranking import build_index, save_index

PACKED = ("doc_len", "df", "positions", "tfs")
WORDS = ("doc_ids", "terms")
# stand-ins for a word list's byte count, and bytes that are not UTF-8
EDGE_COUNTS = ["", "0", "00", "-1", "+5", " 5", "5 ", "\u0665", "1e3", "9" * 18, "9" * 19,
               str(2**64)]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xc0\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
WIDTHS = {"B": 1, "H": 2, "I": 4}
EDGE_VALUES = [None, True, False, 0, -1, 4, 2**32, 2**64, 10**300, 1e308, -0.0, 1e-320,
               float("inf"), "", " ", "\0", "é", "B", "BeAEDAAAAAAE=", [], [1], ["d1"],
               {}, {"lowercase": True}]
EDGE_INTS = [0, 1, 2, 3, 4, 5, 255, 256, 65535, 65536, 2**32 - 1]
# stand-ins for one TSV or TREC column
EDGE_TOKENS = ["nan", "inf", "-inf", "1e999", "\u0663", "1_0", "9" * 400, str(10 ** 23),
               "1023", "1024", "1100", "-1", "0", "1.5", "", "a b", "\0", "\u00e9"]
DEEP = "[" * 100_000  # JSON nested past the parser's recursion limit
HANG_S = 10  # far past any example's time: only a computation that does not end reaches it


class Hang(Exception):
    """A mutation kept the reader busy for HANG_S."""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    index = d / "index.json"
    save_index(build_index([Document("d1", "", "apple apple pear"),
                            Document("d2", "fig", "pear fig fig"),
                            Document("d3", "", "kiwi apple"),
                            Document("d4", "", "pear " * 300),
                            Document("d\u00e95", "", "kiwi")]), str(index))
    queries = d / "queries.jsonl"
    queries.write_text('{"_id": "q1", "text": "apple pear"}\n'
                       '{"_id": "q2", "text": "fig kiwi"}\n', encoding="utf-8")
    return {"index": index, "queries": queries, "out": d / "out.trec",
            "payload": json.loads(index.read_text(encoding="utf-8"))}


def mutated_bytes(draw, data):
    """data cut short, with one bit flipped, or with bytes added."""
    how = draw(st.sampled_from(["cut", "flip", "extend"]))
    if how == "cut":
        return data[:len(data) - draw(st.integers(1, max(len(data), 1)))]
    if how == "flip" and data:
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    return data + draw(st.binary(min_size=1, max_size=8))


def from_planes(data, width):
    """The integers whose byte planes data holds: byte k of item i at k * n + i."""
    n, ragged = divmod(len(data), width)
    if ragged:
        raise ValueError(f"{len(data)} bytes in planes of width {width}")
    return [sum(data[k * n + i] << 8 * k for k in range(width)) for i in range(n)]


def mutated_packed(draw, value):
    """A packed array string changed at one layer; a value that no longer
    decodes gets an edge value instead."""
    try:
        code, stream = value[:1], base64.b64decode(value[1:], validate=True)
        data = zlib.decompress(stream)
        values = from_planes(data, WIDTHS[code])
    except (TypeError, ValueError, KeyError, zlib.error):
        return draw(st.sampled_from(EDGE_VALUES))
    layer = draw(st.sampled_from(["text", "code", "stream", "bytes", "values"]))
    if layer == "text":
        return mutated_bytes(draw, value.encode("ascii")).decode("latin-1")
    if layer == "code":
        return draw(st.sampled_from("BHIQid ")) + value[1:]
    if layer == "stream":
        return code + base64.b64encode(mutated_bytes(draw, stream)).decode()
    if layer == "bytes":
        data = mutated_bytes(draw, data)
    else:
        how = draw(st.sampled_from(["set", "drop", "repeat"]))
        at = draw(st.integers(0, len(values))) if values else 0
        if how == "set" and at < len(values):
            values[at] = draw(st.sampled_from(EDGE_INTS))
        elif how == "drop":
            del values[at:at + 1]
        else:
            values[at:at] = values[at:at + 1] or [draw(st.sampled_from(EDGE_INTS))]
        code = next(c for c, w in WIDTHS.items() if max(values, default=0) < 1 << 8 * w)
        data = bytes(v >> 8 * k & 255 for k in range(WIDTHS[code]) for v in values)
    return code + base64.b64encode(zlib.compress(data, 1)).decode()


WORD_LAYERS = ("count", "text", "stream", "bytes", "utf8", "separator")


def mutated_words(draw, value, layers=WORD_LAYERS):
    """A packed word list string changed at one of `layers`; a value that no
    longer decodes gets an edge value instead."""
    try:
        size, text = value.split(":")
        stream = base64.b64decode(text, validate=True)
        data = zlib.decompress(stream)
    except (AttributeError, ValueError, zlib.error):
        return draw(st.sampled_from(EDGE_VALUES))
    layer = draw(st.sampled_from(layers))
    if layer == "count":
        size = draw(st.sampled_from([*EDGE_COUNTS, "0" + size, str(len(data) - 1),
                                      str(len(data) + 1)]))
        return f"{size}:{text}"
    if layer == "text":
        return size + ":" + mutated_bytes(draw, text.encode("ascii")).decode("latin-1")
    if layer == "stream":
        return size + ":" + base64.b64encode(mutated_bytes(draw, stream)).decode()
    at = draw(st.integers(0, len(data)))
    if layer == "bytes":
        data = mutated_bytes(draw, data)
    elif layer == "utf8":
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    else:  # a separator added (an empty word at either end or next to another) or removed
        how = draw(st.sampled_from(["add", "start", "end", "double", "remove"]))
        breaks = [i for i, byte in enumerate(data) if byte == ord("\n")]
        if how in ("double", "remove") and breaks:
            i = draw(st.sampled_from(breaks))
            data = data[:i] + (b"\n\n" if how == "double" else b"") + data[i + 1:]
        else:
            at = {"start": 0, "end": len(data)}.get(how, at)
            data = data[:at] + b"\n" + data[at:]
    return f"{len(data)}:" + base64.b64encode(zlib.compress(data, 1)).decode()


@st.composite
def mutated_index_files(draw, payload):
    """The bytes of an index file: payload with one or two mutations, most of
    them inside a packed array or word list."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "add", "edge", "edge", *["words"] * 4,
                                    *["packed"] * 8]))
        key = draw(st.sampled_from(sorted(payload) or ["format_version"]))
        if how == "drop":
            payload.pop(key, None)
        elif how == "add":
            payload[draw(st.sampled_from(["n_docs", "postings", ""]))] = draw(
                st.sampled_from(EDGE_VALUES))
        elif how == "edge":
            payload[key] = draw(st.sampled_from(EDGE_VALUES))
        elif how == "packed":
            name = draw(st.sampled_from(PACKED))
            payload[name] = mutated_packed(draw, payload.get(name))
        else:
            name = draw(st.sampled_from(WORDS))
            payload[name] = mutated_words(draw, payload.get(name))
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return mutated_bytes(draw, data) if draw(st.integers(0, 9)) == 0 else data


def _hang(signum, frame):
    raise Hang(f"no answer within {HANG_S} s")


def assert_documented_exit(argv, out):
    """cli.main(argv) returns 0 to 3 within HANG_S and, if not 0, prints one
    stderr line and leaves no file at `out`. Returns the code."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, HANG_S)
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main([str(arg) for arg in argv])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        assert not out.exists()
    return code


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_search_of_a_mutated_index_exits_with_a_documented_code(files, data):
    files["index"].write_bytes(data.draw(mutated_index_files(files["payload"])))
    assert_documented_exit(["search", "--index", files["index"], "--queries", files["queries"],
                            "--out", files["out"]], files["out"])


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_search_of_a_broken_word_list_is_a_data_error(files, data):
    # a wrong count, bytes not UTF-8, or a separator added or removed always breaks the
    # file; a change of the other layers may not (a flip in the padding bits of the
    # stream's last byte, say, leaves it inflating to the same bytes)
    name = data.draw(st.sampled_from(WORDS))
    payload = {**files["payload"], name: mutated_words(data.draw, files["payload"][name],
                                                       ["count", "utf8", "separator"])}
    files["index"].write_text(json.dumps(payload), encoding="utf-8")
    assert assert_documented_exit(["search", "--index", files["index"], "--queries",
                                   files["queries"], "--out", files["out"]], files["out"]) == 2


# the text inputs of the reader property, each as a list of its lines but the catalog
TEXTS = {
    "corpus": [json.dumps(row) for row in [
        {"_id": "d1", "title": "apples", "text": "apples grow on apple trees"},
        {"_id": "d2", "title": "", "text": "bananas are yellow fruit"},
        {"_id": "d3", "text": "oranges and lemons are citrus fruit"}]],
    "queries": [json.dumps(row) for row in [{"_id": "q1", "text": "apple trees"},
                                            {"_id": "q2", "text": "yellow bananas"}]],
    "qrels": ["query-id\tcorpus-id\tscore", "q1\td1\t2", "q1\td3\t1", "q2\td2\t1"],
    "run": ["q1 Q0 d1 1 2.5 bm25", "q1 Q0 d3 2 0.5 bm25", "q2 Q0 d2 1 1.25 bm25"],
    "catalog": [{"model_family": "llama", "dataset": "trecc", "body": "{doc}\nQuestion:",
                 "system_prefix": "", "suffix": "",
                 "fewshot": [{"document": f"doc {i}", "good_question": f"good {i}",
                              "bad_question": f"bad {i}"} for i in range(3)]}],
}
COLUMNS = {"qrels": ("\t", 2), "run": (" ", 4)}  # separator, the column of the number


def mutated_json(draw, value):
    """A JSON value with one key dropped or added, or one value or list item
    replaced by an edge value, at a drawn depth."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                   else range(len(value))))
        value = copy.copy(value)
        value[key] = mutated_json(draw, value[key])
        return value
    how = draw(st.sampled_from(["drop", "add", "edge"]))
    if how == "drop" and isinstance(value, dict) and value:
        return {k: v for k, v in value.items() if k != draw(st.sampled_from(sorted(value)))}
    if how == "drop" and isinstance(value, list) and value:
        return value[:-1]
    if how == "add" and isinstance(value, dict):
        return {**value, draw(st.sampled_from(["_id", "text", "extra", ""])):
                draw(st.sampled_from(EDGE_VALUES))}
    if how == "add" and isinstance(value, list):
        return value + [draw(st.sampled_from([*value[:1], *EDGE_VALUES]))]
    return draw(st.sampled_from(EDGE_VALUES))


@st.composite
def mutated_text_files(draw, kind):
    """The bytes of a `kind` file with one mutation: of a line, of a column
    (most often the numeric one) or JSON field, of its nesting, or of its bytes."""
    lines = list(TEXTS[kind])
    how = draw(st.sampled_from(["line", "field", "field", "field", "deep", "bytes"]))
    if kind == "catalog":
        catalog = TEXTS[kind]
        text = DEEP if how == "deep" else json.dumps(
            catalog if how == "bytes" else mutated_json(draw, catalog))
    else:
        at = draw(st.integers(0, len(lines) - 1))
        if how == "line":
            edit = draw(st.sampled_from(["drop", "repeat", "blank"]))
            lines[at:at + 1] = {"drop": [], "repeat": [lines[at]] * 2, "blank": [" \t"]}[edit]
        elif how == "deep":
            lines[at] = DEEP
        elif how == "field" and kind in COLUMNS:
            sep, number = COLUMNS[kind]
            columns = lines[at].split(sep)
            column = number if draw(st.booleans()) else draw(st.integers(0, len(columns)))
            token = draw(st.sampled_from(EDGE_TOKENS))
            columns[column:column + 1] = [token] if column < len(columns) else [token, token]
            lines[at] = sep.join(columns)
        elif how == "field":
            lines[at] = json.dumps(mutated_json(draw, json.loads(lines[at])))
        text = "\n".join(lines) + "\n"
    data = text.encode("utf-8")
    return mutated_bytes(draw, data) if how == "bytes" else data


@pytest.fixture(scope="module")
def text_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("readers")
    return {kind: d / kind for kind in [*TEXTS, "out"]}


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(kind=st.sampled_from(sorted(TEXTS)), data=st.data())
def test_verb_given_a_mutated_input_exits_with_a_documented_code(text_files, kind, data):
    for name, lines in TEXTS.items():
        text = json.dumps(lines) if name == "catalog" else "\n".join(lines) + "\n"
        text_files[name].write_text(text, encoding="utf-8")
    text_files[kind].write_bytes(data.draw(mutated_text_files(kind)))
    if kind == "qrels" or (kind == "run" and data.draw(st.booleans())):
        argv = ["eval", "--run", text_files["run"], "--qrels", text_files["qrels"]]
    else:
        argv = ["rerank", "--run", text_files["run"], "--corpus", text_files["corpus"],
                "--queries", text_files["queries"], "--catalog", text_files["catalog"],
                "--fewshot", "--model-family", "llama", "--dataset", "trecc",
                "--max-workers", "1"]
    assert_documented_exit([*argv, "--out", text_files["out"]], text_files["out"])


# a pipeline config but for its file paths, with every section set
CONFIG = {"model_family": "llama", "dataset": "trecc", "provider": "bigram", "depth": 3,
          "first_stage": "bm25", "bm25": {"k1": 0.9, "b": 0.4}, "dirichlet": {"mu": 1000.0},
          "analyzer": {"lowercase": True, "stopwords": None, "stem": False}}


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("config")
    for name in ("corpus", "queries", "qrels"):
        (d / name).write_text("\n".join(TEXTS[name]) + "\n", encoding="utf-8")
    return d


@settings(max_examples=200, derandomize=True, deadline=timedelta(seconds=5))
@given(section=st.sampled_from([None, "bm25", "dirichlet", "analyzer"]), data=st.data())
def test_pipeline_given_a_mutated_config_exits_with_a_documented_code(config_dir, section, data):
    # run in an empty directory, where a relative output_dir would be made
    work = config_dir / "work"
    config = {**CONFIG, **{name: str(config_dir / name) for name in ("corpus", "queries", "qrels")},
              "output_dir": str(work / "out")}
    if section:
        config[section] = mutated_json(data.draw, config[section])
    else:
        config = mutated_json(data.draw, config)
    (config_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    cwd = os.getcwd()
    work.mkdir()
    os.chdir(work)
    try:
        # significance.txt is the last file a pipeline writes
        code = assert_documented_exit(["pipeline", "--config", config_dir / "config.json"],
                                      work / "out" / "significance.txt")
        if code == cli.EXIT_USAGE:  # a config that fails its check makes no output_dir
            assert os.listdir(work) == []
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


@st.composite
def response_bodies(draw):
    """(body, what decoding it must give): a body of JSON numbers, some past
    the float range, with up to two mutations, or nested too deeply, or
    mutated at its bytes. What it must give is its logprobs, "error" for
    ProtocolError, or None for either."""
    n = draw(st.integers(1, 4))
    payload = {"tokens": draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)),
               "logprobs": draw(st.lists(st.one_of(
                   st.floats(), st.integers(-10 ** 3, 10 ** 3),
                   st.integers(-10 ** 420, 10 ** 420)), min_size=n, max_size=n))}
    for _ in range(draw(st.integers(0, 2))):
        payload = mutated_json(draw, payload)
    how = draw(st.sampled_from(["json", "json", "json", "bytes", "deep"]))
    body = json.dumps(payload).encode("ascii")
    if how == "bytes":
        return mutated_bytes(draw, body), None
    if how == "deep":
        return DEEP.encode() + body, "error"
    tokens, logprobs = (payload.get("tokens"), payload.get("logprobs")
                        ) if isinstance(payload, dict) else (None, None)
    if not (isinstance(tokens, list) and tokens and all(type(t) is str for t in tokens)
            and isinstance(logprobs, list) and len(logprobs) == len(tokens)
            and all(type(v) in (int, float) for v in logprobs)):
        return body, "error"
    # a number reads as its float literal does: an integer past the float range as +-inf
    values = [float(str(v)) if type(v) is int else v for v in logprobs]
    if math.inf in values:
        return body, "error"
    return body, [LOGPROB_FLOOR if math.isnan(v) or v < LOGPROB_FLOOR else v for v in values]


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(case=response_bodies())
def test_decoder_returns_finite_float_logprobs_or_raises_protocol_error(case):
    body, expected = case
    provider = RemoteProvider("http://127.0.0.1:9/score")  # opens no connection
    try:
        result = provider._decode(body)
    except ProtocolError:
        assert expected in (None, "error")
        return
    assert all(type(v) is float and math.isfinite(v) for v in result.logprobs)
    assert expected != "error"
    if expected is not None:
        assert list(result.logprobs) == expected
