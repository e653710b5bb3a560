"""Fuzz property over the index reader: `search` given a mutated index.json
exits with a documented code (0 to 3) and, on failure, one stderr line; it
never raises, and every mutation finishes within a deadline.

Mutations reach each layer of a packed array (its base64 text, its zlib
stream, its bytes and its integers), the JSON keys and values around them,
and the file's text itself. The examples are derandomized, so the same
mutations run every time.
"""

import base64
import contextlib
import copy
import io
import json
import signal
import struct
import zlib
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from qlmrank import cli
from qlmrank.corpus import Document
from qlmrank.ranking import build_index, save_index

PACKED = ("doc_len", "df", "positions", "tfs")
WIDTHS = {"B": 1, "H": 2, "I": 4}
EDGE_VALUES = [None, True, False, 0, -1, 4, 2**32, 2**64, 10**300, 1e308, -0.0, 1e-320,
               float("inf"), "", " ", "\0", "é", "B", "BeAEDAAAAAAE=", [], [1], ["d1"],
               {}, {"lowercase": True}]
EDGE_INTS = [0, 1, 2, 3, 4, 5, 255, 256, 65535, 65536, 2**32 - 1]
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
                            Document("d4", "", "pear " * 300)]), str(index))
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


def mutated_packed(draw, value):
    """A packed array string changed at one layer; a value that no longer
    decodes gets an edge value instead."""
    try:
        code, stream = value[:1], base64.b64decode(value[1:], validate=True)
        data = zlib.decompress(stream)
        values = list(struct.unpack(f"<{len(data) // WIDTHS[code]}{code}", data))
    except (TypeError, ValueError, KeyError, zlib.error, struct.error):
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
        data = struct.pack(f"<{len(values)}{code}", *values)
    return code + base64.b64encode(zlib.compress(data, 1)).decode()


@st.composite
def mutated_index_files(draw, payload):
    """The bytes of an index file: payload with one or two mutations, most of
    them inside a packed array."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["drop", "add", "edge", "edge", "list", "list",
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
        elif isinstance(payload.get(key), list) and payload[key]:
            items = payload[key]
            at = draw(st.integers(0, len(items) - 1))
            items[at:at + 1] = draw(st.sampled_from(
                [[], [items[at]] * 2, [draw(st.sampled_from(EDGE_VALUES))], ["a b"], ["zz"]]))
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return mutated_bytes(draw, data) if draw(st.integers(0, 9)) == 0 else data


def _hang(signum, frame):
    raise Hang(f"no answer within {HANG_S} s")


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_search_of_a_mutated_index_exits_with_a_documented_code(files, data):
    files["index"].write_bytes(data.draw(mutated_index_files(files["payload"])))
    files["out"].unlink(missing_ok=True)
    stderr = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, HANG_S)
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["search", "--index", str(files["index"]),
                             "--queries", str(files["queries"]), "--out", str(files["out"])])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3)
    if code:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()
        assert not files["out"].exists()
