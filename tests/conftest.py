import contextlib
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from qlmrank.corpus import Document, Query
from qlmrank.ranking import Analyzer, build_index

# pytest's `pythonpath` setting reaches this interpreter only; a test that
# starts `python -m qlmrank.cli` needs the checkout's src/ on PYTHONPATH too
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])


@pytest.fixture
def c3_docs():
    """Three tiny documents: d1="a b a", d2="b c", d3="c c c"."""
    return [
        Document("d1", "", "a b a"),
        Document("d2", "", "b c"),
        Document("d3", "", "c c c"),
    ]


@pytest.fixture
def c3_index(c3_docs):
    return build_index(c3_docs, Analyzer())


@pytest.fixture
def write_jsonl(tmp_path):
    def _write(name, rows):
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        return str(path)
    return _write


def make_query(qid="q1", text="a"):
    return Query(qid, text)


class StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, payload) responses; records
    request bodies for assertions."""

    script = []
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        StubHandler.requests_seen.append((self.path, body, dict(self.headers)))
        if StubHandler.script:
            status, payload = StubHandler.script.pop(0)
        else:
            status, payload = 200, {"tokens": [], "logprobs": []}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(server):
    """Run `server` on a thread with an empty StubHandler script, then stop it."""
    # shutdown() waits for serve_forever's next poll: 0.5 s at the default interval
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    StubHandler.script = []
    StubHandler.requests_seen = []
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def stub_server():
    with serving(HTTPServer(("127.0.0.1", 0), StubHandler)) as server:
        yield f"http://127.0.0.1:{server.server_port}"
