import json
import os
from http.server import HTTPServer
from pathlib import Path

import pytest

from http_stub import StubHandler, serving
from qlmrank.corpus import Document, Query
from qlmrank.ranking import Analyzer, build_index

# pytest's `pythonpath` setting reaches this interpreter only; a test that
# starts `python -m qlmrank.cli` needs the checkout's src/ on PYTHONPATH too
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parent.parent / "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])])


def pytest_collection_modifyitems(items):
    # a test here that leaks an open file or socket fails instead of printing a
    # warning; bench/tests is not held to it yet, as two of its tests leak files
    here = Path(__file__).resolve().parent
    for item in items:
        if here in Path(item.path).resolve().parents:
            for category in ("ResourceWarning", "pytest.PytestUnraisableExceptionWarning"):
                item.add_marker(pytest.mark.filterwarnings(f"error::{category}"))


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


@pytest.fixture
def no_backoff(monkeypatch):
    """RemoteProvider retries without sleeping between attempts."""
    from qlmrank import likelihood
    monkeypatch.setattr(likelihood, "BACKOFF_S", 0.0)


@pytest.fixture
def one_attempt(monkeypatch):
    """RemoteProvider tries each request once, so no retry can hide a failure."""
    from qlmrank import likelihood
    monkeypatch.setattr(likelihood, "ATTEMPTS", 1)


@pytest.fixture
def stub_server():
    with serving(HTTPServer(("127.0.0.1", 0), StubHandler)) as server:
        yield f"http://127.0.0.1:{server.server_port}"
