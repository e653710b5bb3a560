"""Wire-protocol conformance for the remote logprobs client, exercised
against an in-process stub server (see conftest.StubHandler)."""

import gc
import json
import shutil
import ssl
import subprocess
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from conftest import StubHandler, serving
from qlmrank.corpus import Document, Query, Run
from qlmrank.likelihood import (
    LikelihoodRequest,
    ProtocolError,
    RemoteProvider,
    TransportError,
    rerank_run,
)
from qlmrank.prompts import PromptTemplate

REQUEST = LikelihoodRequest(context="some prompt", continuation=" what is x")


def test_success_path(stub_server):
    StubHandler.script = [(200, {"tokens": ["what", "?"], "logprobs": [-2.0, -0.5]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    result = provider(REQUEST)
    assert result.tokens == ("what", "?")
    assert result.logprobs == (-2.0, -0.5)


def test_request_shape_and_auth_header(stub_server):
    StubHandler.script = [(200, {"tokens": ["x"], "logprobs": [-1.0]})]
    provider = RemoteProvider(stub_server, auth_token="secret", backoff=0.0)
    provider(REQUEST)
    path, body, headers = StubHandler.requests_seen[0]
    assert path == "/v1/loglikelihood"
    assert body == {"context": "some prompt", "continuation": " what is x"}
    assert headers.get("Authorization") == "Bearer secret"


def test_length_mismatch_is_protocol_error(stub_server):
    StubHandler.script = [(200, {"tokens": ["a", "b"], "logprobs": [-1.0, -2.0, -3.0]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with pytest.raises(ProtocolError):
        provider(REQUEST)


def test_missing_keys_is_protocol_error(stub_server):
    StubHandler.script = [(200, {"wrong": []})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with pytest.raises(ProtocolError):
        provider(REQUEST)


MALFORMED_PAYLOADS = {
    "logprobs-string": ({"tokens": ["a", "b"], "logprobs": "12"}, "logprobs"),
    "logprobs-bool": ({"tokens": ["a"], "logprobs": [True]}, "logprobs"),
    "logprobs-numeric-string": ({"tokens": ["a"], "logprobs": ["-1.5"]}, "logprobs"),
    "logprobs-null": ({"tokens": ["a"], "logprobs": None}, "logprobs"),
    "tokens-empty": ({"tokens": [], "logprobs": []}, "tokens"),
    "tokens-not-strings": ({"tokens": [1], "logprobs": [-1.0]}, "tokens"),
    "not-an-object": ([], "malformed response"),
}


@pytest.mark.parametrize("case", MALFORMED_PAYLOADS)
def test_malformed_payload_is_protocol_error(stub_server, case):
    payload, message = MALFORMED_PAYLOADS[case]
    StubHandler.script = [(200, payload)]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with pytest.raises(ProtocolError, match=message):
        provider(REQUEST)
    assert len(StubHandler.requests_seen) == 1  # a malformed answer is not retried


def test_malformed_payload_scores_at_the_floor_under_on_error_floor(stub_server):
    # d1 is scored first: its answer is malformed, d2's is well formed
    StubHandler.script = [(200, {"tokens": [], "logprobs": []}),
                          (200, {"tokens": ["x", "y"], "logprobs": [-1.0, -2.0]})]
    docs = {did: Document(did, "", f"body {did}") for did in ("d1", "d2")}
    first_stage = Run({"q1": [("d1", 2.0), ("d2", 1.0)]})
    provider = RemoteProvider(stub_server, backoff=0.0)
    out = rerank_run(provider, PromptTemplate(body="{doc}"), [Query("q1", "what")],
                     first_stage, docs, max_workers=1, on_error="floor")
    provider.close()
    assert out.entries == {"q1": [("d2", -1.5), ("d1", -100.0)]}


def test_negative_infinity_floored_with_warning(stub_server, caplog):
    StubHandler.script = [(200, {"tokens": ["a", "b"], "logprobs": [-1.0, -1e999]})]
    provider = RemoteProvider(stub_server, backoff=0.0)
    with caplog.at_level("WARNING"):
        result = provider(REQUEST)
    assert result.logprobs == (-1.0, -100.0)
    assert "floored" in caplog.text


def test_transient_failure_then_success_retries(stub_server):
    StubHandler.script = [
        (503, {"error": "busy"}),
        (200, {"tokens": ["x"], "logprobs": [-0.25]}),
    ]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    result = provider(REQUEST)
    assert result.logprobs == (-0.25,)
    assert len(StubHandler.requests_seen) == 2


def test_retry_budget_exhausted(stub_server):
    StubHandler.script = [(503, {}), (503, {}), (503, {})]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    with pytest.raises(TransportError):
        provider(REQUEST)
    assert len(StubHandler.requests_seen) == 3


def test_client_error_not_retried(stub_server):
    StubHandler.script = [(404, {}), (200, {"tokens": ["x"], "logprobs": [-1.0]})]
    provider = RemoteProvider(stub_server, attempts=3, backoff=0.0)
    with pytest.raises(TransportError):
        provider(REQUEST)
    assert len(StubHandler.requests_seen) == 1


def test_unreachable_endpoint():
    provider = RemoteProvider("http://127.0.0.1:1", attempts=2, backoff=0.0, timeout=0.5)
    with pytest.raises(TransportError):
        provider(REQUEST)


def test_identical_requests_identical_results(stub_server):
    payload = {"tokens": ["a", "b"], "logprobs": [-1.5, -2.5]}
    StubHandler.script = [(200, payload), (200, payload)]
    provider = RemoteProvider(stub_server, backoff=0.0)
    assert provider(REQUEST) == provider(REQUEST)


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 stub that keeps connections open unless its server has
    `close_after_answer` set; then it closes each one after answering,
    without saying so in the response. Counts connections, the ones still
    open, and requests."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.open -= 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests += 1
        data = json.dumps({"tokens": ["x"], "logprobs": [-1.0]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.server.close_after_answer:
            self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = server.open = server.requests = 0
    server.close_after_answer = False
    with serving(server):
        yield server


def rerank_200_pairs(provider):
    """Re-rank 10 queries x 20 docs through `provider` at 16 workers."""
    docs = {f"d{i}": Document(f"d{i}", "", f"body {i}") for i in range(20)}
    queries = [Query(f"q{j}", f"query {j}") for j in range(10)]
    first_stage = Run({q.id: [(did, 0.0) for did in docs] for q in queries})
    return rerank_run(provider, PromptTemplate(body="{doc}"), queries, first_stage, docs,
                      max_workers=16)


def test_keep_alive_connections_at_most_one_per_worker(keep_alive_server):
    provider = RemoteProvider(f"http://127.0.0.1:{keep_alive_server.server_port}",
                              attempts=1)
    out = rerank_200_pairs(provider)
    provider.close()
    assert sum(len(ranking) for ranking in out.entries.values()) == 200
    assert keep_alive_server.requests == 200
    assert 1 <= keep_alive_server.connections <= 16


def test_close_ends_the_connections_of_every_thread(keep_alive_server):
    provider = RemoteProvider(f"http://127.0.0.1:{keep_alive_server.server_port}",
                              attempts=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        provider(REQUEST)  # this thread's connection, besides the pool's
        rerank_200_pairs(provider)
        provider.close()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert all_closed(keep_alive_server)
    # a closed provider still works, and closes the connection it reopened
    assert provider(REQUEST).logprobs == (-1.0,)
    assert keep_alive_server.open == 1
    provider.close()
    assert all_closed(keep_alive_server)


def all_closed(server, timeout=5.0):
    """Whether the server sees every connection closed within `timeout`."""
    deadline = time.monotonic() + timeout
    while server.open and time.monotonic() < deadline:
        time.sleep(0.01)
    return server.open == 0


def test_connection_dropped_after_answer_is_reopened(keep_alive_server):
    keep_alive_server.close_after_answer = True
    provider = RemoteProvider(f"http://127.0.0.1:{keep_alive_server.server_port}",
                              attempts=1)
    assert provider(REQUEST).logprobs == (-1.0,)
    assert provider(REQUEST).logprobs == (-1.0,)
    provider.close()
    assert keep_alive_server.requests == 2
    assert keep_alive_server.connections == 2


@pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://example.org", "http://",
                                      "http:///v1", "http://host:port", "https://[::1"])
def test_malformed_endpoint_rejected(endpoint):
    with pytest.raises(ValueError, match="endpoint must be an http:// or https:// URL"):
        RemoteProvider(endpoint)


@pytest.fixture
def tls_stub_server(tmp_path):
    """StubHandler served over TLS with a fresh self-signed certificate for
    localhost: (endpoint, certificate path)."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
                    "-subj", "/CN=localhost",
                    "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)], check=True, capture_output=True)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    server = HTTPServer(("127.0.0.1", 0), StubHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    with serving(server):
        yield f"https://localhost:{server.server_port}", cert


def test_https_trusts_the_certificate_ssl_cert_file_names(tls_stub_server, monkeypatch):
    endpoint, cert = tls_stub_server
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))  # read when the provider builds its context
    StubHandler.script = [(200, {"tokens": ["x"], "logprobs": [-0.5]})]
    provider = RemoteProvider(endpoint, attempts=1)
    assert provider(REQUEST).logprobs == (-0.5,)
    provider.close()
    assert StubHandler.requests_seen[0][0] == "/v1/loglikelihood"


def test_https_rejects_an_unverified_certificate(tls_stub_server, monkeypatch):
    endpoint, _ = tls_stub_server
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    provider = RemoteProvider(endpoint, attempts=1)
    with pytest.raises(TransportError, match="certificate verify failed"):
        provider(REQUEST)
    provider.close()
    assert StubHandler.requests_seen == []
