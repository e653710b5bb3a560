import http.client
import json
import threading

import pytest

import stub_server
from qlmrank.likelihood import BigramLm, LikelihoodRequest

MODEL = BigramLm.train(["the cat sat on the mat", "a dog sat on a log"])


@pytest.fixture
def stub():
    writes = []

    class CountingWriter:
        def __init__(self, inner):
            self.inner = inner

        def write(self, data):
            writes.append(bytes(data))
            return self.inner.write(data)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    server = stub_server.make_server(MODEL, latency_ms=1.0)
    handler = server.RequestHandlerClass
    base_setup = handler.setup

    def setup(self):
        base_setup(self)
        self.wfile = CountingWriter(self.wfile)

    handler.setup = setup
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_port, writes
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(conn, context, continuation):
    body = json.dumps({"context": context, "continuation": continuation})
    conn.request("POST", stub_server.ENDPOINT_PATH, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def test_each_answer_is_one_write_with_headers_and_body(stub):
    port, writes = stub
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    answers = [_post(conn, "the cat", " sat on the mat") for _ in range(3)]
    conn.close()
    assert len(writes) == 3
    for (status, body), raw in zip(answers, writes):
        assert status == 200
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK") and payload == body


def test_payload_is_deterministic_and_matches_bigram_lm(stub):
    port, writes = stub
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    first = _post(conn, "the dog", " sat on a log")
    second = _post(conn, "the dog", " sat on a log")
    conn.close()
    assert first == second and writes[0] == writes[1]
    expected = MODEL(LikelihoodRequest("the dog", " sat on a log"))
    payload = json.loads(first[1])
    assert payload == {"tokens": list(expected.tokens), "logprobs": list(expected.logprobs)}


def test_stats_count_requests_connections_and_reset(stub):
    port, _ = stub
    for _ in range(2):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        assert _post(conn, "a", " cat")[0] == 200
        assert _post(conn, "a", " cat")[0] == 200
        conn.close()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("GET", "/stats")
    stats = json.loads(conn.getresponse().read())
    conn.request("GET", "/stats")
    again = json.loads(conn.getresponse().read())
    conn.close()
    assert (stats["requests"], stats["connections"], stats["non_200"]) == (4, 2, 0)
    assert stats["inflight_max"] == 1 and len(stats["service_ms"]) == 4
    assert min(stats["service_ms"]) >= 1.0
    assert again["requests"] == 0 and again["service_ms"] == []
