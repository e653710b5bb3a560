"""Stub logprob server for the benchmark, run in its own process.

It speaks the package's wire protocol (POST /v1/loglikelihood with
{"context", "continuation"}, answer {"tokens", "logprobs"}). The logprobs
come from a BigramLm trained on the benchmark corpus, exactly as the
`bigram` provider trains it, so remote re-ranking scores can be checked
against a direct BigramLm score.

Every answer sleeps a fixed latency and then goes out as headers and body
in one write. Two writes would hit the Nagle / delayed-ACK stall (about
40 ms per request on loopback), which would swamp every client number.

GET /stats returns the counters since the last GET /stats and resets them:
requests, connections that carried a request, the most requests in flight
at once, non-200 answers and the service time of every request in ms.

Usage: python3 bench/stub_server.py --corpus corpus.jsonl --latency-ms 20
It prints "port <n>" on stdout once it listens on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from qlmrank.corpus import load_corpus
from qlmrank.likelihood import BigramLm, LikelihoodRequest

ENDPOINT_PATH = "/v1/loglikelihood"


def http_response(status: int, payload: dict) -> bytes:
    """Status line, headers and JSON body as one buffer (one write)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}[status]
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


def score(model: BigramLm, body: bytes) -> tuple[int, dict]:
    """Answer one loglikelihood request body: (status, payload)."""
    try:
        obj = json.loads(body)
        request = LikelihoodRequest(context=obj["context"], continuation=obj["continuation"])
        result = model(request)
    except (ValueError, KeyError, TypeError) as exc:
        return 400, {"error": str(exc)}
    return 200, {"tokens": list(result.tokens), "logprobs": list(result.logprobs)}


class StubStats:
    """Server-side counters, shared by the handler threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.inflight = 0
        self.inflight_max = 0
        self.non_200 = 0
        self.service_ms: list[float] = []

    def begin(self, new_connection: bool) -> None:
        with self._lock:
            self.requests += 1
            self.connections += new_connection
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)

    def end(self, status: int, service_ms: float) -> None:
        with self._lock:
            self.inflight -= 1
            self.non_200 += status != 200
            self.service_ms.append(service_ms)

    def snapshot_and_reset(self) -> dict:
        with self._lock:
            snap = {"requests": self.requests, "connections": self.connections,
                    "inflight_max": self.inflight_max, "non_200": self.non_200,
                    "service_ms": self.service_ms}
            inflight = self.inflight
            self.reset()
            self.inflight = inflight
        return snap


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"   # keep-alive, as a real model server
    model: BigramLm
    latency_s: float
    stats: StubStats

    def setup(self) -> None:
        super().setup()
        self.served = False

    def do_POST(self) -> None:
        start = time.perf_counter()
        self.stats.begin(new_connection=not self.served)
        self.served = True
        status, payload = 404, {"error": f"unknown path {self.path}"}
        try:
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == ENDPOINT_PATH:
                status, payload = score(self.model, body)
            time.sleep(self.latency_s)
            self.wfile.write(http_response(status, payload))
        finally:
            self.stats.end(status, (time.perf_counter() - start) * 1000.0)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self.wfile.write(http_response(404, {"error": f"unknown path {self.path}"}))
            return
        self.wfile.write(http_response(200, self.stats.snapshot_and_reset()))

    def log_message(self, format: str, *args) -> None:
        pass


def make_server(model: BigramLm, latency_ms: float, port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-serve stub bound to 127.0.0.1 (port 0 picks a free port)."""
    handler = type("BoundStubHandler", (StubHandler,), {
        "model": model, "latency_s": latency_ms / 1000.0, "stats": StubStats(),
    })
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    server.daemon_threads = True
    return server


def train_model(corpus_path: str) -> BigramLm:
    """Train the BigramLm the way the `bigram` provider does."""
    docs = load_corpus(corpus_path)
    return BigramLm.train([f"{d.title} {d.body}" if d.title else d.body for d in docs])


def main() -> None:
    parser = argparse.ArgumentParser(description="stub logprob server")
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    server = make_server(train_model(args.corpus), args.latency_ms, args.port)
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
