"""An in-process HTTP stub of the remote logprobs endpoint, for the tests
that talk to one. It lives apart from conftest.py so that test modules can
import it by a name no other suite's conftest shadows."""

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler


class StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, payload) responses, sending a
    bytes payload as it is and any other as JSON; records request bodies
    for assertions."""

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
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
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
