"""Remote backend clients against an in-process HTTP stub."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from hopqg.errors import BackendError
from hopqg.geninput import assemble_initial_input
from hopqg.pipeline import StepInfo
from hopqg.planner import EdgeDirection
from hopqg.remote import (
    RemoteDecomposer,
    RemoteGeneratorBackend,
    RemoteQa,
    RemoteTypeClassifier,
    post_json,
)


class StubHandler(BaseHTTPRequestHandler):
    """Routes POST bodies through the server's scripted behaviors."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append((self.path, payload))
        behavior = self.server.behaviors.get(self.path)
        if behavior is None:
            self.send_response(404)
            self.end_headers()
            return
        status, body = behavior(payload, len(self.server.requests))
        if status is None:
            # Raw reply: send body as is, with no status line of our own, and
            # close the connection (an empty body just drops it).
            self.wfile.write(body)
            self.close_connection = True
            return
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.requests = []
    server.behaviors = {}
    # A short poll interval lets shutdown() return at once, not after 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_port}"
    try:
        yield server, base
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def ok(body):
    return lambda payload, n: (200, body)


def test_generator_backend_protocol(stub_server):
    server, base = stub_server
    server.behaviors["/generate"] = ok({"question": "Who starred in Top Gun?"})
    backend = RemoteGeneratorBackend(base + "/generate", top_p=0.8, max_tokens=32)
    gi = assemble_initial_input(
        "Tom Cruise", "Top Gun", "Top Gun starred Tom Cruise.",
        "starred", EdgeDirection.PARENT_TO_CHILD,
    )
    info = StepInfo(1, "Tom Cruise", "Top Gun", "person", None)
    assert backend.initial(gi, info) == "Who starred in Top Gun?"
    path, payload = server.requests[0]
    assert path == "/generate"
    assert payload["top_p"] == 0.8 and payload["max_tokens"] == 32
    assert payload["text"].startswith("<bos>")
    assert isinstance(payload["segments"], list)
    assert len(payload["segments"]) == len(payload["text"].split())


def test_classifier_decomposer_qa_protocols(stub_server):
    server, base = stub_server
    server.behaviors["/classify"] = ok({"label": "Bridge"})
    server.behaviors["/decompose"] = ok({"subq1": "Q one?", "subq2": "Q two [ANSWER]?"})
    server.behaviors["/qa"] = ok({"answer": "Alfred Hitchcock"})

    assert RemoteTypeClassifier(base + "/classify").classify("Who directed X?") == "Bridge"
    assert RemoteDecomposer(base + "/decompose").decompose("Q?", "Bridge") == (
        "Q one?", "Q two [ANSWER]?",
    )
    assert RemoteQa(base + "/qa").answer("Who?", "Some context.") == "Alfred Hitchcock"

    by_path = dict(server.requests)
    assert by_path["/classify"] == {"question": "Who directed X?"}
    # The rule decomposer takes a type hint; the remote protocol does not.
    assert by_path["/decompose"] == {"question": "Q?"}
    assert by_path["/qa"] == {"question": "Who?", "context": "Some context."}


def test_post_json_retries_then_succeeds(stub_server):
    server, base = stub_server

    def flaky(payload, n):
        if n < 3:
            return 500, {"error": "busy"}
        return 200, {"ok": True}

    server.behaviors["/flaky"] = flaky
    assert post_json(base + "/flaky", {}, retries=2, backoff=0.0) == {"ok": True}
    assert len(server.requests) == 3


def test_post_json_exhausted_retries_raise(stub_server):
    server, base = stub_server
    server.behaviors["/down"] = ok({"error": "no"})
    server.behaviors["/down"] = lambda payload, n: (503, {"error": "no"})
    with pytest.raises(BackendError, match="503"):
        post_json(base + "/down", {}, retries=1, backoff=0.0)
    assert len(server.requests) == 2


def test_post_json_rejects_non_object_and_bad_json(stub_server):
    server, base = stub_server
    server.behaviors["/list"] = ok([1, 2, 3])
    with pytest.raises(BackendError, match="non-object"):
        post_json(base + "/list", {}, retries=0)
    server.behaviors["/garbage"] = ok(b"not json at all")
    with pytest.raises(BackendError):
        post_json(base + "/garbage", {}, retries=0)


def test_missing_answer_key_is_backend_error(stub_server):
    server, base = stub_server
    server.behaviors["/qa"] = ok({"wrong_key": "x"})
    with pytest.raises(BackendError):
        RemoteQa(base + "/qa", retries=0).answer("Who?", "ctx")
    server.behaviors["/classify"] = ok({})
    with pytest.raises(BackendError):
        RemoteTypeClassifier(base + "/classify", retries=0).classify("Q?")


def test_connection_refused_is_backend_error():
    with pytest.raises(BackendError):
        post_json("http://127.0.0.1:9/never", {}, retries=0, timeout=0.5)


@pytest.mark.parametrize("raw", [b"", b"NOT-HTTP garbage\r\n\r\n"], ids=["dropped", "bad-status-line"])
def test_post_json_dropped_connection_retries_then_raises(stub_server, raw):
    server, base = stub_server
    server.behaviors["/drop"] = lambda payload, n: (None, raw)
    with pytest.raises(BackendError, match="/drop: "):
        post_json(base + "/drop", {}, retries=2, backoff=0.0)
    assert len(server.requests) == 3


def test_post_json_rejects_non_http_urls(tmp_path):
    target = tmp_path / "answer.json"
    target.write_text('{"answer": "leaked"}', encoding="utf-8")
    with pytest.raises(BackendError, match="not an http"):
        post_json(target.as_uri(), {}, retries=0)
