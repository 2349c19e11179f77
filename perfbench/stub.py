"""Stub question-generation service for the gen-remote workload.

Run as its own process:

    python3 perfbench/stub.py

It prints the port it listens on (127.0.0.1) as its first stdout line and
serves until terminated or until its stdin reaches end of file. It speaks
HTTP/1.1 with keep-alive, as a model server does, and sends each response
in one write with Nagle's algorithm off; a response split into header and
body writes stalls on loopback until the client's delayed ACK.

POST /generate   {"text", "segments", ...} -> {"question"}; the question is
                 a deterministic function of the serialized input. A
                 rewrite input's <subq> block must equal a question this
                 stub returned before (the step-by-step property); if not,
                 the request counts as a violation and gets HTTP 409.
GET  /stats      counters since the last reset, plus each request's
                 service time in microseconds, in arrival order.
POST /reset      zero the counters.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MARKERS = ("<bos>", "<nodeC>", "<edge>", "<nodeP>", "<type>", "<subq>", "<eos>")


def blocks(text: str) -> dict[str, str]:
    """Marker -> the text between it and the next marker."""
    out: dict[str, str] = {}
    current, words = None, []
    for tok in text.split(" "):
        if tok in MARKERS:
            if current is not None:
                out[current] = " ".join(words)
            current, words = tok, []
        else:
            words.append(tok)
    return out


def reply(parts: dict[str, str]) -> str:
    child, edge, parent = parts["<nodeC>"], parts["<edge>"], parts["<nodeP>"]
    previous = parts.get("<subq>")
    if previous is None:
        return f"What {edge} {child}?"
    if parts.get("<type>") == "Bridge" and parent in previous:
        return previous.replace(parent, f"the one that {edge} {child}", 1)
    return previous.rstrip("?").rstrip() + f" and also {edge} {child}?"


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.returned: set[str] = set()
        self.reset()

    def reset(self):
        self.requests = 0
        self.connections = 0
        self.violations = 0
        self.bad_requests = 0
        self.service_us: list[int] = []

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "violations": self.violations,
            "bad_requests": self.bad_requests,
            "service_us": self.service_us,
        }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counted = False

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)

    def do_GET(self):
        stats = self.server.stats
        with stats.lock:
            doc = stats.to_json() if self.path == "/stats" else None
        self._send(200 if doc else 404, doc or {"error": "not found"})

    def do_POST(self):
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        stats = self.server.stats
        if self.path == "/reset":
            with stats.lock:
                stats.reset()
            self._send(200, {})
            return
        if self.path != "/generate":
            self._send(404, {"error": "not found"})
            return
        try:
            parts = blocks(json.loads(body)["text"])
            question = reply(parts)
        except (ValueError, KeyError, TypeError):
            with stats.lock:
                stats.bad_requests += 1
            self._send(400, {"error": "bad request"})
            return
        with stats.lock:
            violation = "<subq>" in parts and parts["<subq>"] not in stats.returned
            if violation:
                stats.violations += 1
            else:
                stats.returned.add(question)
        if violation:
            self._send(409, {"error": "<subq> is not a question this service returned"})
        else:
            self._send(200, {"question": question})
        with stats.lock:
            stats.requests += 1
            if not self.counted:
                self.counted = True
                stats.connections += 1
            stats.service_us.append(round((time.perf_counter() - start) * 1e6))

    def log_message(self, *args):
        pass


def _shutdown_on_eof(server) -> None:
    sys.stdin.read()
    server.shutdown()


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.stats = Stats()
    # The parent holds this process's stdin open; if the parent dies
    # without stopping the stub, EOF on stdin stops it instead.
    threading.Thread(target=_shutdown_on_eof, args=(server,), daemon=True).start()
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
