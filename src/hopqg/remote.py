"""JSON-over-HTTP clients for pluggable neural services.

All services speak single-item POST, no batching:
    generator:   {"text", "segments", "top_p", "max_tokens"} -> {"question"}
    classifier:  {"question"} -> {"label"}
    decomposer:  {"question"} -> {"subq1", "subq2"}
    single-hop QA: {"question", "context"} -> {"answer"}
Requests are idempotent; a failed attempt is retried up to the configured
count, with linear backoff, before BackendError is raised.

Each client posts through one JsonClient, which keeps one keep-alive
HTTP/1.1 connection per calling thread, so a worker pays for a TCP
handshake once rather than on every hop. It honours ``http_proxy``,
``https_proxy`` and ``no_proxy`` as urllib does, counts its requests,
retries, failures and connections, and ``close()`` shuts every connection
it opened, on any thread.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import threading
import time
import urllib.parse
import urllib.request

from .errors import BackendError

# What a JsonClient counts; the CLI writes each as remote.<role>.<counter>.
# A request is one attempt: a call makes 1 + retries of them. A call whose
# last attempt fails is a failure.
COUNTERS = ("requests", "retries", "failures", "connections")

# How a kept-alive connection fails when the server closed it while idle: no
# response byte came back, so the request is sent again on a new connection
# without charging a retry (RFC 9112 section 9.3). RemoteDisconnected is a
# ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError)

# Linux only. Acknowledging the reply at once keeps a server that writes its
# head and body separately, with Nagle's algorithm on, from waiting for our
# delayed ACK before it sends the body (RFC 896, RFC 1122).
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def _route(url: str) -> tuple[type, str, str, str | None, dict]:
    """(connection class, host to connect to, request target, tunnel host,
    proxy headers) for url, through the environment's proxy as urlopen
    would go."""
    try:
        req = urllib.request.Request(url)
    except ValueError as exc:
        raise BackendError(f"{url}: {exc}") from exc
    # urlopen would also read file: and ftp: URLs; services are HTTP only.
    if req.type not in ("http", "https"):
        raise BackendError(f"{url}: not an http(s) URL")
    if not req.host:
        raise BackendError(f"{url}: no host given")
    scheme, host, target, tunnel, headers = req.type, req.host, req.selector, None, {}
    proxy = urllib.request.getproxies().get(req.type)
    if proxy and not urllib.request.proxy_bypass(req.host):
        # A proxy is a URL or a bare host:port, maybe with user:password@.
        proxy_scheme, sep, rest = proxy.partition("://")
        if not sep:
            proxy_scheme, rest = req.type, proxy
        userinfo, _, hostport = rest.split("/", 1)[0].rpartition("@")
        user, _, password = userinfo.partition(":")
        if user and password:
            creds = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
            headers["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode("ascii")
        host = urllib.parse.unquote(hostport)
        if req.type == "https":
            tunnel = req.host
        else:
            scheme, target = proxy_scheme, req.full_url
    connection = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    return connection, host, target, tunnel, headers


class JsonClient:
    """JSON POSTs to one URL, on one keep-alive connection per calling thread.

    Safe to share between threads. Call ``close()`` once no call is in
    flight: it shuts every connection the client opened, including those of
    threads that have since exited. A client can be used again after it.
    """

    def __init__(self, url: str, timeout: float = 10.0, retries: int = 2, backoff: float = 0.1):
        self.url = url
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._open: set[http.client.HTTPConnection] = set()
        self._local = threading.local()
        # A URL that can never be posted to fails each call, not the set-up.
        self._refusal: BackendError | None = None
        try:
            self._connection, self._host, self._target, self._tunnel, proxy_headers = _route(url)
        except BackendError as exc:
            self._refusal = exc
            return
        # Through a tunnel the proxy's headers go to CONNECT only.
        self._tunnel_headers = proxy_headers
        self._headers = {"Content-Type": "application/json"}
        if self._tunnel is None:
            self._headers.update(proxy_headers)

    def post(self, payload: dict) -> dict:
        """POST payload as JSON; returns the decoded object or raises BackendError."""
        if self._refusal is not None:
            self._count("failures")
            raise self._refusal
        # http.client writes the head, then this body, at once: it turns on
        # TCP_NODELAY for every connection, so Nagle's algorithm never holds
        # the body back waiting for the server to acknowledge the head.
        data = json.dumps(payload).encode()
        last_error = None
        for attempt in range(self.retries + 1):
            self._count("requests")
            if attempt:
                self._count("retries")
            try:
                status, raw = self._exchange(data)
                if not 200 <= status < 300:
                    raise BackendError(f"{self.url} returned HTTP {status}")
                body = json.loads(raw)
                if not isinstance(body, dict):
                    raise BackendError(f"{self.url} returned non-object JSON")
                return body
            except BackendError as exc:
                last_error = exc
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = BackendError(f"{self.url}: {exc}")
            if attempt < self.retries:
                time.sleep(self.backoff * (attempt + 1))
        self._count("failures")
        raise last_error

    def close(self) -> None:
        with self._lock:
            conns, self._open = self._open, set()
        for conn in conns:
            conn.close()

    def _count(self, counter: str) -> None:
        with self._lock:
            self.counts[counter] += 1

    def _exchange(self, data: bytes) -> tuple[int, bytes]:
        """One request on this thread's connection: (status, body)."""
        conn = getattr(self._local, "conn", None)
        # close() may have shut it from another thread.
        reused = conn is not None and conn.sock is not None
        try:
            if not reused:
                conn = self._connect()
            try:
                resp = self._send(conn, data)
            except _STALE:
                if not reused:
                    raise
                self._drop(conn)
                conn = self._connect()
                resp = self._send(conn, data)
            with resp:
                body = resp.read()
            # HTTP/1.0 or "Connection: close": the server ends it.
            if resp.will_close:
                self._drop(conn)
            return resp.status, body
        except BaseException:
            if conn is not None:
                self._drop(conn)
            raise

    def _connect(self) -> http.client.HTTPConnection:
        conn = self._connection(self._host, timeout=self.timeout)
        if self._tunnel is not None:
            conn.set_tunnel(self._tunnel, headers=self._tunnel_headers)
        try:
            conn.connect()
        except BaseException:
            conn.close()  # a failed tunnel or TLS handshake leaves a socket
            raise
        with self._lock:
            self._open.add(conn)
            self.counts["connections"] += 1
        self._local.conn = conn
        return conn

    def _send(self, conn: http.client.HTTPConnection, data: bytes) -> http.client.HTTPResponse:
        conn.request("POST", self._target, body=data, headers=self._headers)
        if _QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return conn.getresponse()

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        with self._lock:
            self._open.discard(conn)
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None


class RemoteService:
    """A service reached through one JsonClient."""

    def __init__(self, url: str, timeout: float = 10.0, retries: int = 2):
        self.client = JsonClient(url, timeout, retries)


class RemoteGeneratorBackend(RemoteService):
    """Question generator served over HTTP."""

    name = "remote"

    def __init__(self, url: str, top_p: float = 0.9, max_tokens: int = 64,
                 timeout: float = 10.0, retries: int = 2):
        super().__init__(url, timeout, retries)
        self.top_p = top_p
        self.max_tokens = max_tokens

    def _call(self, gi: GeneratorInput) -> str:
        payload = {
            "text": gi.text,
            "segments": [s.value for s in gi.segments],
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
        }
        body = self.client.post(payload)
        question = body.get("question")
        if not isinstance(question, str) or not question.strip():
            raise BackendError(f"{self.client.url} returned no question text")
        return question.strip()

    def initial(self, gi: GeneratorInput, info: StepInfo) -> str:
        return self._call(gi)

    def rewrite(self, gi: GeneratorInput, info: StepInfo) -> str:
        return self._call(gi)


class RemoteTypeClassifier(RemoteService):
    kind = "remote"

    def classify(self, question: str) -> str:
        body = self.client.post({"question": question})
        label = body.get("label")
        if not isinstance(label, str) or not label:
            raise BackendError(f"{self.client.url} returned no label")
        return label


class RemoteDecomposer(RemoteService):
    kind = "remote"

    def decompose(self, question: str, qtype: str | None = None) -> tuple[str, str]:
        # qtype is accepted for interface parity with the rule fallback; the
        # remote service classifies on its own and only sees the question.
        body = self.client.post({"question": question})
        subq1, subq2 = body.get("subq1"), body.get("subq2")
        if not (isinstance(subq1, str) and subq1 and isinstance(subq2, str) and subq2):
            raise BackendError(f"{self.client.url} returned incomplete sub-questions")
        return subq1, subq2


class RemoteQa(RemoteService):
    kind = "remote"

    def answer(self, question: str, context: str) -> str:
        body = self.client.post({"question": question, "context": context})
        answer = body.get("answer")
        if not isinstance(answer, str):
            raise BackendError(f"{self.client.url} returned no answer field")
        return answer
