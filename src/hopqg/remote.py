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

http.client opens each connection (TCP_NODELAY, a proxy's CONNECT tunnel,
TLS from one context per client). It also writes the request head, once
per client, when the client is made; each call adds only its
Content-Length and body, and the request goes out in one write. The
client reads the replies itself (RFC 9112), through one buffered reader
per connection. It skips 1xx interim replies, and takes a body as framed by
Content-Length, by chunks (extensions and trailers are read past) or by
the end of the connection; 204 and 304 replies have none. After HTTP/1.0,
``Connection: close`` or a body that runs to the end, the connection is
dropped. As in http.client, a line may hold 65,536 bytes and a head 100
header lines. Past those limits, and on a bad status line, Content-Length
or chunk size, or a reply cut short, the attempt fails.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import socket
import threading
import time
import urllib.parse
import urllib.request

from .config import shown_url, url_fault
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

# http.client's limits on a reply: bytes per line, header lines per head.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# The headers that frame a reply, as _read_fields keeps them.
_FRAMING = frozenset((b"content-length", b"transfer-encoding", b"connection"))
# The body length _read_head gives a chunked reply; None is "to the end of
# the connection".
_CHUNKED = -1
_HEX_DIGITS = b"0123456789abcdefABCDEF"
# A body is read at most this many bytes at a time, so a huge length that a
# reply claims costs only the bytes that arrive.
_READ_PIECE = 1 << 20


def _route(url: str) -> tuple[type, str, str, str | None, dict]:
    """(connection class, host to connect to, request target, tunnel host,
    proxy headers) for url, through the environment's proxy as urlopen
    would go."""
    fault = url_fault(url)
    if fault is not None:
        raise BackendError(f"{shown_url(url)!r} {fault}")
    # A host that is not ASCII goes out in its IDNA form, in Host and in the
    # request line through an http proxy; a host with no such form is refused.
    netloc = urllib.parse.urlsplit(url).netloc
    try:
        ascii_netloc = netloc if netloc.isascii() else netloc.encode("idna").decode("ascii")
    except UnicodeError as exc:
        raise BackendError(f"{url}: host has no idna form ({exc})") from exc
    req = urllib.request.Request(url)
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
            # http.client writes the request line in ASCII only, so the
            # absolute target carries the host IDNA-encoded, as Host does.
            scheme, target = proxy_scheme, req.full_url.replace(netloc, ascii_netloc, 1)
    connection = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    return connection, host, target or "/", tunnel, headers


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("reply line")
    return line


def _read_fields(reader) -> list[tuple[bytes, bytes]]:
    """Reads header or trailer lines through the blank line that ends them;
    returns the framing fields among them as (lowercase name, value)."""
    found = []
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return found
        if not line:
            raise http.client.HTTPException("reply cut off in its head")
        name, _, value = line.partition(b":")
        name = name.lower()
        if name in _FRAMING:
            found.append((name, value.strip()))
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_head(reader) -> tuple[int, int | None, bool]:
    """Reads the status line and headers of the next final reply: (status,
    body length, whether the connection stays open after the body). The
    length is _CHUNKED for a chunked body and None for one that runs to the
    end of the connection."""
    while True:
        line = _read_line(reader)
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or len(parts[1]) != 3 or not parts[1].isdigit():
            raise http.client.BadStatusLine(line.decode("latin-1").strip())
        status = int(parts[1])
        fields = _read_fields(reader)
        if not 100 <= status < 200:
            break
    length = encoding = None
    close = parts[0] == b"HTTP/1.0"
    for name, value in fields:
        if name == b"content-length":
            # Framing no reader could trust (RFC 9112 section 6.3).
            if not value.isdigit() or length not in (None, int(value)):
                raise http.client.HTTPException(f"bad Content-Length {value.decode('latin-1')!r}")
            length = int(value)
        elif name == b"transfer-encoding":
            encoding = value.lower()
        elif b"close" in value.lower():
            close = True
    if status in (204, 304):
        length = 0
    elif encoding is not None:
        length = _CHUNKED if encoding == b"chunked" else None
    return status, length, not close and length is not None


def _read_exact(reader, n: int) -> bytes:
    pieces = []
    while n:
        piece = reader.read(min(n, _READ_PIECE))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), n)
        pieces.append(piece)
        n -= len(piece)
    return b"".join(pieces)


def _read_body(reader, length: int | None) -> bytes:
    if length is None:
        return reader.read()
    if length != _CHUNKED:
        return _read_exact(reader, length)
    chunks = []
    while True:
        size = _read_line(reader).split(b";", 1)[0].strip()
        if not size or size.strip(_HEX_DIGITS):
            raise http.client.HTTPException(f"bad chunk size {size.decode('latin-1')!r}")
        size = int(size, 16)
        if not size:
            break
        chunks.append(_read_exact(reader, size))
        if _read_line(reader) not in (b"\r\n", b"\n"):
            raise http.client.HTTPException("chunk data not followed by CRLF")
    _read_fields(reader)  # the trailer
    return b"".join(chunks)


class _Connection:
    """An open socket and the one buffered reader its replies are read
    through. Closing it closes both: the reader alone keeps the socket's
    descriptor open."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None


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
        self._open: set[_Connection] = set()
        self._local = threading.local()
        # A URL that can never be posted to fails each call, not the set-up.
        self._refusal: BackendError | None = None
        try:
            self._connection, self._host, target, self._tunnel, proxy_headers = _route(url)
        except BackendError as exc:
            self._refusal = exc
            return
        # Through a tunnel the proxy's headers go to CONNECT only.
        self._tunnel_headers = proxy_headers
        headers = {"Content-Type": "application/json"}
        if self._tunnel is None:
            headers.update(proxy_headers)
        # http.client writes the head once, into a list in place of sending
        # it; each call fills in its Content-Length.
        written: list[bytes] = []
        try:
            opener = self._opener()
            opener.send = written.append
            opener.request("POST", target, b"", headers)
        except (ValueError, http.client.HTTPException) as exc:  # a target, host or header it refuses
            self._refusal = BackendError(f"{url}: {exc}")
            return
        start, _, end = b"".join(written).partition(b"\r\nContent-Length: 0\r\n")
        self._head = start + b"\r\nContent-Length: ", b"\r\n" + end
        if self._connection is http.client.HTTPSConnection:
            # Every connection shares the default TLS context http.client made here.
            self._connection = functools.partial(self._connection, context=opener._context)

    def post(self, payload: dict) -> dict:
        """POST payload as JSON; returns the decoded object or raises BackendError."""
        if self._refusal is not None:
            self._count("failures")
            raise self._refusal
        # Head and body go out in one write on a TCP_NODELAY socket (set by
        # http.client), so the server gets the whole request at once.
        data = json.dumps(payload).encode()
        request = b"%s%d%s%s" % (self._head[0], len(data), self._head[1], data)
        last_error = None
        for attempt in range(self.retries + 1):
            self._count("requests")
            if attempt:
                self._count("retries")
            try:
                status, raw = self._exchange(request)
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

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """One request on this thread's connection: (status, body)."""
        conn = getattr(self._local, "conn", None)
        # close() may have shut it from another thread.
        reused = conn is not None and conn.sock is not None
        try:
            if not reused:
                conn = self._connect()
            try:
                status, length, keep = self._send(conn, request)
            except _STALE:
                if not reused:
                    raise
                self._drop(conn)
                conn = self._connect()
                status, length, keep = self._send(conn, request)
            body = _read_body(conn.reader, length)
            if not keep:
                self._drop(conn)
            return status, body
        except BaseException:
            if conn is not None:
                self._drop(conn)
            raise

    def _opener(self) -> http.client.HTTPConnection:
        """An unopened http.client connection to the server or proxy."""
        opener = self._connection(self._host, timeout=self.timeout)
        if self._tunnel is not None:
            opener.set_tunnel(self._tunnel, headers=self._tunnel_headers)
        return opener

    def _connect(self) -> _Connection:
        opener = self._opener()
        try:
            opener.connect()
        except BaseException:
            opener.close()  # a failed tunnel or TLS handshake leaves a socket
            raise
        conn = _Connection(opener.sock)
        with self._lock:
            self._open.add(conn)
            self.counts["connections"] += 1
        self._local.conn = conn
        return conn

    def _send(self, conn: _Connection, request: bytes) -> tuple[int, int | None, bool]:
        """Writes request and reads the reply's head: (status, body length,
        keep the connection)."""
        conn.sock.sendall(request)
        if _QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return _read_head(conn.reader)

    def _drop(self, conn: _Connection) -> None:
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
        # json writes each str-valued SegmentLabel as its value.
        text, segments = gi.serialize()
        payload = {
            "text": text,
            "segments": segments,
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
