"""JSON-over-HTTP clients for pluggable neural services.

All services speak single-item POST, no batching:
    generator:   {"text", "segments", "top_p", "max_tokens"} -> {"question"}
    classifier:  {"question"} -> {"label"}
    decomposer:  {"question"} -> {"subq1", "subq2"}
    single-hop QA: {"question", "context"} -> {"answer"}
Requests are idempotent; failed calls retry up to the configured count before
raising BackendError. Each attempt is one standard-library urlopen call on its
own connection, so the clients hold no shared state and are safe to call from
worker threads.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from .errors import BackendError
from .geninput import GeneratorInput
from .pipeline import StepInfo


def post_json(
    url: str,
    payload: dict,
    timeout: float = 10.0,
    retries: int = 2,
    backoff: float = 0.1,
) -> dict:
    """POST payload as JSON; returns the decoded object or raises BackendError."""
    data = json.dumps(payload).encode()
    last_error = None
    for attempt in range(retries + 1):
        try:
            req = urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}, method="POST"
            )
            # urlopen would also read file: and ftp: URLs; services are HTTP only.
            if req.type not in ("http", "https"):
                raise BackendError(f"{url}: not an http(s) URL")
            # urlopen raises HTTPError for any status outside 200-299.
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                body = json.loads(resp.read())
            if not isinstance(body, dict):
                raise BackendError(f"{url} returned non-object JSON")
            return body
        except BackendError as exc:
            last_error = exc
        except urllib.error.HTTPError as exc:
            exc.close()
            last_error = BackendError(f"{url} returned HTTP {exc.code}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last_error = BackendError(f"{url}: {exc}")
        if attempt < retries:
            time.sleep(backoff * (attempt + 1))
    raise last_error


class RemoteGeneratorBackend:
    """Question generator served over HTTP."""

    name = "remote"

    def __init__(self, url: str, top_p: float = 0.9, max_tokens: int = 64,
                 timeout: float = 10.0, retries: int = 2):
        self.url = url
        self.top_p = top_p
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.retries = retries

    def _call(self, gi: GeneratorInput, step: int) -> str:
        payload = {
            "text": gi.text,
            "segments": [s.value for s in gi.segments],
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
        }
        try:
            body = post_json(self.url, payload, self.timeout, self.retries)
        except BackendError as exc:
            exc.step = step
            raise
        question = body.get("question")
        if not isinstance(question, str) or not question.strip():
            raise BackendError(f"{self.url} returned no question text", step=step)
        return question.strip()

    def initial(self, gi: GeneratorInput, info: StepInfo) -> str:
        return self._call(gi, info.step)

    def rewrite(self, gi: GeneratorInput, info: StepInfo) -> str:
        return self._call(gi, info.step)


class RemoteTypeClassifier:
    kind = "remote"

    def __init__(self, url: str, timeout: float = 10.0, retries: int = 2):
        self.url = url
        self.timeout = timeout
        self.retries = retries

    def classify(self, question: str) -> str:
        body = post_json(self.url, {"question": question}, self.timeout, self.retries)
        label = body.get("label")
        if not isinstance(label, str) or not label:
            raise BackendError(f"{self.url} returned no label")
        return label


class RemoteDecomposer:
    kind = "remote"

    def __init__(self, url: str, timeout: float = 10.0, retries: int = 2):
        self.url = url
        self.timeout = timeout
        self.retries = retries

    def decompose(self, question: str, qtype: str | None = None) -> tuple[str, str]:
        # qtype is accepted for interface parity with the rule fallback; the
        # remote service classifies on its own and only sees the question.
        body = post_json(self.url, {"question": question}, self.timeout, self.retries)
        subq1, subq2 = body.get("subq1"), body.get("subq2")
        if not (isinstance(subq1, str) and subq1 and isinstance(subq2, str) and subq2):
            raise BackendError(f"{self.url} returned incomplete sub-questions")
        return subq1, subq2


class RemoteQa:
    kind = "remote"

    def __init__(self, url: str, timeout: float = 10.0, retries: int = 2):
        self.url = url
        self.timeout = timeout
        self.retries = retries

    def answer(self, question: str, context: str) -> str:
        body = post_json(self.url, {"question": question, "context": context}, self.timeout, self.retries)
        answer = body.get("answer")
        if not isinstance(answer, str):
            raise BackendError(f"{self.url} returned no answer field")
        return answer
