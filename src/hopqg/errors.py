"""Exception types shared across the package, the one decoder of input bytes
and writer of output files, the JSON records reader and JSON loading that name
the path in errors, the one rule for a JSON integer, the one job runner with
the one record of a job that failed, and the one writer of warning lines."""

from __future__ import annotations

import hashlib
import json
import re
import sys
from typing import Callable, NamedTuple


class HopqgError(Exception):
    """Base class for all package errors."""


class AnnotationError(HopqgError):
    """Malformed annotated context or input record (bad spans, schema violations)."""


class NodeNotFoundError(HopqgError):
    """No graph node matches the queried text, even by token overlap."""


class PlanningError(HopqgError):
    """Chain planning cannot proceed (e.g. no eligible answer node)."""


class InsufficientContextError(PlanningError):
    """The graph component is too small for the requested difficulty."""

    def __init__(self, message: str, max_d: int):
        super().__init__(message)
        self.max_d = max_d


class AssemblyError(HopqgError):
    """Generator input cannot be assembled (marker collision, missing field)."""


class RewriteError(HopqgError):
    """A template rewrite is inapplicable to the previous question."""


class BackendError(HopqgError):
    """A backend call failed (network, bad status, malformed response)."""


class GenerationError(HopqgError):
    """Stepwise generation aborted; carries the questions produced so far."""

    def __init__(self, message: str, partial_questions: list[str], failed_step: int):
        super().__init__(message)
        self.partial_questions = partial_questions
        self.failed_step = failed_step


class MetricError(HopqgError):
    """Metric preconditions violated (empty corpus, too few items)."""


class ConfigError(HopqgError):
    """Invalid pipeline configuration."""


def invalid_json(path: str, exc: json.JSONDecodeError, line: int | None = None) -> str:
    """Error text naming `path:line`; pass `line` when one line was decoded alone."""
    line = exc.lineno if line is None else line
    return f"{path}:{line}: invalid JSON: {exc.msg} (line {line}, column {exc.colno})"


def is_integral(value) -> bool:
    """Whether a decoded JSON value is an integral number: 2 or 2.0, never
    1.7, true or "3"."""
    return type(value) in (int, float) and value % 1 == 0


_JSON_KINDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def json_kind(value) -> str:
    """What an error calls a decoded JSON value's type: "an array", "null", ..."""
    return _JSON_KINDS[type(value)]


def decode_text(path: str, data: bytes, error: type[HopqgError] = AnnotationError) -> str:
    """The text of the file path's bytes, without a leading byte-order mark
    and with \\r\\n and \\r read as \\n as text mode reads them; bytes that
    are not UTF-8 raise `error` naming the path."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def load_json(path: str):
    """Decode a whole JSON config file; a syntax error raises ConfigError naming `path:line`."""
    with open(path, "rb") as fh:
        text = decode_text(path, fh.read(), ConfigError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(invalid_json(path, exc)) from exc


_WS = re.compile(r"[ \t\n\r]*")  # the whitespace JSON allows around a value


def read_records(path: str, text: str, noun: str, parse: Callable[[dict], object]) -> list:
    """parse of each record of a JSON records file, from its text.

    The file holds one JSON value, an array of records, or JSONL (one value
    per line), and an empty file holds none. A record is named ``path`` when
    it is the file's one value, ``path: <noun> k`` when it is item k (from
    0) of the array, and ``path:line`` when it is a JSONL line. A syntax
    error raises AnnotationError naming its ``path:line``, and a record
    that is not an object (all are checked before parse runs) or an
    AnnotationError of parse, one prefixed with the record's name.
    """
    start = _WS.match(text).end()
    if start == len(text):
        return []
    # json.loads(text) is this first decode plus a check that only
    # whitespace follows; decoding by hand keeps the first value of JSONL.
    try:
        value, end = json.JSONDecoder().raw_decode(text, start)
    except json.JSONDecodeError as exc:
        raise AnnotationError(invalid_json(path, exc)) from exc
    extra = _WS.match(text, end).end()
    if extra == len(text) and type(value) is list:
        records = [(f"{path}: {noun} {k}", record) for k, record in enumerate(value)]
    elif extra == len(text):
        records = [(path, value)]
    elif text[start] == "[":  # more after an array: the error json.loads gives
        raise AnnotationError(invalid_json(path, json.JSONDecodeError("Extra data", text, extra)))
    else:
        # A whole first value followed by more is JSONL (one value per line).
        # The first value is kept when it is a line of its own; when it is
        # not, decoding its line again fails there.
        line_end = text.find("\n", end)
        own_line = (
            line_end >= 0 and text.find("\n", start, end) < 0 and _WS.match(text, end, line_end).end() == line_end
        )
        first = text.count("\n", 0, start) + 1 if own_line else 0  # its line number
        records = [(f"{path}:{first}", value)] if own_line else []
        for n, line in enumerate(text.split("\n")[first:], first + 1):
            line = line.strip()
            if line:
                try:
                    records.append((f"{path}:{n}", json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise AnnotationError(invalid_json(path, exc, n)) from exc
    for where, record in records:
        if type(record) is not dict:
            raise AnnotationError(f"{where}: record must be an object, got {json_kind(record)}")
    parsed = []
    for where, record in records:
        try:
            parsed.append(parse(record))
        except AnnotationError as exc:
            raise AnnotationError(f"{where}: {exc}") from exc
    return parsed


def write_text(path: str, text: str) -> str:
    """Writes text to path as UTF-8 in one write; returns the bytes' sha256."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_jsonl(records: list[dict], path: str) -> str:
    """Writes records to path as JSONL, non-ASCII kept as is; returns the sha256."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    return write_text(path, "".join([encode(record) + "\n" for record in records]))


class Failure(NamedTuple):
    """What a per-item job gives in place of its result when the item fails:
    the message its warning line names and, for a skip, the reason. It holds
    no exception, whose traceback would keep the run's frames in a
    reference cycle; callers tell it apart with ``type(x) is Failure``."""

    message: str
    reason: str | None = None


def map_jobs(fn, items: list, workers: int) -> list:
    """fn of each item, in input order, on `workers` threads, which bound parallel
    remote calls; on the calling thread at 1 (no remote role) or below two items."""
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def warn(name: str, message: str) -> None:
    """Writes ``WARNING <name>: <message>`` as a line to stderr. A stderr that
    cannot be written (closed, None, a broken pipe) loses the line, not the run."""
    try:
        sys.stderr.write(f"WARNING {name}: {message}\n")
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        pass
