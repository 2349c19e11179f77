"""Run configuration: one JSON document plus environment overrides.

Endpoints may be set in the file or overridden per-run through
HOPQG_GENERATOR_URL, HOPQG_CLASSIFIER_URL, HOPQG_DECOMPOSER_URL and
HOPQG_QA_URL, which keeps CI scripts free of config-file templating.
"""

from __future__ import annotations

import math
import os
import re
import urllib.parse
from typing import NamedTuple

from .errors import ConfigError, load_json

# The answer categories a question's wh-word follows (the keys of
# template.WH_BY_CATEGORY): the values a category override may take.
CATEGORIES = ("person", "location", "other")

# An http(s) URL with a host: the scheme, '//' and at least one character
# before the path, query or fragment, as the remote client reads a URL.
_SERVICE_URL = re.compile(r"https?://[^/?#]", re.IGNORECASE)
# What http.client refuses in a request target: the controls, space and DEL.
_UNSAFE_URL_CHAR = re.compile(r"[\x00-\x20\x7f]")


def url_fault(url) -> str | None:
    """Why a service URL can never be posted to, or None, for the config
    check and the remote client alike: it is no http(s) URL with a host, or
    holds a space or control character, user credentials (the client would
    take them for part of the host name) or a port not a number in 1-65535."""
    if not (isinstance(url, str) and _SERVICE_URL.match(url)):
        return "must be an http(s) URL with a host"
    if _UNSAFE_URL_CHAR.search(url):
        return "must not contain a space or control character"
    parts = urllib.parse.urlsplit(url)
    if "@" in parts.netloc:
        return "must not hold user credentials"
    try:
        port = parts.port
    except ValueError:
        port = 0
    if port == 0:
        return "must be a valid URL with any port in 1-65535"
    return None


def shown_url(url: str) -> str:
    """url as a message shows it: any user:password@ as ***@."""
    return re.sub(r"(?<=://)[^/?#]*@", "***@", url, count=1)


class Endpoints(NamedTuple):
    generator: str | None = None
    classifier: str | None = None
    decomposer: str | None = None
    qa: str | None = None


# Each service role and the environment variable that overrides its endpoint.
ENDPOINT_ENV = {name: f"HOPQG_{name.upper()}_URL" for name in Endpoints._fields}


class PipelineConfig(NamedTuple):
    """The settings of a run. The shared default ``category_overrides`` is
    never changed in place: an update makes a new dict."""

    concurrency: int = 8
    timeout: float = 10.0
    retries: int = 2
    top_p: float = 0.9
    max_tokens: int = 64
    endpoints: Endpoints = Endpoints()
    category_overrides: dict[str, str] = {}
    min_words: int = 6
    max_words: int = 30
    oversample_ratio: float = 4.0

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            # A field's kind is its default's, as annotations are strings
            # here; isinstance counts a bool as an int.
            kinds = {int: int, float: (int, float)}.get(type(self._field_defaults[name]))
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                kind = "an integer" if kinds is int else "a number"
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if not 0 < self.top_p <= 1:
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.max_tokens < 1:
            raise ConfigError(f"max_tokens must be >= 1, got {self.max_tokens}")
        if self.min_words < 0 or self.max_words < self.min_words:
            raise ConfigError(
                f"filter bounds must satisfy 0 <= min <= max, got "
                f"({self.min_words}, {self.max_words})"
            )
        # Past 1000 the generated questions are under 0.1% of the mix, and a
        # huge ratio would copy the originals until memory runs out.
        if not 1 <= self.oversample_ratio <= 1000:
            raise ConfigError(f"oversample_ratio must be in [1, 1000], got {self.oversample_ratio}")
        _check_categories(self.category_overrides)
        for role, var in ENDPOINT_ENV.items():
            url = getattr(self.endpoints, role)
            fault = None if url is None else url_fault(url)
            if fault is not None:
                shown = shown_url(url) if isinstance(url, str) else url
                raise ConfigError(f"endpoints.{role} (or {var}) {fault}, got {shown!r}")

    def to_json(self) -> dict:
        overrides = dict(self.category_overrides)
        return {**self._asdict(), "endpoints": self.endpoints._asdict(), "category_overrides": overrides}


def _check_categories(overrides, source: str = "") -> None:
    """overrides must map surfaces to CATEGORIES; a violation names the key,
    after the file it came from, if any."""
    where = f"{source}: category_overrides" if source else "category_overrides"
    if not isinstance(overrides, dict):
        raise ConfigError(f"{where} must be a JSON object, got {overrides!r}")
    for surface, category in overrides.items():
        if category not in CATEGORIES:
            raise ConfigError(f"{where}[{surface!r}] must be one of {', '.join(CATEGORIES)}, got {category!r}")


def _apply_env(config: PipelineConfig, env: dict[str, str]) -> PipelineConfig:
    updates = {}
    for role, var in ENDPOINT_ENV.items():
        value = env.get(var)
        if value:
            updates[role] = value
    if not updates:
        return config
    return config._replace(endpoints=config.endpoints._replace(**updates))


def load_config(path: str | None = None, env: dict[str, str] | None = None) -> PipelineConfig:
    """Build the run config from an optional JSON file plus the environment.

    Unknown keys are rejected so a typo cannot silently fall back to a
    default. A config may name a category-overrides JSON file via
    "category_overrides_file"; the file must exist when the config loads.
    """
    env = os.environ if env is None else env
    doc: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        doc = load_json(path)
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")

    overrides_file = doc.pop("category_overrides_file", None)
    endpoints_doc = doc.pop("endpoints", {})
    if not isinstance(endpoints_doc, dict):
        raise ConfigError("endpoints must be a JSON object")
    unknown_roles = set(endpoints_doc) - set(ENDPOINT_ENV)
    if unknown_roles:
        raise ConfigError(f"unknown endpoint roles: {sorted(unknown_roles)}")

    known = set(PipelineConfig._fields) - {"endpoints"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    config = PipelineConfig(endpoints=Endpoints(**endpoints_doc), **doc)

    if overrides_file is not None:
        if not os.path.exists(overrides_file):
            raise ConfigError(f"category_overrides_file not found: {overrides_file}")
        extra = load_json(overrides_file)
        _check_categories(config.category_overrides)
        _check_categories(extra, overrides_file)
        config = config._replace(category_overrides={**config.category_overrides, **extra})

    config = _apply_env(config, env)
    config.validate()
    return config
