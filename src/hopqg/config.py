"""Run configuration: one JSON document plus environment overrides.

Endpoints may be set in the file or overridden per-run through
HOPQG_GENERATOR_URL, HOPQG_CLASSIFIER_URL, HOPQG_DECOMPOSER_URL and
HOPQG_QA_URL, which keeps CI scripts free of config-file templating.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError, load_json

_ENDPOINT_ENV = {
    "generator": "HOPQG_GENERATOR_URL",
    "classifier": "HOPQG_CLASSIFIER_URL",
    "decomposer": "HOPQG_DECOMPOSER_URL",
    "qa": "HOPQG_QA_URL",
}


@dataclass(frozen=True)
class Endpoints:
    generator: str | None = None
    classifier: str | None = None
    decomposer: str | None = None
    qa: str | None = None


@dataclass(frozen=True)
class PipelineConfig:
    concurrency: int = 8
    timeout: float = 10.0
    retries: int = 2
    top_p: float = 0.9
    max_tokens: int = 64
    endpoints: Endpoints = field(default_factory=Endpoints)
    category_overrides: dict[str, str] = field(default_factory=dict)
    min_words: int = 6
    max_words: int = 30
    oversample_ratio: float = 4.0

    def validate(self) -> None:
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
        if self.oversample_ratio < 1:
            raise ConfigError(
                f"oversample_ratio must be >= 1, got {self.oversample_ratio}"
            )

    def to_json(self) -> dict:
        return asdict(self)


def _apply_env(config: PipelineConfig, env: dict[str, str]) -> PipelineConfig:
    updates = {}
    for role, var in _ENDPOINT_ENV.items():
        value = env.get(var)
        if value:
            updates[role] = value
    if not updates:
        return config
    return replace(config, endpoints=replace(config.endpoints, **updates))


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
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}: config is not valid JSON: "
                f"line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")

    overrides_file = doc.pop("category_overrides_file", None)
    endpoints_doc = doc.pop("endpoints", {})
    if not isinstance(endpoints_doc, dict):
        raise ConfigError("endpoints must be a JSON object")
    unknown_roles = set(endpoints_doc) - set(_ENDPOINT_ENV)
    if unknown_roles:
        raise ConfigError(f"unknown endpoint roles: {sorted(unknown_roles)}")

    known = {f.name for f in fields(PipelineConfig)} - {"endpoints"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    try:
        config = PipelineConfig(endpoints=Endpoints(**endpoints_doc), **doc)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    if overrides_file is not None:
        if not os.path.exists(overrides_file):
            raise ConfigError(f"category_overrides_file not found: {overrides_file}")
        extra = load_json(overrides_file, ConfigError)
        if not isinstance(extra, dict):
            raise ConfigError("category_overrides_file must hold a JSON object")
        merged = dict(config.category_overrides)
        merged.update(extra)
        config = replace(config, category_overrides=merged)

    config = _apply_env(config, env)
    config.validate()
    return config
