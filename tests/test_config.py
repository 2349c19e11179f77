"""Config loading, validation, env overrides; manifest digests."""

import hashlib
import json
import sys
import threading

import pytest

import hopqg.cli
from hopqg.config import CATEGORIES, ENDPOINT_ENV, Endpoints, PipelineConfig, load_config
from hopqg.errors import ConfigError
from hopqg.manifest import RunManifest, sha256_file
from hopqg.template import WH_BY_CATEGORY


def test_defaults_are_valid():
    config = load_config(None, env={})
    assert config == PipelineConfig()
    assert config.retries == 2 and config.concurrency == 8
    assert (config.min_words, config.max_words) == (6, 30)
    assert config.top_p == 0.9 and config.oversample_ratio == 4.0


def test_load_config_file_and_env_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "retries": 5,
        "max_tokens": 32,
        "concurrency": 2,
        "endpoints": {"qa": "http://file-host/qa", "generator": "http://file-host/gen"},
    }))
    config = load_config(str(path), env={"HOPQG_QA_URL": "http://env-host/qa"})
    assert config.retries == 5 and config.max_tokens == 32
    # Environment wins over the file, but only for the variables that are set.
    assert config.endpoints.qa == "http://env-host/qa"
    assert config.endpoints.generator == "http://file-host/gen"
    assert config.endpoints.classifier is None


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeed": 1}))
    with pytest.raises(ConfigError, match="seeed"):
        load_config(str(path), env={})
    path.write_text(json.dumps({"endpoints": {"oracle": "http://x"}}))
    with pytest.raises(ConfigError, match="oracle"):
        load_config(str(path), env={})


def test_load_config_rejects_keys_nothing_reads(tmp_path):
    path = tmp_path / "cfg.json"
    for key, value in (("seed", 7), ("d", 3), ("rouge_beta", 1.2), ("meteor_alpha", 0.1),
                       ("meteor_beta", 3.0), ("meteor_gamma", 0.5)):
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            load_config(str(path), env={})


def test_load_config_rejects_bad_values(tmp_path):
    path = tmp_path / "cfg.json"
    for doc in ({"retries": -1}, {"concurrency": 0}, {"oversample_ratio": 0.5},
                {"min_words": 10, "max_words": 4}, {"top_p": 0.0}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(str(path), env={})


def test_load_config_rejects_wrong_types_naming_the_key(tmp_path):
    path = tmp_path / "cfg.json"
    cases = [
        ({"concurrency": "8"}, "concurrency must be an integer, got '8'"),
        ({"retries": 1.5}, "retries must be an integer, got 1.5"),
        ({"max_words": True}, "max_words must be an integer, got True"),
        ({"timeout": True}, "timeout must be a number, got True"),
        ({"top_p": "0.5"}, "top_p must be a number, got '0.5'"),
        ({"timeout": float("nan")}, "timeout must be finite, got nan"),
        ({"oversample_ratio": float("nan")}, "oversample_ratio must be finite, got nan"),
        ({"oversample_ratio": float("inf")}, "oversample_ratio must be finite, got inf"),
        ({"oversample_ratio": 1e300}, "oversample_ratio must be in [1, 1000], got 1e+300"),
        ({"oversample_ratio": 0.5}, "oversample_ratio must be in [1, 1000], got 0.5"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as exc_info:
            load_config(str(path), env={})
        assert str(exc_info.value) == message
    # An int is a number wherever a float belongs.
    path.write_text(json.dumps({"timeout": 3, "oversample_ratio": 2}))
    assert load_config(str(path), env={}).timeout == 3


def test_load_config_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"), env={})
    path = tmp_path / "broken.json"
    path.write_text('{"seed": }')
    with pytest.raises(ConfigError) as exc_info:
        load_config(str(path), env={})
    assert str(exc_info.value) == f"{path}:1: invalid JSON: Expecting value (line 1, column 10)"


def test_category_overrides_file_merges(tmp_path):
    extra = tmp_path / "cats.json"
    extra.write_text(json.dumps({"Tom Cruise": "person"}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "category_overrides": {"Top Gun": "other"},
        "category_overrides_file": str(extra),
    }))
    config = load_config(str(path), env={})
    assert config.category_overrides == {"Top Gun": "other", "Tom Cruise": "person"}

    path.write_text(json.dumps({"category_overrides_file": str(tmp_path / "nope.json")}))
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(path), env={})


@pytest.mark.parametrize(
    "doc, extra, message",
    [
        ({"category_overrides": ["Tom Cruise"]}, None, "category_overrides must be a JSON object, got ['Tom Cruise']"),
        ({"category_overrides": {"Top Gun": "film"}}, None, "category_overrides['Top Gun'] must be one of"),
        ({"category_overrides": ["Tom Cruise"]}, {"Top Gun": "other"}, "category_overrides must be a JSON object"),
        ({"category_overrides": {"Top Gun": "other"}}, {"Tom Cruise": 1}, ": category_overrides['Tom Cruise'] must be"),
        ({}, ["Tom Cruise"], ": category_overrides must be a JSON object, got ['Tom Cruise']"),
    ],
)
def test_category_overrides_must_map_to_a_category(tmp_path, doc, extra, message):
    if extra is not None:
        cats = tmp_path / "cats.json"
        cats.write_text(json.dumps(extra))
        doc = dict(doc, category_overrides_file=str(cats))
        if message.startswith(":"):
            message = str(cats) + message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        load_config(str(path), env={})
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("url", [5, "ftp://x", "http://", "https:///path", "", True, ["http://x"], "ftp://user:pw@x"])
def test_endpoint_must_be_an_http_url_with_a_host(tmp_path, url):
    shown = url.replace("user:pw@", "***@") if isinstance(url, str) else url  # credentials are never shown
    message = f"endpoints.generator (or HOPQG_GENERATOR_URL) must be an http(s) URL with a host, got {shown!r}"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"endpoints": {"qa": "http://qa-host/qa", "generator": url}}))
    with pytest.raises(ConfigError) as info:
        load_config(str(path), env={})
    assert str(info.value) == message
    if isinstance(url, str) and url:
        # An endpoint from the environment is checked as one from the file.
        with pytest.raises(ConfigError) as info:
            load_config(None, env={"HOPQG_GENERATOR_URL": url})
        assert str(info.value) == message


@pytest.mark.parametrize("url,fault", [
    ("http://127.0.0.1:abc/x", "must be a valid URL with any port in 1-65535"),
    ("http://127.0.0.1:99999/x", "must be a valid URL with any port in 1-65535"),
    ("http://127.0.0.1:0/x", "must be a valid URL with any port in 1-65535"),
    ("http://127.0.0.1/a b", "must not contain a space or control character"),
    ("http://127.0.0.1/a\x01b", "must not contain a space or control character"),
    ("http://127.0.0.1/a\r\nX-Injected: 1", "must not contain a space or control character"),
    ("http://127.0.0.1/a\x7f", "must not contain a space or control character"),
    ("http://user:pw@127.0.0.1:9/x", "must not hold user credentials"),
])
def test_endpoint_that_can_never_be_posted_to_is_rejected(tmp_path, url, fault):
    # A message shows no credentials.
    message = f"endpoints.qa (or HOPQG_QA_URL) {fault}, got {url.replace('user:pw@', '***@')!r}"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"endpoints": {"qa": url}}))
    for source, env in ((str(path), {}), (None, {"HOPQG_QA_URL": url})):
        with pytest.raises(ConfigError) as info:
            load_config(source, env=env)
        assert str(info.value) == message


def test_endpoints_may_be_null_or_http_urls(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"endpoints": {"qa": None, "generator": "HTTPS://gen-host:8443/v1?x=1"}}))
    config = load_config(str(path), env={"HOPQG_CLASSIFIER_URL": "http://127.0.0.1:9/classify"})
    assert config.endpoints == Endpoints(
        generator="HTTPS://gen-host:8443/v1?x=1", classifier="http://127.0.0.1:9/classify"
    )


def test_the_cli_services_are_the_endpoint_roles():
    assert set(hopqg.cli._SERVICES) == set(ENDPOINT_ENV)


def test_config_categories_are_the_template_categories():
    assert set(CATEGORIES) == set(WH_BY_CATEGORY)


def test_config_snapshot_is_json_serializable():
    snapshot = PipelineConfig(endpoints=Endpoints(qa="http://x")).to_json()
    parsed = json.loads(json.dumps(snapshot))
    assert parsed["endpoints"]["qa"] == "http://x"
    assert parsed["oversample_ratio"] == 4.0


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"hopqg" * 1000)
    assert sha256_file(str(path)) == hashlib.sha256(b"hopqg" * 1000).hexdigest()


def test_manifest_write_and_stage_timer(tmp_path):
    blob = tmp_path / "in.txt"
    blob.write_text("hello")
    manifest = RunManifest(command="x", version="0.0", config={"seed": 1})
    manifest.add_input(str(blob))
    with manifest.timed("work"):
        pass
    manifest.count("work", 3)
    # A block that raises still adds its time; a count of 0 still shows.
    with pytest.raises(ValueError):
        with manifest.timed("broken"):
            raise ValueError
    manifest.count("failed", 0)
    out = tmp_path / "m.json"
    manifest.write(str(out))
    doc = json.loads(out.read_text())
    assert doc["command"] == "x"
    assert doc["inputs"][str(blob)] == hashlib.sha256(b"hello").hexdigest()
    assert doc["stages"]["work"]["count"] == 3
    assert doc["stages"]["work"]["seconds"] >= 0
    assert doc["stages"]["broken"]["count"] == 0 and doc["stages"]["broken"]["seconds"] >= 0
    assert doc["stages"]["failed"] == {"count": 0, "seconds": 0.0}


def test_manifest_stage_recording_from_many_threads():
    manifest = RunManifest(command="x", version="0.0", config={})
    start = threading.Barrier(8, timeout=30)

    def work():
        start.wait()
        for _ in range(1000):
            with manifest.timed("work"):
                manifest.count("work")

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    stage = manifest.to_json()["stages"]["work"]
    assert stage["count"] == 8000
    assert stage["seconds"] >= 0
