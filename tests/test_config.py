"""Config loading, validation, env overrides; manifest digests."""

import hashlib
import json

import pytest

from hopqg.config import Endpoints, PipelineConfig, load_config
from hopqg.errors import ConfigError
from hopqg.manifest import RunManifest, StageTimer, sha256_file


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


def test_load_config_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"), env={})
    path = tmp_path / "broken.json"
    path.write_text('{"seed": }')
    with pytest.raises(ConfigError, match=r"line 1 column"):
        load_config(str(path), env={})


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
    with StageTimer(manifest, "work") as stage:
        stage.count = 3
    out = tmp_path / "m.json"
    manifest.write(str(out))
    doc = json.loads(out.read_text())
    assert doc["command"] == "x"
    assert doc["inputs"][str(blob)] == hashlib.sha256(b"hello").hexdigest()
    assert doc["stages"]["work"]["count"] == 3
    assert doc["stages"]["work"]["seconds"] >= 0
