"""Campaign manifest: emission, schema validation, round-trip, audits."""

from __future__ import annotations

import json

import pytest

import repro
from repro.cluster import cloudlab
from repro.errors import ConfigError
from repro.obs import (
    MANIFEST_SCHEMA,
    Manifest,
    campaign_config_from_manifest,
    read_manifest,
    validate_manifest,
)
from repro.sim import CampaignConfig, run_campaign
from repro.telemetry.io import dataset_to_csv_text
from repro.workloads import sgemm

CONFIG = CampaignConfig(days=2, runs_per_day=2, coverage=1.0)


@pytest.fixture(scope="module")
def emitted():
    """One campaign executed with a manifest sink attached."""
    cluster = cloudlab(seed=5, scale=0.5)
    manifest = Manifest()
    dataset = run_campaign(cluster, sgemm(), CONFIG, manifest=manifest)
    return cluster, dataset, manifest


class TestEmission:
    def test_one_entry_per_campaign(self, emitted):
        _, _, manifest = emitted
        assert len(manifest.campaigns) == 1

    def test_entry_contents(self, emitted):
        cluster, dataset, manifest = emitted
        entry = manifest.campaigns[0]
        assert entry.cluster["name"] == cluster.name
        assert entry.cluster["seed"] == 5
        assert entry.workload["name"] == sgemm().name
        assert entry.config["days"] == 2
        assert entry.solver["mode"] == "fleet"
        assert entry.solver["solves"] > 0
        assert entry.solver["batches"] > 0
        assert entry.result["n_rows"] == dataset.n_rows
        assert entry.result["columns"] == dataset.column_names

    def test_rng_roots(self, emitted):
        cluster, _, manifest = emitted
        rng = manifest.campaigns[0].rng
        assert rng["master_seed"] == cluster.seed
        assert rng["root_label"] == f"cluster-{cluster.name}"
        assert rng["derived_seed"] == cluster.rng_factory.seed
        assert "{day}" in rng["day_label_format"]
        assert "{run}" in rng["run_label_format"]

    def test_result_digest_matches_dataset(self, emitted):
        import hashlib

        _, dataset, manifest = emitted
        expected = hashlib.blake2b(
            dataset_to_csv_text(dataset).encode("utf-8"), digest_size=16
        ).hexdigest()
        assert manifest.campaigns[0].result["digest_blake2b"] == expected

    def test_serial_and_parallel_entries_identical(self, emitted):
        _, _, manifest = emitted
        m2 = Manifest()
        run_campaign(cloudlab(seed=5, scale=0.5), sgemm(), CONFIG,
                     workers=2, manifest=m2)
        assert m2.campaigns[0] == manifest.campaigns[0]


class TestRoundTrip:
    def test_write_validate_read(self, emitted, tmp_path):
        _, _, manifest = emitted
        path = manifest.write(tmp_path / "manifest.json")
        doc = read_manifest(path)
        assert doc["schema_version"] == 1
        assert doc["package_version"] == repro.__version__
        validate_manifest(doc)  # idempotent

    def test_reconstructs_exact_campaign_config(self, emitted, tmp_path):
        _, _, manifest = emitted
        path = manifest.write(tmp_path / "manifest.json")
        doc = json.loads(path.read_text())
        config = campaign_config_from_manifest(doc["campaigns"][0])
        assert config == CONFIG

    def test_reconstruction_rejects_tampered_config(self, emitted):
        _, _, manifest = emitted
        doc = manifest.to_dict()
        doc["campaigns"][0]["config"]["days"] = 99
        with pytest.raises(ConfigError, match="digest mismatch"):
            campaign_config_from_manifest(doc["campaigns"][0])


class TestValidator:
    def test_accepts_emitted_document(self, emitted):
        _, _, manifest = emitted
        validate_manifest(manifest.to_dict())

    def test_rejects_missing_required_key(self, emitted):
        doc = emitted[2].to_dict()
        del doc["campaigns"][0]["rng"]
        with pytest.raises(ConfigError, match=r"missing required key 'rng'"):
            validate_manifest(doc)

    def test_rejects_wrong_type(self, emitted):
        doc = emitted[2].to_dict()
        doc["schema_version"] = "one"
        with pytest.raises(ConfigError, match=r"\$\.schema_version"):
            validate_manifest(doc)

    def test_rejects_bool_as_integer(self):
        validate_manifest(3, {"type": "integer"})
        with pytest.raises(ConfigError):
            validate_manifest(True, {"type": "integer"})

    def test_rejects_enum_violation(self, emitted):
        doc = emitted[2].to_dict()
        doc["campaigns"][0]["solver"]["mode"] = "magic"
        with pytest.raises(ConfigError, match="magic"):
            validate_manifest(doc)

    def test_accepts_retired_solver_modes(self, emitted):
        # Writers always record "fleet", but manifests from releases that
        # could select the ladder or dense-grid solver stay valid.
        for mode in ("ladder", "grid"):
            doc = emitted[2].to_dict()
            doc["campaigns"][0]["solver"]["mode"] = mode
            validate_manifest(doc)

    def test_type_union_allows_null(self, emitted):
        doc = emitted[2].to_dict()
        assert doc["campaigns"][0]["config"]["power_limit_w"] is None
        validate_manifest(doc)

    def test_schema_is_json_serializable(self):
        json.dumps(MANIFEST_SCHEMA)
