"""Tests for the JSON export layer and the attack harness utilities."""

from __future__ import annotations

import json

import pytest

from repro.attacks.harness import ATTACKS, build_policy
from repro.eval.export import export_all, lebench_to_dict, scorecard_to_dict
from repro.eval.validate import validate_claims
from repro.exec import run_experiment
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel


class TestExport:
    @pytest.fixture(scope="class")
    def lebench(self):
        return run_experiment("lebench", {"schemes": ["unsafe", "fence"]})

    def test_document_is_valid_json_with_provenance(self, lebench):
        doc = json.loads(export_all(lebench=lebench))
        assert doc["reproduction"] == "perspective-isca2024"
        assert len(doc["image_fingerprint"]) == 16
        assert "lebench" in doc

    def test_lebench_dict_shape(self, lebench):
        data = lebench_to_dict(lebench)
        assert data["normalized"]["unsafe"]["getpid"] == 1.0
        assert data["average_overhead_pct"]["fence"] > 0

    def test_surface_and_scorecard_roundtrip(self):
        surface = run_experiment("surface", {"apps": ["httpd"]})
        card = validate_claims(surface=surface)
        doc = json.loads(export_all(surface=surface, scorecard=card))
        assert doc["surface"]["reduction"]["httpd"]["static"] > 0.88
        assert doc["scorecard"]["all_ok"] is True
        ids = {c["id"] for c in doc["scorecard"]["claims"]}
        assert "isv-static-surface" in ids

    def test_export_is_deterministic(self, lebench):
        assert export_all(lebench=lebench) == export_all(lebench=lebench)

    def test_empty_export_still_valid(self):
        doc = json.loads(export_all())
        assert set(doc) == {"reproduction", "version", "image_fingerprint"}


class TestHarnessUtilities:
    def test_unknown_scheme_rejected(self, kernel):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_policy("warp-drive", kernel)

    def test_build_policy_installs_on_pipeline(self, kernel):
        policy = build_policy("fence", kernel)
        assert kernel.pipeline.policy is policy

    def test_run_matrix_small(self):
        cells = run_experiment("security", {
            "attacks": ["spectre-v1-active"],
            "schemes": ["unsafe", "perspective"]})
        assert len(cells) == 2
        by_scheme = {cell.scheme: cell.result for cell in cells}
        assert by_scheme["unsafe"].success
        assert by_scheme["perspective"].blocked

    def test_attack_registry_names_match_classes(self):
        for name, cls in ATTACKS.items():
            assert hasattr(cls, "run")


class TestPrefetcherConfig:
    def test_kernel_config_passthrough(self, image):
        kernel = MiniKernel(image=image,
                            config=KernelConfig(prefetcher=True))
        assert kernel.hierarchy.prefetcher
        default = MiniKernel(image=image)
        assert not default.hierarchy.prefetcher

    def test_prefetcher_does_not_break_security(self, image):
        """Next-line prefetch must not reintroduce the v1 leak under
        Perspective (prefetches are triggered by allowed accesses only)."""
        from repro.attacks.base import make_setup
        from repro.attacks.harness import build_perspective
        from repro.attacks.spectre_v1 import SpectreV1ActiveAttack
        kernel = MiniKernel(image=image,
                            config=KernelConfig(prefetcher=True))
        setup = make_setup(kernel)
        build_perspective(kernel)
        assert SpectreV1ActiveAttack(setup).run("perspective").blocked
