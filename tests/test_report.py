"""Tests for the report/rendering layer (cheap subsets only)."""

from __future__ import annotations

import json

import pytest

from repro.eval.envs import ALL_SCHEMES, PERF_SCHEMES
from repro.eval.figures import figure_9_2, figure_9_3
from repro.eval.report import SECTIONS, EvaluationArtifacts, \
    render_campaign_report
from repro.eval.tables import security_matrix_text_from_cells, \
    table_10_1, table_8_2
from repro.eval.runner import AppsExperiment, LEBenchExperiment
from repro.exec import run_experiment
from repro.exec.grids import get_grid
from repro.reliability.campaign import CampaignState


class TestArtifacts:
    def test_render_joins_sections(self):
        artifacts = EvaluationArtifacts()
        artifacts.sections["Alpha"] = "aaa"
        artifacts.sections["Beta"] = "bbb"
        text = artifacts.render()
        assert "Alpha" in text and "Beta" in text
        assert text.index("Alpha") < text.index("Beta")
        assert "aaa" in text


class TestSecurityMatrixText:
    def test_single_scheme_matrix(self):
        text = security_matrix_text_from_cells(
            run_experiment("security", {"schemes": ["unsafe"]}))
        assert "spectre-v1-active" in text
        assert "LEAKED" in text
        # The eIBRS control is the only blocked row on unsafe hardware.
        control_line = next(line for line in text.splitlines()
                            if "spectre-v2-vs-eibrs" in line)
        assert "blocked" in control_line


class TestTableRenderers:
    def test_table_8_2_mentions_scale_note(self):
        exp = run_experiment("gadgets", {"apps": ["httpd"]})
        text = table_8_2(exp)
        assert "paper scale 1533" in text
        assert "100%" in text  # the ISV++ column

    def test_table_10_1_reports_rates(self):
        exp = run_experiment("breakdown", {"workloads": ["httpd"],
                                           "schemes": ["perspective"]})
        text = table_10_1(exp)
        assert "fence rates /kiloinstruction" in text
        assert "httpd" in text


class TestSections:
    def test_grid_params_resolve_and_round_trip_json(self):
        """Every grid section's ``full`` and ``fast`` params are accepted
        by its grid (a misspelled name raises ``TypeError``) and equal
        their JSON round trip, as the campaign journal header needs."""
        grid_sections = [s for s in SECTIONS if s.grid is not None]
        assert grid_sections
        for section in grid_sections:
            for params in (section.full, section.fast):
                get_grid(section.grid).resolve(params)
                assert json.loads(json.dumps(params)) == params, \
                    section.title

    def test_campaign_report_keeps_report_order(self):
        """A campaign report renders its grids' sections where
        ``python -m repro`` prints them (Table 9.1 before Table 10.1) and
        leaves out the sections of grids it did not schedule."""
        state = CampaignState(failures={"breakdown": "boom",
                                        "surface": "boom"},
                              attempts={"breakdown": 1, "surface": 1})
        assert list(render_campaign_report(state).sections) == [
            "Table 4.1 (CVE taxonomy)",
            "Table 7.1 (simulation parameters)",
            "Table 8.1 (attack surface)",
            "Table 9.1 (hardware characterization)",
            "Table 10.1 (fence breakdown)",
            "Campaign failure summary",
        ]


class TestFigureHeaders:
    """Figures 9.2 and 9.3 give every scheme column its own label of at
    most 10 characters (the three Perspective flavors used to share one
    truncated ``perspectiv`` header)."""

    @staticmethod
    def scheme_labels(text: str, leading: int) -> list[str]:
        return text.splitlines()[2].split()[leading:]

    @pytest.mark.parametrize("schemes", [PERF_SCHEMES, ALL_SCHEMES])
    def test_figure_9_2(self, schemes):
        exp = LEBenchExperiment(schemes=schemes, cycles={
            s: {"getpid": 100.0 + i} for i, s in enumerate(schemes)})
        labels = self.scheme_labels(figure_9_2(exp), leading=1)
        assert len(labels) == len(schemes) - 1
        assert len(set(labels)) == len(labels)
        assert max(map(len, labels)) <= 10

    @pytest.mark.parametrize("schemes", [PERF_SCHEMES, ALL_SCHEMES])
    def test_figure_9_3(self, schemes):
        exp = AppsExperiment(schemes=schemes, total_cycles_per_request={
            "httpd": {s: 1000.0 + i for i, s in enumerate(schemes)}})
        labels = self.scheme_labels(figure_9_3(exp), leading=3)
        assert len(labels) == len(schemes) - 1
        assert len(set(labels)) == len(labels)
        assert max(map(len, labels)) <= 10
