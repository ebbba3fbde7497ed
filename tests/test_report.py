"""Tests for the one-call reproduction report."""

import pytest

from repro.experiments import EXPERIMENT_SECTIONS, SMOKE, generate_report


class TestGenerateReport:
    def test_subset_sections(self):
        text = generate_report(SMOKE, include=("scaling", "knn"))
        assert "# Reproduction report" in text
        assert "## Scalability" in text
        assert "## Ablation — multi-step k-NN" in text
        assert "## Table 2" not in text

    def test_rank_table_rendering(self):
        text = generate_report(SMOKE, include=("table3",))
        assert "| Rank | delta=0.05 | delta=0.1 | delta=0.2 |" in text
        assert "| MRR |" in text

    def test_scale_named(self):
        text = generate_report(SMOKE, include=("scaling",))
        assert "**smoke**" in text

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown sections"):
            generate_report(SMOKE, include=("fig99",))

    def test_all_sections_registered(self):
        assert len(EXPERIMENT_SECTIONS) == 14

    def test_cli_report_subset(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        out_file = str(tmp_path / "report.md")
        assert main(["report", "--out", out_file,
                     "--sections", "scaling"]) == 0
        with open(out_file) as handle:
            assert "## Scalability" in handle.read()
