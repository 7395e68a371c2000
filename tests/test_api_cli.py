"""Facade (repro.api) and CLI entry points."""

from __future__ import annotations

import pytest

from repro.api import PipelineConfig, build_dataset, run_pipeline
from repro.cli import main
from repro.simulation import SimulationParams, build_world


class TestAPI:
    def test_pipeline_result_fields(self, pipeline):
        assert pipeline.dataset.summary()["profit_sharing_contracts"] > 0
        assert pipeline.expansion_report.converged
        assert pipeline.clustering.family_count == 9
        assert pipeline.victim_report.victim_count > 0

    def test_run_pipeline_with_explicit_world(self):
        world = build_world(SimulationParams(scale=0.005, seed=77))
        result = run_pipeline(PipelineConfig(world=world))
        assert result.world is world

    def test_run_pipeline_scale_seed_shorthand(self):
        result = run_pipeline(PipelineConfig(scale=0.005, seed=77))
        assert result.world.params.scale == 0.005
        assert result.world.params.seed == 77

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_pipeline(bogus=1)
        with pytest.raises(TypeError, match="expects a PipelineConfig"):
            run_pipeline(SimulationParams(scale=0.005, seed=77))

    def test_build_dataset_result_fields(self, world):
        build = build_dataset(world)
        assert build.dataset.contracts
        assert build.expansion_report.converged
        assert build.seed_summary["profit_sharing_contracts"] > 0
        assert build.resume_info is None  # no checkpointing requested


class TestCLI:
    SCALE = ["--scale", "0.005", "--seed", "7"]

    def test_build_dataset(self, capsys, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["build-dataset", *self.SCALE, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Table 1" in printed
        assert out.exists()

    def test_analyze(self, capsys):
        assert main(["analyze", *self.SCALE]) == 0
        printed = capsys.readouterr().out
        assert "victim accounts" in printed
        assert "affiliate profits" in printed

    def test_cluster(self, capsys):
        assert main(["cluster", *self.SCALE]) == 0
        printed = capsys.readouterr().out
        assert "Table 2" in printed
        assert "Angel Drainer" in printed

    def test_webdetect(self, capsys):
        assert main(["webdetect", *self.SCALE]) == 0
        printed = capsys.readouterr().out
        assert "Table 4" in printed
        assert "fingerprints" in printed

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIExtensions:
    SCALE = ["--scale", "0.005", "--seed", "7"]

    def test_validate(self, capsys):
        assert main(["validate", *self.SCALE]) == 0
        printed = capsys.readouterr().out
        assert "false positives:         0" in printed

    def test_export(self, capsys, tmp_path):
        out_dir = tmp_path / "release"
        assert main(["export", *self.SCALE, "--out-dir", str(out_dir)]) == 0
        for name in ("daas_dataset.json", "accounts.csv", "transactions.csv",
                     "community_report.json"):
            assert (out_dir / name).exists()

    def test_laundering(self, capsys):
        assert main(["laundering", *self.SCALE]) == 0
        printed = capsys.readouterr().out
        assert "traced routes" in printed
        assert "mixer" in printed or "bridge" in printed

    def test_webdetect_streaming(self, capsys):
        assert main(["webdetect", *self.SCALE, "--streaming"]) == 0
        printed = capsys.readouterr().out
        assert "streaming mode" in printed
        assert "Table 4" in printed

    def test_report_with_markdown(self, capsys, tmp_path):
        md = tmp_path / "report.md"
        assert main(["report", *self.SCALE, "--md", str(md)]) == 0
        assert md.exists()
        assert "# DaaS Measurement Report" in md.read_text()
