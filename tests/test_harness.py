"""Tests for the campaign harness and experiment registry."""

import pytest

from repro.boom import BoomConfig, VulnConfig
from repro.harness.campaign import CoverageCurve, mean_curve
from repro.harness.experiments import EXPERIMENTS, render_registry
from repro.harness.plotting import render_coverage_figure
from repro.scenarios import ScenarioSpec, run_scenario


class TestCoverageCurve:
    def test_points_and_final(self):
        curve = CoverageCurve("x", [1, 2, 5])
        assert curve.final() == 5
        assert curve.as_points() == [(1, 1), (2, 2), (3, 5)]

    def test_stride_keeps_last(self):
        curve = CoverageCurve("x", list(range(10)))
        points = curve.as_points(stride=4)
        assert points[-1] == (10, 9)

    def test_iterations_to(self):
        curve = CoverageCurve("x", [1, 3, 7, 7])
        assert curve.iterations_to(3) == 2
        assert curve.iterations_to(8) is None

    def test_mean_curve(self):
        merged = mean_curve(
            [CoverageCurve("a", [0, 10]), CoverageCurve("b", [10, 20])],
            "mean",
        )
        assert merged.values == [5, 15]
        assert merged.label == "mean"

    def test_mean_curve_empty(self):
        with pytest.raises(ValueError):
            mean_curve([], "x")

    def test_mean_curve_pads_shorter_with_final_value(self):
        merged = mean_curve(
            [CoverageCurve("a", [1, 2, 4]), CoverageCurve("b", [1, 2])],
            "m",
        )
        # The short curve holds its final count (2) at the third point.
        assert len(merged.values) == 3
        assert merged.values == [1, 2, 3]


class TestCampaignRunners:
    """Figure 2's repeats are the shards of one scenario per arm."""

    @pytest.fixture(scope="class")
    def config(self):
        return BoomConfig.small(VulnConfig.all())

    @staticmethod
    def curves(coverage, iterations, shards):
        spec = ScenarioSpec(name=f"curves-{coverage}", coverage=coverage,
                            seed=5, iterations=iterations, shards=shards)
        report = run_scenario(spec, minimize=False).report
        return [
            CoverageCurve(f"{coverage}#{shard}", curve)
            for shard, curve in enumerate(report.lp_curves)
        ]

    def test_coverage_campaign_repeats(self, config):
        assert ScenarioSpec(name="x").build_config() == config
        curves = self.curves("lp", iterations=6, shards=2)
        assert [curve.label for curve in curves] == ["lp#0", "lp#1"]
        assert all(len(curve.values) == 6 for curve in curves)
        assert all(curve.final() > 0 for curve in curves)

    def test_code_arm_also_reports_lp(self, config):
        [curve] = self.curves("code", iterations=5, shards=1)
        assert curve.final() > 0  # observed LP coverage, not code items


class TestRegistry:
    def test_eight_experiments(self):
        assert len(EXPERIMENTS) == 8
        assert [spec.identifier for spec in EXPERIMENTS] == [
            f"E{i}" for i in range(1, 9)
        ]

    def test_every_experiment_has_bench(self):
        import os

        for spec in EXPERIMENTS:
            assert os.path.exists(spec.benchmark), spec.benchmark

    def test_render(self):
        text = render_registry()
        assert "Table 2" in text
        assert "Figure 2" in text


class TestPlotting:
    def test_figure_contains_both_series(self):
        lp = CoverageCurve("lp", [10 * i for i in range(20)])
        code = CoverageCurve("code", [5 * i for i in range(20)])
        figure = render_coverage_figure(lp, code, total_pdlc=500)
        assert "Leakage Path (LP)" in figure
        assert "Traditional Code Coverage" in figure
        assert "Figure 2" in figure
