"""Tests for text reporting and the one-stop variability suite."""

import numpy as np
import pytest

from repro.core.boxstats import BoxStats
from repro.core.report import ascii_box_row, format_boxstats_table
from repro.core.suite import VariabilitySuite
from repro.sim.campaign import CampaignConfig
from repro.telemetry.sample import METRIC_PERFORMANCE
from repro.workloads import sgemm


@pytest.fixture()
def stats(rng):
    return BoxStats.from_values(rng.normal(100.0, 5.0, 200))


class TestAsciiBoxRow:
    def test_contains_box_and_median(self, stats):
        row = ascii_box_row(stats, 80.0, 120.0, width=50)
        assert len(row) == 50
        assert "#" in row
        assert "=" in row
        assert "|" in row

    def test_median_position_scales(self, stats):
        row = ascii_box_row(stats, 0.0, 200.0, width=100)
        pos = row.index("#")
        assert 40 < pos < 60  # median ~100 of [0, 200]

    def test_invalid_axis(self, stats):
        with pytest.raises(ValueError):
            ascii_box_row(stats, 10.0, 10.0)


class TestTable:
    def test_formats_rows(self, stats):
        table = format_boxstats_table({"metric-a": stats, "metric-b": stats})
        lines = table.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert "metric-a" in table
        assert "variation" in lines[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_boxstats_table({})


class TestVariabilitySuite:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.cluster import longhorn

        suite = VariabilitySuite(
            longhorn(seed=13, scale=0.25),
            CampaignConfig(days=3, runs_per_day=1),
        )
        return suite.characterize(sgemm())

    def test_headline_variation_in_band(self, report):
        assert 0.04 < report.performance_variation < 0.2

    def test_metrics_present(self, report):
        assert set(report.metrics) == {
            "performance_ms", "frequency_mhz", "power_w", "temperature_c"
        }

    def test_correlations_present(self, report):
        assert report.correlations["perf_vs_frequency"].rho < -0.8

    def test_sampling_margin_positive(self, report):
        assert report.sampling_margin > 1.0
        assert report.recommended_sample_size >= 1

    def test_slow_assignment_ordering(self, report):
        assert report.slow_assignment_node >= report.slow_assignment_single

    def test_maintenance_candidates_ranked(self, report):
        values = [v for _, v in report.maintenance_candidates]
        assert values == sorted(values, reverse=True)

    def test_render_is_readable(self, report):
        text = report.render()
        assert "Variability report: Longhorn" in text
        assert "perf_vs_frequency" in text
        assert "Maintenance candidates" in text

    def test_gpu_count(self, report):
        assert report.n_gpus_observed > 0
        assert report.n_runs == 3

    def test_runs_counted_as_distinct_day_run_pairs(self, sgemm_dataset):
        from repro.cluster import longhorn

        # (day 0, run 10000) and (day 1, run 0) are two runs; a
        # day * 10_000 + run key would count them as one.
        two_days = sgemm_dataset.filter(sgemm_dataset["day"] <= 1)
        day = two_days["day"]
        ds = two_days.with_column("run", np.where(day == 0, 10_000, 0))
        suite = VariabilitySuite(longhorn(seed=11, scale=0.25))
        assert suite.analyze(ds).n_runs == 2

    def test_analyze_rejects_empty(self):
        from repro.cluster import longhorn
        from repro.telemetry.dataset import MeasurementDataset
        from repro.errors import AnalysisError, DatasetError

        suite = VariabilitySuite(longhorn(seed=0, scale=0.25))
        with pytest.raises((AnalysisError, DatasetError)):
            suite.analyze(MeasurementDataset({
                METRIC_PERFORMANCE: np.array([])
            }))


class TestAsciiHistogram:
    def test_bar_lengths_track_counts(self, rng):
        from repro.core.report import ascii_histogram

        art = ascii_histogram(rng.normal(0, 1, 500), bins=8, width=30)
        lines = art.splitlines()
        assert len(lines) == 8
        # The densest bin gets the full-width bar.
        assert any("#" * 30 in line for line in lines)

    def test_counts_sum_to_n(self, rng):
        from repro.core.report import ascii_histogram

        art = ascii_histogram(rng.normal(0, 1, 123), bins=5)
        total = sum(int(line.rsplit("|", 1)[1]) for line in art.splitlines())
        assert total == 123

    def test_empty_rejected(self):
        import numpy as np
        import pytest
        from repro.core.report import ascii_histogram

        with pytest.raises(ValueError):
            ascii_histogram(np.array([]))
