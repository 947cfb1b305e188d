"""Tests for multi-seed statistics."""

import numpy as np
import pytest

from repro.experiments.stats import MetricSummary, _t_quantile, separated, summarize_seeds


class TestMetricSummary:
    def test_mean_std(self):
        summary = MetricSummary("m", (1.0, 2.0, 3.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_single_value_no_ci(self):
        summary = MetricSummary("m", (5.0,))
        assert summary.ci_halfwidth == pytest.approx(0.0)
        assert summary.ci == (5.0, 5.0)

    def test_ci_contains_mean(self):
        summary = MetricSummary("m", tuple(np.random.default_rng(0).normal(0, 1, 20)))
        lo, hi = summary.ci
        assert lo <= summary.mean <= hi

    def test_ci_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        small = MetricSummary("m", tuple(rng.normal(0, 1, 5)))
        big = MetricSummary("m", tuple(rng.normal(0, 1, 50)))
        assert big.ci_halfwidth < small.ci_halfwidth

    def test_str_mentions_numbers(self):
        text = str(MetricSummary("precision", (0.8, 0.9)))
        assert "precision" in text and "0.850" in text


class TestTQuantile:
    @pytest.mark.parametrize(
        "df,expected",
        [(1, 12.7062047), (4, 2.7764451), (10, 2.2281389), (30, 2.0422725)],
    )
    def test_textbook_95_percent(self, df, expected):
        assert _t_quantile(0.95, df) == pytest.approx(expected, abs=1e-7)

    def test_ci_uses_t_quantile(self):
        summary = MetricSummary("m", (1.0, 2.0, 3.0, 4.0, 5.0))
        expected = 2.7764451 * summary.std / np.sqrt(5)
        assert summary.ci_halfwidth == pytest.approx(expected, rel=1e-7)


class TestSummarizeSeeds:
    def test_collects_per_metric(self):
        summaries = summarize_seeds(
            lambda seed: {"a": seed * 1.0, "b": seed * 2.0}, seeds=(1, 2, 3)
        )
        assert summaries["a"].values == (1.0, 2.0, 3.0)
        assert summaries["b"].mean == pytest.approx(4.0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            summarize_seeds(lambda s: {"a": 1.0}, seeds=())

    def test_inconsistent_metrics_rejected(self):
        def flaky(seed):
            return {"a": 1.0} if seed == 1 else {"b": 1.0}

        with pytest.raises(ValueError, match="reported metrics"):
            summarize_seeds(flaky, seeds=(1, 2))


class TestSeparated:
    def test_disjoint_intervals(self):
        a = MetricSummary("a", (0.1, 0.11, 0.12))
        b = MetricSummary("b", (0.9, 0.91, 0.92))
        assert separated(a, b)

    def test_overlapping_intervals(self):
        a = MetricSummary("a", (0.4, 0.6, 0.5))
        b = MetricSummary("b", (0.45, 0.65, 0.55))
        assert not separated(a, b)
