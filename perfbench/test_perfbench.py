"""Arithmetic of the end-to-end benchmark, pinned without timing.

Covers quantiles and the supported percentile, ``failed_share``
counting, the SLO share and SLO rate, span self time and coverage, and
that ``BENCHMARK.json`` names the metrics the code reports.  Nothing here
runs the benchmark or reads a clock.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402


class TestQuantile:
    def test_matches_linear_interpolation(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert metrics.quantile(values, 0.0) == 1.0
        assert metrics.quantile(values, 1.0) == 4.0
        assert metrics.quantile(values, 0.5) == 2.5
        assert metrics.quantile(values, 0.25) == pytest.approx(1.75)

    def test_single_sample_and_empty(self):
        assert metrics.quantile([7.0], 0.99) == 7.0
        assert math.isnan(metrics.quantile([], 0.5))

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            metrics.quantile([1.0], 1.5)


class TestSupportedPercentile:
    @pytest.mark.parametrize(
        "samples, expected",
        [
            (19, None),     # 9.5 beyond the median: not even p50
            (20, 50.0),
            (100, 90.0),    # 10 beyond p90, 5 beyond p95
            (999, 95.0),    # 9.99 beyond p99
            (1000, 99.0),
            (2000, 99.5),
            (10000, 99.9),
        ],
    )
    def test_needs_ten_samples_beyond(self, samples, expected):
        assert metrics.supported_percentile(samples) == expected

    def test_summary_reports_count_and_top(self):
        s = metrics.summarize([float(i) for i in range(1, 101)])
        assert s["n"] == 100
        assert s["top_percentile"] == 90.0
        assert s["top"] == pytest.approx(metrics.quantile(range(1, 101), 0.9))


class TestFailedShare:
    def test_counts_failed_shed_and_wrong(self):
        assert metrics.failed_share(200, 1, 2, 1) == pytest.approx(0.02)

    def test_zero_when_all_correct(self):
        assert metrics.failed_share(10, 0, 0, 0) == 0.0

    def test_needs_an_attempt(self):
        with pytest.raises(ValueError):
            metrics.failed_share(0, 0, 0, 0)


class TestSlo:
    def test_failed_requests_miss_the_limit(self):
        # None = shed, failed or wrong: a miss whatever its latency.
        assert metrics.slo_share([0.01, None, 0.02, 0.2], 0.05) == 0.5

    def test_limit_is_inclusive(self):
        assert metrics.slo_share([0.05], 0.05) == 1.0

    def test_highest_qualifying_rate(self):
        phases = [(50.0, 1.0, True), (150.0, 0.995, True), (450.0, 0.4, False)]
        assert metrics.slo_rate(phases, 0.99) == 150.0

    def test_growing_backlog_disqualifies(self):
        phases = [(50.0, 1.0, True), (150.0, 1.0, False)]
        assert metrics.slo_rate(phases, 0.99) == 50.0

    def test_zero_when_no_rate_qualifies(self):
        assert metrics.slo_rate([(50.0, 0.9, True)], 0.99) == 0.0


class TestSpanArithmetic:
    def test_self_time_subtracts_union_of_children(self):
        # Children overlap each other and stick out of the parent.
        children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
        assert metrics.covered(0.0, 10.0, children) == pytest.approx(4.0)
        assert metrics.self_time(0.0, 10.0, children) == pytest.approx(6.0)

    def test_disjoint_and_contained_children(self):
        children = [(1.0, 2.0), (1.2, 1.8), (5.0, 6.0)]
        assert metrics.self_time(0.0, 10.0, children) == pytest.approx(8.0)

    def test_no_children_is_all_self(self):
        assert metrics.self_time(2.0, 5.0, []) == pytest.approx(3.0)

    def test_children_outside_the_span_are_ignored(self):
        assert metrics.covered(0.0, 1.0, [(1.0, 2.0), (-2.0, 0.0)]) == 0.0


def test_spread_is_iqr_over_median():
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / q2)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {
        name: unit for name, (unit, is_gated, _) in layers.END_TO_END.items()
        if is_gated
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better)
        for name, (_, unit, better, _, _) in layers.PER_LAYER.items()
    ]
