"""Unit tests for the metrics collector and curve analysis."""

import math
import random

import numpy as np
import pytest

from repro.metrics.analysis import (
    jain_index,
    mean_in_window,
    ordering,
    oscillation_score,
    recovery_time,
    series_mean,
)
from repro.metrics.collector import Collector
from repro.network.packet import Packet


def deliver(c, flow, at, size=2048, injected=None):
    p = Packet(0, 1, size, flow)
    p.injected_at = injected
    c.record_delivery(p, at)


class TestCollector:
    def test_flow_series_binning(self):
        c = Collector(bin_ns=100.0)
        deliver(c, "f", at=50.0)
        deliver(c, "f", at=60.0)
        deliver(c, "f", at=150.0)
        times, rates = c.flow_series("f", t_end=300.0)
        assert len(times) == 3
        assert rates[0] == pytest.approx(2 * 2048 / 100.0)
        assert rates[1] == pytest.approx(2048 / 100.0)
        assert rates[2] == 0.0

    def test_throughput_series_aggregates_flows(self):
        c = Collector(bin_ns=100.0)
        deliver(c, "a", at=10.0)
        deliver(c, "b", at=20.0)
        _t, rates = c.throughput_series(t_end=100.0)
        assert rates[0] == pytest.approx(2 * 2048 / 100.0)

    def test_flow_bandwidth_window(self):
        c = Collector(bin_ns=100.0)
        deliver(c, "f", at=150.0)
        assert c.flow_bandwidth("f", 100.0, 200.0) == pytest.approx(2048 / 100.0)
        assert c.flow_bandwidth("f", 200.0, 300.0) == 0.0

    def test_bandwidth_cannot_exceed_bin_contents(self):
        """Regression: unaligned windows must not overestimate."""
        c = Collector(bin_ns=100.0)
        deliver(c, "f", at=50.0)
        # 150 ns window covering two bins -> divide by the bin span
        assert c.flow_bandwidth("f", 50.0, 200.0) == pytest.approx(2048 / 200.0)

    def test_empty_window_raises(self):
        c = Collector()
        with pytest.raises(ValueError):
            c.flow_bandwidth("f", 10.0, 10.0)

    def test_unknown_flow_is_zero(self):
        c = Collector()
        assert c.flow_bandwidth("ghost", 0.0, 1000.0) == 0.0

    def test_counters(self):
        c = Collector()
        deliver(c, "f", at=1.0)
        deliver(c, "g", at=2.0, size=100)
        assert c.delivered_packets == 2
        assert c.delivered_bytes == 2148
        assert c.flows() == ["f", "g"]

    def test_latency_tracking(self):
        c = Collector()
        deliver(c, "f", at=100.0, injected=40.0)
        deliver(c, "f", at=200.0, injected=160.0)
        assert c.mean_latency("f") == pytest.approx(50.0)
        assert c.mean_latency("ghost") is None

    def test_fairness_helper(self):
        c = Collector(bin_ns=100.0)
        for _ in range(4):
            deliver(c, "a", at=10.0)
        deliver(c, "b", at=20.0)
        assert c.fairness(["a", "b"], 0.0, 100.0) < 1.0
        assert c.fairness(["a", "a"], 0.0, 100.0) == 1.0

    def test_fairness_of_no_flows_is_nan(self):
        """Regression: an empty flow set used to raise through
        jain_index; callers folding over dynamic sets now get nan."""
        import math

        c = Collector(bin_ns=100.0)
        assert math.isnan(c.fairness([], 0.0, 100.0))
        assert math.isnan(c.fairness(iter(()), 0.0, 100.0))
        deliver(c, "a", at=10.0)
        assert c.fairness(["a"], 0.0, 100.0) == 1.0  # non-empty path intact

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            Collector(bin_ns=0.0)


class TestAnalysis:
    def test_jain_bounds(self):
        assert jain_index([1, 1, 1, 1]) == 1.0
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([0, 0]) == 1.0  # equally starved

    def test_jain_rejects_bad_input(self):
        with pytest.raises(ValueError):
            jain_index([])
        with pytest.raises(ValueError):
            jain_index([-1.0, 1.0])

    def test_series_mean_and_window(self):
        t = np.array([50.0, 150.0, 250.0])
        v = np.array([1.0, 2.0, 3.0])
        assert series_mean(t, v) == 2.0
        assert mean_in_window(t, v, 100.0, 300.0) == 2.5
        with pytest.raises(ValueError):
            mean_in_window(t, v, 1000.0, 2000.0)

    def test_oscillation_score(self):
        flat = np.full(10, 5.0)
        saw = np.array([5.0, 1.0] * 5)
        assert oscillation_score(flat) == 0.0
        assert oscillation_score(saw) > 1.0
        assert oscillation_score(np.array([1.0])) == 0.0
        assert oscillation_score(np.zeros(5)) == 0.0

    def test_ordering(self):
        assert ordering({"a": 1.0, "b": 3.0, "c": 2.0}) == ["b", "c", "a"]
        assert ordering({"a": 1.0, "b": 1.0}) == ["a", "b"]  # deterministic

    def test_recovery_time(self):
        t = np.arange(10) * 100.0
        v = np.array([9, 9, 2, 2, 2, 8, 9, 9, 9, 9], dtype=float)
        # after the event at t=200, sustained >= 8 from t=500
        assert recovery_time(t, v, 200.0, 8.0, sustain_bins=3) == 500.0
        assert recovery_time(t, v, 200.0, 99.0) == float("inf")


class TestLatencyPercentiles:
    def test_exact_on_a_small_population(self):
        c = Collector(bin_ns=100.0)
        for i in range(100):
            deliver(c, "f", at=1000.0 + i, injected=1000.0 - i)  # latencies 2i
        assert c.latency_percentile("f", 0) == pytest.approx(0.0)
        assert c.latency_percentile("f", 100) == pytest.approx(198.0)
        assert c.latency_percentile("f", 50) == pytest.approx(99.0)

    def test_unknown_flow_is_none(self):
        assert Collector().latency_percentile("ghost", 99) is None

    def test_exact_over_every_delivery(self):
        """Every latency is kept: percentiles equal NumPy's over the
        whole population, whatever the delivery order, and the mean is
        the correctly rounded one."""
        n = 3 * 512
        latencies = [2.0 * i + 0.1 * (i % 7) for i in range(n)]
        random.Random(5).shuffle(latencies)
        c = Collector(bin_ns=100.0)
        for lat in latencies:
            deliver(c, "f", at=10_000.0 + lat, injected=10_000.0)
        expected = [10_000.0 + lat - 10_000.0 for lat in latencies]
        for q in (0, 50, 95, 99, 100):
            assert c.latency_percentile("f", q) == np.percentile(expected, q)
        assert c.mean_latency("f") == math.fsum(expected) / n

    def test_exact_median_of_a_large_population(self):
        n = 3 * 512
        c = Collector(bin_ns=100.0)
        for i in range(n):
            deliver(c, "f", at=10_000.0 + i, injected=10_000.0 - i)  # latencies 2i
        lo, hi = 0.0, 2.0 * (n - 1)
        for q in (0, 50, 95, 100):
            value = c.latency_percentile("f", q)
            assert lo <= value <= hi
        # the exact median of the full population (2i for i < n)
        assert c.latency_percentile("f", 50) == n - 1

    def test_bad_percentile_raises(self):
        c = Collector(bin_ns=100.0)
        deliver(c, "f", at=10.0, injected=5.0)
        with pytest.raises(ValueError):
            c.latency_percentile("f", 101)

    def test_hol_blocking_shows_in_tail_latency(self):
        """Integration: a victim's p95 latency under 1Q dwarfs its
        CCFIT p95 — congestion's other signature."""
        from repro.network.fabric import build_fabric
        from repro.network.topology import config1_adhoc
        from repro.traffic.flows import FlowSpec, attach_traffic

        p95 = {}
        for scheme in ("1Q", "CCFIT"):
            fab = build_fabric(config1_adhoc(), scheme=scheme, seed=4)
            attach_traffic(
                fab,
                flows=[
                    FlowSpec("vic", src=0, dst=3, rate=2.5),
                    FlowSpec("h1", src=1, dst=4, rate=2.5),
                    FlowSpec("h2", src=2, dst=4, rate=2.5),
                    FlowSpec("h5", src=5, dst=4, rate=2.5),
                ],
            )
            fab.run(until=2_000_000.0)
            p95[scheme] = fab.collector.latency_percentile("vic", 95)
        assert p95["1Q"] > 3 * p95["CCFIT"]
