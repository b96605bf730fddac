"""Tests for the experiments layer (Table I configs, runners, reports)."""

import numpy as np
import pytest

from repro.experiments.configs import CONFIG1, CONFIG2, CONFIG3, table1
from repro.experiments.report import (
    render_fig8_summary,
    render_flow_table,
    render_series,
    render_table,
)
from repro.experiments.runner import (
    FIG8_SCHEMES,
    PAPER_SCHEMES,
    CaseResult,
    run_case,
)


class TestConfigs:
    def test_all_columns_check(self):
        for cfg in (CONFIG1, CONFIG2, CONFIG3):
            cfg.check()

    def test_table1_rows(self):
        rows = table1()
        assert [r["config"] for r in rows] == ["Config #1", "Config #2", "Config #3"]
        assert [r["nodes"] for r in rows] == [7, 8, 64]
        assert [r["switches"] for r in rows] == [2, 12, 48]
        assert rows[0]["crossbar_bw_gbs"] == 5.0
        assert rows[2]["memory_bytes"] == 64 * 1024

    def test_params_validate(self):
        p = CONFIG3.params(num_cfqs=4)
        assert p.num_cfqs == 4

    def test_scheme_lists(self):
        assert PAPER_SCHEMES == ("1Q", "ITh", "FBICM", "CCFIT")
        assert set(FIG8_SCHEMES) - set(PAPER_SCHEMES) == {"VOQnet"}


class TestRunner:
    def test_run_case1_returns_complete_result(self):
        res = run_case("case1", scheme="1Q", time_scale=0.05)
        assert isinstance(res, CaseResult)
        assert res.scheme == "1Q"
        assert set(res.flow_bandwidth) == {"F0", "F1", "F2", "F5", "F6"}
        times, rates = res.throughput
        assert len(times) == len(rates) > 0
        assert res.stats["delivered_packets"] > 0
        assert res.window[1] == res.duration

    def test_mean_throughput_window(self):
        res = run_case("case1", scheme="1Q", time_scale=0.05)
        full = res.mean_throughput(0.0, res.duration)
        assert full > 0
        assert res.mean_throughput(res.duration * 2, res.duration * 3) == 0.0

    def test_fairness_helper(self):
        res = run_case("case1", scheme="1Q", time_scale=0.05)
        j = res.fairness(("F1", "F2", "F5", "F6"))
        assert 0.25 <= j <= 1.0

    def test_run_fig7_panel_selection(self):
        from repro.experiments import registry

        res, _report = registry.get("fig7a").run(schemes=("1Q",), time_scale=0.05)
        assert list(res) == ["1Q"]

    def test_run_case4_window_is_burst(self):
        res = run_case("case4", scheme="1Q", num_trees=1, time_scale=0.05, duration_ms=3.0)
        t0, t1 = res.window
        assert t0 == pytest.approx(0.05 * 1e6)
        assert t1 == pytest.approx(0.05 * 2e6)


class TestReport:
    def _fake_result(self, scheme, level):
        times = np.array([50.0, 150.0, 250.0])
        rates = np.full(3, level)
        return CaseResult(
            scheme=scheme,
            duration=300.0,
            throughput=(times, rates),
            flow_bandwidth={"F0": level, "F1": level / 2},
            stats={"cfq_alloc_failures": 3, "becns_received": 7},
            window=(100.0, 300.0),
        )

    def test_render_table_alignment(self):
        out = render_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": ""}])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_render_table_empty(self):
        assert render_table([]) == "(empty)"

    def test_render_series_contains_all_schemes(self):
        results = {s: self._fake_result(s, 5.0) for s in ("1Q", "CCFIT")}
        out = render_series(results)
        assert "1Q" in out and "CCFIT" in out and "t(ms)" in out

    def test_render_flow_table_has_jain(self):
        results = {"1Q": self._fake_result("1Q", 4.0)}
        out = render_flow_table(results, ["F0", "F1"])
        assert "jain" in out and "4.000" in out

    def test_render_fig8_summary(self):
        results = {"CCFIT": self._fake_result("CCFIT", 4.0)}
        out = render_fig8_summary(results)
        assert "cam_failures" in out and "3" in out
