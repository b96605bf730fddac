"""Telemetry subsystem tests: ring series, tree-lifecycle tracking,
the sampler's bundle contract (byte-identical results, cache
survival), the exporters, and the quantitative Fig. 8 tree-concurrency
claim (tier 2)."""

import json
import os

import pytest

from repro.core.params import CCParams
from repro.experiments.configs import CONFIG3
from repro.experiments.runner import run_case
from repro.experiments.sweep import SimJob, SweepOptions, run_sweep
from repro.metrics.trace import ProtocolTrace, TraceEvent
from repro.network.fabric import build_fabric
from repro.telemetry import TelemetryConfig, TelemetrySampler, TreeTracker
from repro.telemetry.export import (
    TELEMETRY_FORMATS,
    render_dashboard,
    render_prometheus,
    write_bundle,
    write_jsonl,
)
from repro.telemetry.series import SeriesRing
from repro.traffic.flows import FlowSpec, attach_traffic

SCALE = 0.05


# ----------------------------------------------------------------------
# SeriesRing
# ----------------------------------------------------------------------
class TestSeriesRing:
    def test_rejects_non_positive_capacity(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                SeriesRing(bad)

    def test_append_below_capacity(self):
        ring = SeriesRing(4)
        for v in (10, 11, 12):
            ring.append(v)
        assert len(ring) == 3
        assert ring.values() == [10, 11, 12]
        assert ring.dropped == 0
        assert ring.last() == 12

    def test_overwrite_counts_evictions_and_keeps_order(self):
        ring = SeriesRing(5)
        for v in range(7):
            ring.append(v)
        assert len(ring) == 5
        assert ring.values() == [2, 3, 4, 5, 6]
        assert ring.dropped == 2
        assert ring.last() == 6
        assert list(ring) == ring.values()

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            SeriesRing(3).last()


# ----------------------------------------------------------------------
# TreeTracker (synthetic event streams)
# ----------------------------------------------------------------------
def ev(time, kind, where="sw0.in0", dest=4, detail=""):
    return TraceEvent(time=time, kind=kind, where=where, dest=dest, detail=detail)


class TestTreeTracker:
    def test_single_tree_lifecycle(self):
        tt = TreeTracker(num_cfqs=2).consume(
            [
                ev(100.0, "detect", "sw1.in2"),
                ev(150.0, "adopt", "sw0.in1"),
                ev(160.0, "stop", "sw0.in1"),
                ev(300.0, "dealloc", "sw0.in1"),
                ev(400.0, "dealloc", "sw1.in2"),
            ]
        )
        (rec,) = tt.records()
        assert rec.dest == 4
        assert rec.root == "sw1.in2"
        assert rec.birth == 100.0
        assert rec.drain == 400.0
        assert rec.lifetime() == 300.0
        assert rec.peak_extent == 2
        assert rec.peak_time == 150.0
        assert rec.cfqs_consumed == 2
        assert rec.stops == 1
        assert tt.live_trees() == 0

    def test_reformed_congestion_is_a_new_record(self):
        tt = TreeTracker().consume(
            [
                ev(100.0, "detect"),
                ev(200.0, "dealloc"),
                ev(500.0, "detect"),
            ]
        )
        recs = tt.records()
        assert len(recs) == 2
        assert recs[0].drain == 200.0
        assert recs[1].drain is None
        assert tt.live_trees() == 1
        assert tt.stats()["trees"] == 2

    def test_cam_full_attribution(self):
        tt = TreeTracker().consume(
            [
                ev(50.0, "cam-full", dest=9),  # no tree live for 9 yet
                ev(60.0, "cam-full", dest=None),  # saturated fast path
                ev(100.0, "detect"),
                ev(120.0, "cam-full"),  # attributed to dest 4's tree
            ]
        )
        (rec,) = tt.records()
        assert rec.cam_full == 1
        assert tt.unattributed_cam_full == 2
        assert tt.stats()["cam_full_events"] == 3

    def test_dealloc_before_any_alloc_is_ignored(self):
        tt = TreeTracker().consume([ev(10.0, "dealloc")])
        assert tt.records() == []
        assert tt.concurrency == []

    def test_concurrency_step_series(self):
        tt = TreeTracker(num_cfqs=2).consume(
            [
                ev(0.0, "detect", dest=1),
                ev(100.0, "detect", dest=2),
                ev(200.0, "dealloc", dest=1),
                ev(400.0, "dealloc", dest=2),
            ]
        )
        assert tt.concurrency == [(0.0, 1), (100.0, 2), (200.0, 1), (400.0, 0)]
        assert tt.max_concurrent_trees() == 2
        # 1 tree for [0,100), 2 for [100,200), 1 for [200,400): mean 1.25
        assert tt.mean_concurrent_trees() == pytest.approx(1.25)
        stats = tt.stats()
        assert stats["max_concurrent_trees"] == 2
        assert stats["num_cfqs"] == 2
        assert stats["mean_lifetime"] == pytest.approx(250.0)

    def test_stats_on_empty_tracker(self):
        stats = TreeTracker(num_cfqs=2).stats()
        assert stats["trees"] == 0
        assert stats["max_concurrent_trees"] == 0
        assert stats["mean_concurrent_trees"] == 0.0
        assert stats["mean_lifetime"] is None


# ----------------------------------------------------------------------
# Sampler + bundle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sampled():
    """One short case-1 run with telemetry attached (shared by the
    bundle/exporter tests)."""
    return run_case(
        "case1",
        scheme="CCFIT",
        time_scale=SCALE,
        seed=1,
        telemetry=TelemetryConfig(interval=20_000.0),
    )


class TestSampler:
    def test_bundle_schema_and_json_round_trip(self, sampled):
        bundle = sampled.telemetry
        assert bundle is not None
        assert bundle["schema"] == "repro.telemetry/1"
        assert bundle["ticks"] > 0
        assert bundle["dropped"] == 0
        assert len(bundle["times"]) == bundle["ticks"]
        assert bundle["times"] == sorted(bundle["times"])
        assert len(bundle["network"]) == bundle["ticks"]
        for key in ("delivered_bytes", "allocated_cfqs", "cam_alloc_failures",
                    "buffered_bytes", "stop_lines", "advoq_bytes",
                    "throttled_destinations"):
            assert key in bundle["network"][-1]
        assert bundle["ports"] and bundle["nodes"] and bundle["links"]
        assert "tree_stats" in bundle and "trees" in bundle
        # JSON-safe by contract: the dict round-trips exactly
        assert json.loads(json.dumps(bundle)) == bundle

    def test_dropped_counts_ring_evictions(self):
        fab = build_fabric(CONFIG3.topo(), scheme="1Q", seed=1)
        cfg = TelemetryConfig(interval=1_000.0, series_capacity=8)
        sampler = TelemetrySampler(fab, config=cfg).start()
        fab.run(until=20_000.0)
        assert sampler.ticks == 20
        assert len(sampler.times) == 8
        assert sampler.times.dropped == 12
        assert sampler.dropped >= 12
        assert sampler.bundle()["dropped"] == sampler.dropped

    def test_double_start_rejected(self):
        fab = build_fabric(CONFIG3.topo(), scheme="1Q", seed=1)
        sampler = TelemetrySampler(fab).start()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_results_byte_identical_with_telemetry(self, sim_cls):
        """The acceptance gate: attaching the sampler changes no result
        field, on the production queue or the heap oracle — the bundle
        is purely additive."""
        def run(telemetry):
            return run_case(
                "case1",
                scheme="CCFIT",
                time_scale=SCALE,
                seed=1,
                sim_factory=sim_cls,
                telemetry=telemetry,
            )

        off = run(None).to_dict()
        on = run(TelemetryConfig(interval=50_000.0)).to_dict()
        assert on.pop("telemetry") is not None
        assert "telemetry" not in off
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)

    def test_bundle_survives_the_result_cache(self, tmp_path):
        job = SimJob(
            case="case1",
            scheme="1Q",
            time_scale=SCALE,
            seed=1,
            telemetry=TelemetryConfig(interval=50_000.0),
        )
        opts = SweepOptions(cache_dir=str(tmp_path))
        first = run_sweep([job], options=opts)
        second = run_sweep([job], options=opts)
        assert (first.misses, second.hits) == (1, 1)
        assert second.results[0].telemetry is not None
        assert second.results[0].telemetry == first.results[0].telemetry

    def test_telemetry_config_changes_cache_key(self):
        base = SimJob(case="case1", scheme="1Q", time_scale=SCALE, seed=1)
        tele = SimJob(
            case="case1",
            scheme="1Q",
            time_scale=SCALE,
            seed=1,
            telemetry=TelemetryConfig(),
        )
        assert "telemetry" not in base.payload()
        assert base.key() != tele.key()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_is_parseable_and_complete(self, sampled, tmp_path):
        bundle = sampled.telemetry
        path = write_jsonl(bundle, tmp_path / "t.jsonl")
        records = [json.loads(line) for line in open(path)]
        assert records[0]["record"] == "header"
        assert records[0]["schema"] == bundle["schema"]
        samples = [r for r in records if r["record"] == "sample"]
        assert len(samples) == bundle["ticks"]
        assert [r["t"] for r in samples] == bundle["times"]
        trees = [r for r in records if r["record"] == "tree"]
        assert len(trees) == len(bundle["trees"])

    def test_prometheus_exposition(self, sampled):
        text = render_prometheus(sampled.telemetry)
        assert "# HELP" in text and "# TYPE" in text
        for name in (
            "repro_telemetry_samples_total",
            "repro_delivered_bytes_total",
            "repro_port_queued_bytes",
            "repro_congestion_trees_total",
        ):
            assert name in text
        assert text.endswith("\n")

    def test_dashboard_is_self_contained_html(self, sampled):
        html = render_dashboard(sampled.telemetry, title="case1 CCFIT")
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "case1 CCFIT" in html
        assert "Congestion trees" in html

    def test_write_bundle_all_formats(self, sampled, tmp_path):
        written = write_bundle(sampled.telemetry, tmp_path, fmt="all")
        assert len(written) == 3
        names = {os.path.basename(p) for p in written}
        assert names == {"telemetry.jsonl", "metrics.prom", "dashboard.html"}
        for p in written:
            assert os.path.getsize(p) > 0

    def test_unknown_format_raises_keyerror(self, sampled, tmp_path):
        with pytest.raises(KeyError):
            write_bundle(sampled.telemetry, tmp_path, fmt="jsnl")
        assert "jsnl" not in TELEMETRY_FORMATS


# ----------------------------------------------------------------------
# The Fig. 8 claim, quantitatively (tier 2 — two Config #3 runs)
# ----------------------------------------------------------------------
@pytest.mark.tier2
def test_tree_tracker_reproduces_fig8_concurrency_claim():
    """Three co-located incast trees on Config #3 against a 2-CFQ pool:
    FBICM holds more simultaneous trees than it has CFQs for the whole
    run (and bleeds CAM-full events), while CCFIT's throttling drains
    trees — fewer simultaneous on average, more total lifecycles
    (generations close and re-form), fewer CAM-full events."""
    dests = [5, 21, 37]
    params = CCParams().with_overrides(
        cfq_high_dwell=5_000.0, cfq_rearm_window=5_000.0
    )
    end = 400_000.0
    stats, becns = {}, {}
    for scheme in ("FBICM", "CCFIT"):
        fab = build_fabric(CONFIG3.topo(), scheme=scheme, params=params, seed=1)
        trace = ProtocolTrace(limit=400_000).attach(fab)
        flows = []
        # three senders per leaf switch, one per hot destination, so
        # every source uplink carries flows of all three trees
        for leaf in (11, 12, 13, 14):
            base = leaf * 4
            for src, d in zip((base, base + 2, base + 3), dests):
                flows.append(
                    FlowSpec(f"H{src}d{d}", src=src, dst=d, rate=2.5,
                             start=20_000.0, end=end)
                )
        attach_traffic(fab, flows=flows)
        fab.run(until=end + 200_000.0)
        stats[scheme] = TreeTracker(num_cfqs=2).consume(trace.events).stats()
        becns[scheme] = fab.stats()["becns_received"]

    fb, cc = stats["FBICM"], stats["CCFIT"]
    # FBICM: the three trees outnumber the CFQ pool and never drain.
    assert fb["max_concurrent_trees"] == 3 > fb["num_cfqs"]
    assert fb["live_at_end"] == 3
    assert fb["mean_lifetime"] is None
    assert fb["cam_full_events"] > 0
    assert becns["FBICM"] == 0
    # CCFIT: throttling engages and trees actually drain — fewer
    # simultaneous trees on average, more total lifecycles, less CAM
    # pressure.
    assert becns["CCFIT"] > 0
    assert cc["trees"] > fb["trees"]
    assert cc["mean_lifetime"] is not None
    assert cc["mean_concurrent_trees"] < fb["mean_concurrent_trees"]
    assert cc["cam_full_events"] < fb["cam_full_events"]
