"""The ``repro perf`` harness: JSON report shape, the ``--check`` gates
and CLI smoke."""

import json

from repro.cli import main
from repro.perf import (
    check_report,
    dispatch_microbench,
    render_report,
    run_perf,
    subsystem_counts,
    telemetry_overhead,
)


def test_dispatch_microbench_counts_events():
    m = dispatch_microbench(n_events=5_000, repeats=1)
    assert m["events"] == 5_000
    assert m["events_per_s"] > 0
    assert m["wall_s"] > 0


def test_subsystem_counts_folds_qualnames():
    counts = {
        "Link._tx_done": 10,
        "Link._deliver": 10,
        "Switch._match": 5,
        "InputPort.receive_packet": 2,
        "EndNode._inject": 3,
        "FlowGenerator._tick": 4,
        "weird_function": 1,
    }
    subs = subsystem_counts(counts)
    assert subs["link"] == 20
    assert subs["switch"] == 7
    assert subs["endnode"] == 3
    assert subs["traffic"] == 4
    assert subs["other"] == 1


def test_run_perf_report_shape():
    report = run_perf(
        cases=("case1",),
        schemes=("1Q", "CCFIT"),
        time_scale=0.02,
        seed=1,
        micro_events=5_000,
        micro_repeats=1,
    )
    assert report["schema"] == "repro.perf/2"
    assert report["microbench"]["events"] == 5_000
    assert "speedup" not in report and "speedup_batch" not in report
    assert [row["scheme"] for row in report["cases"]] == ["1Q", "CCFIT"]
    for row in report["cases"]:
        assert row["events"] > 0
        assert row["events_per_s"] > 0
        assert "subsystems" in row and row["subsystems"]
        assert "kernel" not in row
    assert len(report["telemetry"]) == 1
    assert all(row["byte_identical"] for row in report["telemetry"])
    assert render_report(report)  # renders without blowing up


def test_telemetry_overhead_gate():
    """Sampling must leave the results byte-identical and report a
    finite overhead measurement."""
    row = telemetry_overhead(
        "case1", "1Q", time_scale=0.02, seed=1, interval=50_000.0, repeats=1,
    )
    assert row["byte_identical"] is True
    assert row["samples"] > 0
    assert row["events"] > 0
    assert row["wall_on_s"] > 0 and row["wall_off_s"] > 0
    assert isinstance(row["overhead_pct"], float)


def _report(**over):
    base = {
        "schema": "repro.perf/2",
        "microbench": {"events": 300_000},
        "routing": {"ok": True, "overhead_pct": 1.0, "gate_pct": 5.0},
        "telemetry": [{"case": "case1", "scheme": "CCFIT", "byte_identical": True}],
    }
    base.update(over)
    return base


def test_check_report_passes_on_a_clean_report():
    ok, lines = check_report(_report())
    assert ok, lines
    assert all(line.startswith("ok") for line in lines)


def test_check_report_routing_and_telemetry_gates():
    bad_routing = _report(routing={"ok": False, "overhead_pct": 9.0, "gate_pct": 5.0})
    ok, lines = check_report(bad_routing)
    assert not ok
    assert any(line.startswith("FAIL routing") for line in lines)
    bad_tele = _report(
        telemetry=[{"case": "case1", "scheme": "CCFIT", "byte_identical": False}]
    )
    ok, lines = check_report(bad_tele)
    assert not ok
    assert any(line.startswith("FAIL telemetry") for line in lines)


def test_cli_perf_quick_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    rc = main(["perf", "--quick", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.perf/2"
    assert report["quick"] is True
    assert report["microbench"]["events_per_s"] > 0
    assert report["cases"], "expected at least one case row"
    assert capsys.readouterr().out.strip()


def test_cli_perf_rejects_unknown_case_and_scheme(tmp_path):
    assert main(["perf", "--case", "nope", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["perf", "--schemes", "XX", "--out", str(tmp_path / "x.json")]) == 2
