"""CLI and cost-accounting tests."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.params import CCParams
from repro.experiments.configs import CONFIG1, CONFIG3
from repro.experiments.costs import cost_table, scheme_cost


class TestCosts:
    def test_voqnet_cost_matches_paper(self):
        """§IV-A: VOQnet on the 64-node network needs 256 KiB ports."""
        c = scheme_cost("VOQnet", CONFIG3.topo())
        assert c.memory_per_port == 256 * 1024
        assert c.queues_per_port == 64

    def test_ccfit_cost_is_small(self):
        c = scheme_cost("CCFIT", CONFIG3.topo())
        assert c.queues_per_port == 3  # NFQ + 2 CFQs
        assert c.cam_lines_per_port == 2
        assert c.memory_per_port == 64 * 1024

    def test_ith_uses_voqs(self):
        c = scheme_cost("ITh", CONFIG3.topo())
        assert c.queues_per_port == 8

    def test_total_memory_scales_with_ports(self):
        c1 = scheme_cost("1Q", CONFIG1.topo())
        assert c1.total_ports == 4 + 5
        assert c1.total_memory == 9 * 64 * 1024

    def test_cost_table_rows(self):
        rows = cost_table(CONFIG3.topo())
        schemes = [r["scheme"] for r in rows]
        assert "CCFIT" in schemes and "VOQnet" in schemes
        voqnet = next(r for r in rows if r["scheme"] == "VOQnet")
        assert voqnet["memory/port KiB"] == "256"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError):
            scheme_cost("QUIC", CONFIG1.topo())

    def test_custom_params_respected(self):
        c = scheme_cost("FBICM", CONFIG1.topo(), CCParams(num_cfqs=4))
        assert c.queues_per_port == 5

    @pytest.mark.parametrize("scheme,queues", [("VOQsw", 8), ("ITh", 8), ("RCM", 8), ("DBBM", 4)])
    def test_num_voqs_is_dbbm_buckets(self, scheme, queues):
        """``num_voqs`` is DBBM's bucket count: a VOQsw-family port
        builds one VOQ per switch port (8 on Config #3) whatever it says."""
        c = scheme_cost(scheme, CONFIG3.topo(), CCParams(num_voqs=4))
        assert c.queues_per_port == queues


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Config #3" in out and "256" in out

    def test_the_commands(self, capsys):
        """One command runs an experiment, and writes its telemetry
        bundles too; the sampling period is the axis's own flag."""
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{table1,sweep,serve,worker,cache}" in out
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--telemetry-interval" in out and "--interval " not in out and "--out DIR" in out

    def test_case_runs(self, capsys):
        """A one-cell grid prints the flow table and the cell's counters."""
        assert main(["--scale", "0.05", "sweep", "case1", "--schemes", "1Q", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "jain" in out and "F0" in out and "delivered_packets" in out

    def test_fig9_runs(self, capsys):
        assert main(["--scale", "0.05", "sweep", "fig9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "jain" in out and "delivered_packets" not in out

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["--scale", "0.05", "--csv", str(csv), "sweep", "case1",
                     "--schemes", "CCFIT", "--no-cache"]) == 0
        text = csv.read_text()
        assert text.startswith("scheme,time_ns,throughput_gbs")
        assert "CCFIT" in text

    def test_trees_command(self, capsys):
        """The Case #4 probe at N trees is `sweep case4 --num-trees N`;
        its burst-window throughput is the `burst` column of the Fig. 8
        summary."""
        assert main(["--scale", "0.05", "sweep", "case4", "--schemes", "1Q",
                     "--num-trees", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert any(line.split(" | ")[:3] == ["scheme", "pre-burst", "burst"]
                   for line in out.splitlines())
        assert "delivered_packets" in out

    @pytest.mark.parametrize("flag, value, knob", [
        ("--num-trees", "2", ("num_trees", 2)),
        ("--duration-ms", "1.5", ("duration_ms", 1.5)),
    ])
    def test_a_knob_flag_runs_the_cell_a_request_names(self, tmp_path, flag, value, knob, capsys):
        """A knob's flag is the knob's value in a request's `extra`: the
        cell it runs has the key of the cell `Experiment.jobs` builds
        with that knob (`trees 2 --scheme 1Q` ran it, before `sweep`
        took knob flags)."""
        from repro.experiments import registry

        manifest = tmp_path / "manifest.json"
        assert main(["--scale", "0.01", "sweep", "case4", "--schemes", "1Q", flag, value,
                     "--no-cache", "--manifest", str(manifest)]) == 0
        (job,) = registry.get("case4").jobs(schemes=("1Q",), time_scale=0.01, seed=1,
                                            **dict([knob]))
        cells = json.loads(manifest.read_text())["jobs"]
        assert [cell["key"] for cell in cells] == [job.key()]

    @pytest.mark.parametrize("argv, bad", [
        (["sweep", "fig7a", "--num-trees", "2"], ("case1", "num_trees", 2)),
        (["sweep", "case4", "--num-trees", "0"], ("case4", "num_trees", 0)),
        (["sweep", "case4", "--duration-ms", "fast"], ("case4", "duration_ms", "fast")),
        (["sweep", "case4", "--num-trees", "null"], ("case4", "num_trees", None)),
    ])
    def test_a_bad_knob_exits_2_with_the_text_of_a_400(self, argv, bad, capsys):
        """A case that does not take the knob, or a value its parser in
        `KNOBS` refuses, exits 2 saying what `POST /experiments` says."""
        from repro.experiments.sweep import SimJob
        from repro.registry import CellError
        from repro.service.server import _BadRequest, _resolve_submission

        case, name, value = bad
        with pytest.raises(CellError) as exc:
            SimJob(case, "CCFIT", extra=((name, value),))
        assert main([*argv, "--no-cache"]) == 2
        assert capsys.readouterr().err == f"repro: {exc.value}\n"
        with pytest.raises(_BadRequest, match=re.escape(str(exc.value))):
            _resolve_submission({"experiment": argv[1], "extra": {name: value}})

    def test_no_cache_leaves_the_cache_dir_empty(self, tmp_path, capsys):
        """``--no-cache`` wins over ``--cache-dir``: twice, nothing is
        read from it or written to it."""
        argv = ["--scale", "0.05", "sweep", "fig7a", "--schemes", "1Q",
                "--cache-dir", str(tmp_path), "--no-cache"]
        for _ in range(2):
            assert main(argv) == 0
            assert "0 cache hit(s)" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_svg_export_fig7(self, tmp_path, capsys):
        svg = tmp_path / "fig7a.svg"
        assert main(["--scale", "0.05", "--svg", str(svg), "sweep", "fig7a", "--no-cache"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "CCFIT" in text

    def test_svg_export_fig9_panels(self, tmp_path, capsys):
        base = tmp_path / "fig9.svg"
        assert main(["--scale", "0.05", "--svg", str(base), "sweep", "fig9", "--no-cache"]) == 0
        panels = sorted(p.name for p in tmp_path.glob("fig9*.svg"))
        assert panels == ["fig9a.svg", "fig9b.svg", "fig9c.svg", "fig9d.svg"]


class TestCliTelemetry:
    def test_sweep_out_writes_the_bundles_cold_and_warm(self, tmp_path, capsys):
        """`sweep --telemetry --out DIR` writes each cell's bundle into
        DIR/<result key>/; run again on the same cache, the cell is a
        hit and its bundle is exported from the cache, byte for byte."""
        names = ("telemetry.jsonl", "metrics.prom", "dashboard.html")
        written = {}
        for run in ("cold", "warm"):
            out = tmp_path / run
            assert main(["--scale", "0.02", "sweep", "fig7a", "--schemes", "CCFIT",
                         "--telemetry", "--telemetry-interval", "20000",
                         "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 0
            text = capsys.readouterr().out
            assert f"{'1' if run == 'warm' else '0'} cache hit(s)" in text
            assert sorted(p.name for p in (out / "CCFIT").iterdir()) == sorted(names)
            written[run] = {name: (out / "CCFIT" / name).read_bytes() for name in names}
        assert written["warm"] == written["cold"]
        head = json.loads(written["cold"]["telemetry.jsonl"].splitlines()[0])
        assert head["config"]["interval"] == 20_000.0
        title = "Fig. 7a — network throughput vs time (Config #1 / Case #1) — CCFIT"
        assert f"<title>{title}</title>" in written["cold"]["dashboard.html"].decode()

    def test_out_without_telemetry_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "fig7a", "--no-cache", "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == "repro: --out is given but telemetry is not on\n"
        assert not (tmp_path / "t").exists()

    def test_telemetry_flag_attaches_sampler_to_options(self):
        from repro.cli import _cell

        args = build_parser().parse_args(
            ["--scale", "0.05", "--telemetry", "--telemetry-interval", "40000",
             "sweep", "case1"]
        )
        telemetry = _cell(args)["telemetry"]
        assert telemetry is not None
        assert telemetry.interval == 40_000.0
        plain = build_parser().parse_args(["--scale", "0.05", "sweep", "case1"])
        assert _cell(plain)["telemetry"] is None

    def test_unknown_experiment_name_exits_2(self, capsys):
        rc = main(["sweep", "fig7z"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_scheme_names_match_case_insensitively(self, capsys):
        """The acceptance command spells it `--scheme ccfit`."""
        assert main(["--scale", "0.05", "sweep", "case1", "--scheme", "ccfit", "--no-cache"]) == 0
        assert "scheme CCFIT" in capsys.readouterr().out

    def test_case_runs_under_adaptive_routing(self, capsys):
        rc = main(["--scale", "0.05", "sweep", "case1", "--scheme", "CCFIT",
                   "--routing", "adaptive", "--no-cache"])
        assert rc == 0
        assert "scheme CCFIT" in capsys.readouterr().out

    def test_unknown_routing_policy_exits_2(self, capsys):
        assert main(["sweep", "case1", "--routing", "adaptve", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "adaptve" in err and "did you mean" in err and "adaptive" in err

    def test_sweep_list_shows_routing_grid(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "routing_grid" in out and "flowlet" in out


class TestCliErrors:
    def test_unknown_subcommand_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweeo", "fig9"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "sweeo" in err and "did you mean" in err and "sweep" in err

    def test_garbled_subcommand_without_close_match(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zzqx"])
        assert exc.value.code == 2
        assert "unknown command" in capsys.readouterr().err

    def test_removed_perf_command_is_an_unknown_command(self, capsys):
        """The `perf` command went with its harness (benchmarks/e2e is the one
        instrument): no stub, the same hint + exit 2 as any typo."""
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--quick"])
        assert exc.value.code == 2
        assert "unknown command 'perf'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kernel", "heap", "sweep", "case1"],
            ["sweep", "case1", "--kernel", "heap"],
            ["sweep", "fig9", "--kernel", "heap"],
        ],
    )
    def test_removed_kernel_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        if argv[0] != "--kernel":  # up front, argparse blames the stray "heap" instead
            assert "--kernel" in capsys.readouterr().err

    def test_other_parse_errors_keep_argparse_contract(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "not-a-float", "sweep", "case1"])
        assert exc.value.code == 2
