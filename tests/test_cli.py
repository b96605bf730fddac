"""CLI and cost-accounting tests."""

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


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Config #3" in out and "256" in out

    def test_case_runs(self, capsys):
        assert main(["--scale", "0.05", "case", "1", "--scheme", "1Q"]) == 0
        out = capsys.readouterr().out
        assert "F0" in out and "delivered_packets" in out

    def test_fig9_runs(self, capsys):
        assert main(["--scale", "0.05", "fig", "9"]) == 0
        out = capsys.readouterr().out
        assert "jain" in out

    def test_csv_export(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        assert main(["--scale", "0.05", "--csv", str(csv), "case", "1"]) == 0
        text = csv.read_text()
        assert text.startswith("scheme,time_ns,throughput_gbs")
        assert "CCFIT" in text

    def test_trees_command(self, capsys):
        assert main(["--scale", "0.05", "trees", "1", "--scheme", "1Q"]) == 0
        assert "burst-window throughput" in capsys.readouterr().out

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
        assert main(["--scale", "0.05", "--svg", str(svg), "fig", "7a"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "CCFIT" in text

    def test_svg_export_fig9_panels(self, tmp_path, capsys):
        base = tmp_path / "fig9.svg"
        assert main(["--scale", "0.05", "--svg", str(base), "fig", "9"]) == 0
        panels = sorted(p.name for p in tmp_path.glob("fig9*.svg"))
        assert panels == ["fig9a.svg", "fig9b.svg", "fig9c.svg", "fig9d.svg"]


class TestCliTelemetry:
    def test_telemetry_command_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "tele"
        rc = main(
            ["--scale", "0.02", "telemetry", "fig7a", "--scheme", "CCFIT",
             "--out", str(out), "--interval", "20000"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "telemetry:" in text and "samples" in text
        for name in ("telemetry.jsonl", "metrics.prom", "dashboard.html"):
            assert (out / name).is_file()

    def test_telemetry_flag_attaches_sampler_to_options(self):
        from repro.cli import _cell

        args = build_parser().parse_args(
            ["--scale", "0.05", "--telemetry", "--telemetry-interval", "40000",
             "case", "1"]
        )
        telemetry = _cell(args)["telemetry"]
        assert telemetry is not None
        assert telemetry.interval == 40_000.0
        plain = build_parser().parse_args(["--scale", "0.05", "case", "1"])
        assert _cell(plain)["telemetry"] is None

    def test_unknown_telemetry_format_exits_2(self, tmp_path, capsys):
        rc = main(
            ["telemetry", "fig7a", "--out", str(tmp_path), "--format", "jsnl"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "jsnl" in err and "did you mean" in err

    def test_unknown_experiment_name_exits_2(self, capsys):
        rc = main(["telemetry", "fig7z"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_scheme_names_match_case_insensitively(self, capsys):
        """The acceptance command spells it `--scheme ccfit`."""
        assert main(["--scale", "0.05", "case", "1", "--scheme", "ccfit"]) == 0
        assert "scheme CCFIT" in capsys.readouterr().out

    def test_case_runs_under_adaptive_routing(self, capsys):
        rc = main(["--scale", "0.05", "case", "1", "--scheme", "CCFIT",
                   "--routing", "adaptive"])
        assert rc == 0
        assert "scheme CCFIT" in capsys.readouterr().out

    def test_unknown_routing_policy_exits_2(self, capsys):
        assert main(["case", "1", "--routing", "adaptve"]) == 2
        err = capsys.readouterr().err
        assert "adaptve" in err and "did you mean" in err and "adaptive" in err

    def test_single_cell_commands_reject_routing_lists(self, capsys):
        assert main(["case", "1", "--routing", "det,adaptive"]) == 2
        assert "single --routing" in capsys.readouterr().err

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
            ["--kernel", "heap", "case", "1"],
            ["case", "1", "--kernel", "heap"],
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
            main(["--scale", "not-a-float", "case", "1"])
        assert exc.value.code == 2
