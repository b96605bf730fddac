"""Experiment registry: name resolution, job decomposition, CLI wiring."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import Experiment
from repro.experiments.runner import FIG8_SCHEMES, PAPER_SCHEMES, CaseResult
from repro.experiments.sweep import SweepOptions


class TestRegistryContents:
    def test_every_figure_and_case_is_registered(self):
        expected = {
            "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c",
            "fig9", "fig10", "case1", "case2", "case3", "case4",
        }
        assert expected <= set(registry.names())

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="fig9"):
            registry.get("fig99")

    def test_figure_scheme_lists_match_paper(self):
        assert registry.get("fig9").schemes == PAPER_SCHEMES
        assert registry.get("fig8b").schemes == FIG8_SCHEMES

    def test_fig8_panels_carry_tree_counts(self):
        assert dict(registry.get("fig8a").extra)["num_trees"] == 1
        assert dict(registry.get("fig8b").extra)["num_trees"] == 4
        assert dict(registry.get("fig8c").extra)["num_trees"] == 6

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError):
            registry.register(
                Experiment("fig9", "dup", case="case1", schemes=("1Q",))
            )

    def test_exported_from_package(self):
        import repro.experiments as ex

        assert ex.registry is registry
        assert ex.Experiment is Experiment


class TestJobDecomposition:
    def test_one_job_per_scheme(self):
        jobs = registry.get("fig9").jobs(time_scale=0.1, seed=7)
        assert [j.scheme for j in jobs] == list(PAPER_SCHEMES)
        assert all(j.case == "case1" for j in jobs)
        assert all(j.seed == 7 and j.time_scale == 0.1 for j in jobs)

    def test_scheme_subset(self):
        jobs = registry.get("fig9").jobs(schemes=("CCFIT",))
        assert [j.scheme for j in jobs] == ["CCFIT"]

    def test_extra_override(self):
        jobs = registry.get("case4").jobs(schemes=("1Q",), num_trees=6)
        assert dict(jobs[0].extra)["num_trees"] == 6

    def test_same_cell_shares_cache_key_across_experiments(self):
        """fig7a and fig9 both decompose into case1 cells — one
        simulation feeds both figures through the cache."""
        j7 = registry.get("fig7a").jobs(time_scale=0.1)[0]
        j9 = registry.get("fig9").jobs(time_scale=0.1)[0]
        assert j7.key() == j9.key()


class TestRegistryRun:
    def test_run_single_scheme(self):
        results, report = registry.get("case1").run(schemes=("1Q",), time_scale=0.02)
        assert isinstance(results["1Q"], CaseResult)
        assert report.misses == 1 and report.hits == 0

    def test_run_takes_the_cell_as_keywords(self, tmp_path):
        """The options say how the grid runs, the keywords which cells:
        there is no second place a cell field could come from."""
        results, report = registry.get("case1").run(
            schemes=("1Q",),
            options=SweepOptions(cache_dir=str(tmp_path)),
            time_scale=0.02,
            seed=2,
        )
        assert results["1Q"].duration == pytest.approx(0.02 * 10e6)
        assert [(j.time_scale, j.seed) for j in report.jobs] == [(0.02, 2)]
        with pytest.raises(TypeError):
            SweepOptions(time_scale=0.5)


class TestCliWiring:
    def test_sweep_choices_come_from_registry(self, capsys):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["sweep", "fig9"])
        assert args.name == "fig9" and args.command == "sweep"
        # unknown names exit 2 with a did-you-mean instead of a traceback
        assert main(["sweep", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err and "did you mean" in err

    def test_unknown_scheme_did_you_mean(self, capsys):
        from repro.cli import main

        assert main(["case", "1", "--scheme", "CCFTI"]) == 2
        err = capsys.readouterr().err
        assert "did you mean CCFIT" in err
        # names match case-insensitively, so "ITH" is ITh, not a typo
        assert main(["sweep", "fig9", "--schemes", "CCFIT,ITx"]) == 2
        assert "unknown scheme 'ITx'" in capsys.readouterr().err

    def test_engine_options_both_positions(self):
        from repro.cli import build_parser

        before = build_parser().parse_args(["--jobs", "4", "sweep", "fig9"])
        after = build_parser().parse_args(["sweep", "fig9", "--jobs", "4"])
        assert before.jobs == after.jobs == 4
        assert before.cache_dir is None and not before.no_cache

    def test_sweep_list(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "case4" in out

    def test_cli_sweep_serial_cached(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["--scale", "0.02", "sweep", "case1", "--schemes", "1Q",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "1 simulated" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 cache hit(s)" in capsys.readouterr().out

    def test_cli_fig_matches_sweep_output(self, tmp_path, capsys):
        """`repro sweep fig9` reports the same per-flow table as the
        serial `repro fig 9` path (the acceptance contract)."""
        from repro.cli import main

        assert main(["--scale", "0.02", "fig", "9"]) == 0
        fig_out = capsys.readouterr().out
        assert main(["--scale", "0.02", "sweep", "fig9",
                     "--cache-dir", str(tmp_path)]) == 0
        sweep_out = capsys.readouterr().out
        table = lambda out: [l for l in out.splitlines() if " | " in l]
        assert table(fig_out) and table(fig_out) == table(sweep_out)
