"""PFC scheme + buffer-model plumbing tests (docs/buffers.md).

Covers the three contracts of the shared-buffer PR:

* the static model is the golden default — picking it explicitly is
  byte-identical to not picking anything, on the production queue and
  on the heap oracle;
* the PFC/PFC+RCM schemes and the shared model run end to end under
  the invariant guard, and the shared model actually pauses;
* the plumbing edges: cache-key discipline, case-insensitive CLI
  resolution with a did-you-mean exit.
"""


import pytest

from repro.cli import _cell, build_parser, main
from repro.core.ccfit import SCHEMES
from repro.core.params import CCParams
from repro.experiments.runner import run_case
from repro.experiments.sweep import SimJob

MTU = 2048

#: small pool + aggressive threshold so Case #1's hotspot pauses fast.
TIGHT = CCParams(memory_size=16 * MTU, shared_alpha=0.5)


class TestStaticEquivalence:
    def test_static_model_is_byte_identical(self, sim_cls):
        base = run_case("case1", scheme="CCFIT", time_scale=0.05, sim_factory=sim_cls)
        static = run_case(
            "case1", scheme="CCFIT", time_scale=0.05, sim_factory=sim_cls,
            buffer_model="static",
        )
        assert static.to_dict() == base.to_dict()

    def test_static_result_omits_the_field(self):
        res = run_case("case1", scheme="CCFIT", time_scale=0.05)
        assert "buffer_model" not in res.to_dict()
        assert res.buffer_model == "static"

    def test_shared_result_records_the_field(self):
        res = run_case(
            "case1", scheme="CCFIT", time_scale=0.05, buffer_model="shared",
        )
        assert res.to_dict()["buffer_model"] == "shared"
        assert res.buffer_model == "shared"

    def test_unknown_model_rejected_at_build(self):
        with pytest.raises(KeyError, match="unknown buffer model 'elastic'"):
            run_case("case1", scheme="CCFIT", time_scale=0.05,
                     buffer_model="elastic")


class TestPfcSchemes:
    def test_registered(self):
        assert "PFC" in SCHEMES and "PFC+RCM" in SCHEMES

    def test_pfc_runs_and_pauses_under_guard(self):
        res = run_case(
            "case1", scheme="PFC", time_scale=0.05, params=TIGHT,
            buffer_model="shared",
        )
        assert res.stats["pfc_pauses_sent"] > 0
        assert res.stats["delivered_packets"] > 0
        assert res.stats["shared_pool_peak"] > 0

    def test_pfc_rcm_damps_the_pause_storm(self):
        bare = run_case("case1", scheme="PFC", time_scale=0.05,
                        params=TIGHT, buffer_model="shared")
        stacked = run_case("case1", scheme="PFC+RCM", time_scale=0.05,
                           params=TIGHT, buffer_model="shared")
        assert stacked.stats["becns_received"] > 0  # RCM's loop engaged
        assert stacked.stats["pfc_pauses_sent"] < bare.stats["pfc_pauses_sent"]

    def test_pfc_is_inert_under_static_buffers(self):
        res = run_case("case1", scheme="PFC", time_scale=0.05)
        assert res.stats["delivered_packets"] > 0
        assert "pfc_pauses_sent" not in res.stats


class TestPlumbing:
    def test_cache_key_discipline(self):
        j0 = SimJob(case="case1", scheme="CCFIT")
        j_static = SimJob(case="case1", scheme="CCFIT", buffer_model="static")
        j_shared = SimJob(case="case1", scheme="CCFIT", buffer_model="shared")
        assert j_static.key() == j0.key()
        assert j_shared.key() != j0.key()
        assert j_shared.label().endswith("%shared")
        assert "%" not in j_static.label()

    def test_datacenter_incast_registered(self):
        from repro.experiments import registry

        exp = registry.get("datacenter_incast")
        assert exp.kind == "buffers"
        assert exp.buffer_models == ("static", "shared")
        assert "PFC+RCM" in exp.schemes and "CCFIT" in exp.schemes
        labels = [j.label() for j in exp.jobs()]
        assert "case4/CCFIT%shared[num_trees=1]" in labels

    def test_render_pfc_matrix(self):
        from repro.experiments.report import render_pfc_matrix

        res_static = run_case("case1", scheme="CCFIT", time_scale=0.05)
        res_shared = run_case("case1", scheme="PFC", time_scale=0.05,
                              params=TIGHT, buffer_model="shared")
        out = render_pfc_matrix({"CCFIT": res_static, "PFC%shared": res_shared})
        assert "PAUSE storms" in out
        assert "static" in out and "shared" in out


class TestCliResolution:
    @staticmethod
    def cell(*flags):
        return _cell(build_parser().parse_args([*flags, "sweep", "case1"]))

    def test_flag_absent_means_none(self):
        assert "buffer_model" not in self.cell()

    def test_case_insensitive(self):
        assert self.cell("--buffer-model", "SHARED")["buffer_model"] == "shared"
        assert self.cell("--buffer-model", "Static")["buffer_model"] == "static"

    def test_typo_exits_2_with_hint(self, capsys):
        assert main(["sweep", "case1", "--buffer-model", "sharde", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "did you mean shared" in err

    def test_end_to_end_flag(self, capsys):
        rc = main(["--scale", "0.02", "sweep", "case1", "--scheme", "CCFIT",
                   "--buffer-model", "shared", "--no-cache"])
        assert rc == 0
        assert "delivered_packets" in capsys.readouterr().out
