"""Axis conformance: every layer reads a cell's axes from one table.

``repro.experiments.sweep.AXES`` declares each axis of a cell once --
default, parser, key and wire encoders, label suffix, CLI flag, request
field, grid name.  These tests walk the table: for every row and a
value off its default, the key, the label, the wire spec, the grid
crossing, the command line and ``POST /experiments`` must all follow
the row, and a row changed under them must change them all -- which is
what fails when one of them is written by hand again.  Cells are only
declared here, never simulated.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.ccfit import SCHEMES
from repro.experiments import registry, sweep
from repro.experiments.runner import CASE_CONFIG
from repro.experiments.sweep import AXES, KNOBS, CellError, SimJob, read_axes
from repro.network.buffers import BUFFER_MODELS
from repro.network.routing import ROUTING_POLICIES
from repro.service import api, server
from repro.service.api import job_from_spec, job_to_spec
from repro.sim.faults import FaultPlan
from repro.telemetry import TelemetryConfig

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

#: per axis, one value off the default: the canonical value, the
#: command line that asks for it and the ``POST`` fields that do --
#: both spelt as a user might, not as the registry does.
SAMPLES = {
    "routing": ("adaptive", ["--routing", "ADAPTIVE"], {"routings": ["Adaptive"]}),
    "faults": (FaultPlan.parse(FLAP), ["--faults", FLAP], {"faults": FLAP}),
    "buffer_model": ("shared", ["--buffer-model", "Shared"], {"buffer_model": "SHARED"}),
    "telemetry": (
        TelemetryConfig(interval=50_000.0),
        ["--telemetry", "--telemetry-interval", "50000"],
        {"telemetry": True, "telemetry_interval": 50000},
    ),
}

#: the modules that read the table (each binds ``AXES`` by name).
READERS = (sweep, registry, api, server, cli)

BASE = SimJob("case4", "CCFIT", time_scale=0.5, seed=3, extra={"num_trees": 1})


def wire(job):
    """The spec as a worker receives it: through JSON."""
    return json.loads(json.dumps(job_to_spec(job)))


def test_every_row_has_a_sample():
    assert set(SAMPLES) == {axis.name for axis in AXES}


@pytest.mark.parametrize("axis", AXES, ids=lambda axis: axis.name)
class TestEveryAxis:
    def test_key_and_label_move_off_the_default(self, axis):
        value = SAMPLES[axis.name][0]
        off = dataclasses.replace(BASE, **{axis.name: value})
        assert off.key() != BASE.key()
        assert off.payload()[axis.name] == axis.key(value)
        assert off.suffix() == axis.suffix(value)
        # an axis with a sigil shows in the label, one without never does
        assert (off.label() != BASE.label()) == bool(axis.sigil)
        assert off.label() == f"case4/CCFIT{axis.suffix(value)}[num_trees=1]"

    def test_the_default_says_nothing(self, axis):
        assert axis.name not in BASE.payload()
        assert axis.name not in job_to_spec(BASE)
        assert BASE.suffix() == "" and BASE.label() == "case4/CCFIT[num_trees=1]"
        # given or not, None or spelt out: one cell, one object
        for spelt in (axis.default, None):
            assert dataclasses.replace(BASE, **{axis.name: spelt}) == BASE

    def test_spec_round_trips_to_an_equal_job(self, axis):
        value = SAMPLES[axis.name][0]
        off = dataclasses.replace(BASE, **{axis.name: value})
        assert job_to_spec(off)[axis.name] == axis.wire(value)
        for job in (BASE, off):
            back = job_from_spec(wire(job))
            assert back == job
            assert (back.key(), back.label()) == (job.key(), job.label())

    def test_command_line_and_post_body_declare_the_same_cells(self, axis):
        value, argv, body = SAMPLES[axis.name]
        args = cli.build_parser().parse_args(["--scale", "0.5", "--seed", "3", *argv,
                                              "sweep", "fig8a", "--schemes", "ccfit"])
        exp = registry.get("fig8a")
        from_cli = exp.jobs(schemes=("ccfit",), **cli._cell(args))
        _exp, from_post = server._resolve_submission(
            {"experiment": "fig8a", "schemes": ["ccfit"], "time_scale": 0.5, "seed": 3, **body})
        assert from_cli == from_post == [dataclasses.replace(BASE, **{axis.name: value})]

    def test_grid_crosses_what_is_listed(self, axis):
        value = SAMPLES[axis.name][0]
        exp = registry.get("fig8a")
        one = exp.jobs(schemes=("CCFIT",), **{axis.name: value})
        assert [getattr(j, axis.name) for j in one] == [value]
        if axis.listable:
            both = exp.jobs(schemes=("CCFIT",), **{axis.grid: (axis.default, value)})
            assert [getattr(j, axis.name) for j in both] == [axis.default, value]
        if axis.grid is not None:
            declared = dataclasses.replace(exp, **{axis.grid: (axis.default, value)})
            assert [getattr(j, axis.name) for j in declared.jobs(schemes=("CCFIT",))] \
                == [axis.default, value]

    def test_every_layer_follows_a_changed_row(self, axis, monkeypatch):
        """Swap the row for one with another sigil, text, key and wire
        encoding, help and request field: what any layer wrote by hand
        would stay behind."""

        def parse(raw, *more):  # reads the changed wire form back, else as the row does
            if isinstance(raw, list) and raw[:1] == ["wired"]:
                return axis.parse(raw[1])
            return axis.parse(raw, *more)

        value, _argv, body = SAMPLES[axis.name]
        changed = dataclasses.replace(
            axis, parse=parse, help="changed help", sigil="~", text=lambda v: "T",
            key=lambda v: ["keyed", axis.key(v)], wire=lambda v: ["wired", axis.wire(v)],
            grid="changes", baseline=True, listable=True,
        )
        rows = tuple(changed if row is axis else row for row in AXES)
        for module in READERS:
            monkeypatch.setattr(module, "AXES", rows)
        off = dataclasses.replace(BASE, **{axis.name: value})
        # key, label, wire
        assert off.payload()[axis.name] == ["keyed", axis.key(value)]
        assert off.label() == "case4/CCFIT~T[num_trees=1]"
        assert job_to_spec(off)[axis.name] == ["wired", axis.wire(value)]
        assert job_from_spec(wire(off)) == off
        # the grid: listed under the changed name; its default shows in result keys
        exp = registry.get("fig8a")
        crossed = exp.jobs(schemes=("CCFIT",), changes=(axis.default, value))
        assert [getattr(j, axis.name) for j in crossed] == [axis.default, value]
        assert BASE.suffix(crossed=[axis.name]) == "~T"
        assert [d["changes"] for d in registry.describe() if d["name"] == "fig8a"] == [["T"]]
        # the command line and the request: the changed help, the changed field
        (action,) = [a for a in cli.build_parser()._actions
                     if a.option_strings == [cli._flag(axis.name)]]
        assert (action.help, action.dest) == ("changed help", "changes")
        assert "changes" in read_axes({"changes": next(iter(body.values()))}.get)


def test_the_servers_fields_are_the_tables():
    fields = {"experiment", "schemes", "time_scale", "seed", "extra"}
    for axis in AXES:
        fields.add(axis.grid if axis.listable else axis.name)
        if axis.refine is not None:
            fields.add(axis.refine[0])
    assert server._SUBMISSION_FIELDS == fields
    # and each is a destination of the command line's parser
    dests = {action.dest for action in cli.build_parser()._actions}
    assert fields - {"experiment", "schemes", "time_scale", "extra"} <= dests


def test_result_keys_and_descriptors_follow_the_table():
    exp = registry.get("fault_resilience")
    (job,) = exp.jobs(schemes=("CCFIT",), routings=("adaptive",), buffer_model="shared")[:1]
    assert job.faults is None
    crossed = [axis.name for axis in AXES if exp.grid(axis)]
    assert job.scheme + job.suffix(crossed) == "CCFIT@adaptive+none%shared"
    described = {d["name"]: d for d in registry.describe()}
    assert described["fault_resilience"]["faults"] == ["none", "flap", "kill", "degrade"]
    assert described["case1"]["routings"] == ["det"]
    assert described["datacenter_incast"]["buffer_models"] == ["static", "shared"]


# ----------------------------------------------------------------------
# a cell is validated where it is constructed, once
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("kw, said", [
        (dict(time_scale=float("nan")), "time_scale"),
        (dict(time_scale=0), "time_scale"),
        (dict(time_scale=-1.0), "time_scale"),
        (dict(time_scale=float("inf")), "time_scale"),
        (dict(time_scale="fast"), "time_scale"),
        (dict(seed=-1), "seed"),
        (dict(seed=1.5), "seed"),
        (dict(seed=True), "seed"),
        (dict(scheme="CCFTI"), "did you mean CCFIT"),
        (dict(routing="adaptve"), "did you mean adaptive"),
        (dict(buffer_model="sharde"), "did you mean shared"),
        (dict(faults="kil:x@1ms"), "bad faults spec"),
        (dict(faults=""), "bad faults spec"),
        (dict(telemetry=TelemetryConfig(interval=0.0)), "telemetry_interval"),
        (dict(telemetry={"period": 5}), "bad telemetry config"),
        (dict(extra={"num_trees": 4}), "unknown knob 'num_trees'"),  # case1 takes none
        (dict(case="case4", extra={"num_tree": 4}), "did you mean num_trees"),
        (dict(case="case4", extra={"num_trees": 0}), "num_trees"),
        (dict(case="case4", extra={"num_trees": 2.5}), "num_trees"),
        (dict(case="case4", extra={"duration_ms": -3}), "duration_ms"),
    ])
    def test_a_cell_that_cannot_be_is_refused(self, kw, said):
        with pytest.raises(CellError, match=said):
            SimJob(**{"case": "case1", "scheme": "CCFIT", **kw})

    def test_equal_cells_are_equal_objects(self):
        plain = SimJob("case4", "CCFIT", extra=(("num_trees", 4), ("duration_ms", 3.0)))
        spelt = SimJob("case4", "ccfit", time_scale=1, routing="DET", buffer_model="Static",
                       faults=None, telemetry=False,
                       extra={"duration_ms": 3, "num_trees": 4})
        assert spelt == plain and hash(spelt) == hash(plain)
        assert spelt.key() == plain.key() and spelt.label() == plain.label()
        assert job_to_spec(spelt) == job_to_spec(plain)
        assert type(spelt.time_scale) is float

    def test_a_static_cell_leaves_the_params_model_alone(self, monkeypatch):
        """``buffer_model="static"`` is the axis at rest, not an
        override: the key says ``params`` decides, and so does the run
        (the two once disagreed for shared-pool params)."""
        from repro.core.params import CCParams

        job = SimJob("case1", "CCFIT", params=CCParams(buffer_model="shared"),
                     buffer_model="static")
        assert list(job.axes()) == []
        assert job.payload()["params"]["buffer_model"] == "shared"
        ran = {}
        monkeypatch.setattr(sweep, "run_case", lambda case, **kw: ran.update(kw))
        job.run()
        assert "buffer_model" not in ran and ran["params"].buffer_model == "shared"

    def test_interval_without_telemetry_is_an_error(self, capsys):
        with pytest.raises(CellError, match="telemetry is not on"):
            read_axes({"telemetry_interval": 50_000}.get)
        assert cli.main(["case", "1", "--telemetry-interval", "50000"]) == 2
        assert "telemetry is not on" in capsys.readouterr().err

    @pytest.mark.parametrize("body, said", [
        ({"extra": {"num_tree": 4}}, "did you mean num_trees"),
        ({"time_scale": 0}, "time_scale"),
        ({"seed": -1}, "seed"),
        ({"schemes": ["CCFTI"]}, "did you mean CCFIT"),
        ({"routings": ["adaptve"]}, "did you mean adaptive"),
        ({"buffer_model": "sharde"}, "did you mean shared"),
        ({"telemetry_interval": 50_000}, "telemetry is not on"),
        ({"routing": "adaptive"}, "did you mean routings"),
        ({"experiment": "fig8z"}, "did you mean fig8"),
    ])
    def test_a_bad_submission_is_a_bad_request(self, body, said):
        with pytest.raises(server._BadRequest, match=said):
            server._resolve_submission({"experiment": "fig8a", **body})


# ----------------------------------------------------------------------
# any valid cell survives the wire
# ----------------------------------------------------------------------
def spelt(names):
    """A registry's names, as they are or as a user might type them."""
    return st.sampled_from(sorted(names)).flatmap(
        lambda name: st.sampled_from([name, name.lower(), name.upper()]))


FAULT_SPECS = (FLAP, "kill:s0p4->s16p0@1.2ms;seed=7", "degrade:s16p4->s32p0@1.1ms:bw=0.25,drop=0.01")


@st.composite
def cells(draw):
    case = draw(st.sampled_from(sorted(CASE_CONFIG)))
    knobs = {
        "num_trees": st.integers(1, 8),
        "duration_ms": st.floats(0.5, 5.0),
    }
    assert set(knobs) == {k for per_case in KNOBS.values() for k in per_case}
    extra = draw(st.fixed_dictionaries({}, optional={k: knobs[k] for k in KNOBS.get(case, {})}))
    return SimJob(
        case=case,
        scheme=draw(spelt(SCHEMES)),
        time_scale=draw(st.floats(1e-3, 10.0)),
        seed=draw(st.integers(0, 2**31)),
        extra=extra,
        routing=draw(spelt(ROUTING_POLICIES)),
        buffer_model=draw(spelt(BUFFER_MODELS)),
        faults=draw(st.none() | st.sampled_from(FAULT_SPECS)
                    | st.builds(FaultPlan.parse, st.sampled_from(FAULT_SPECS),
                                name=st.sampled_from(["", "flap"]))),
        telemetry=draw(st.none() | st.just(True)
                       | st.builds(TelemetryConfig, interval=st.floats(1e3, 1e6))),
    )


@given(cells())
@settings(max_examples=150, deadline=None)
def test_any_valid_cell_round_trips(job):
    back = job_from_spec(wire(job))
    assert back == job
    assert (back.key(), back.label()) == (job.key(), job.label())
    # canonical on arrival: names as registered, the knobs sorted
    assert job.scheme in SCHEMES and job.routing in ROUTING_POLICIES
    assert job.buffer_model in BUFFER_MODELS and job.extra == tuple(sorted(job.extra))


def test_the_docs_list_every_row():
    """docs/sweep.md ("The job model") and docs/service.md ("Submission
    fields") are written from the table: a row they do not mention is
    an undocumented axis."""
    from pathlib import Path

    docs = Path(__file__).resolve().parent.parent / "docs"
    sweep_md, service_md = (docs / "sweep.md").read_text(), (docs / "service.md").read_text()
    fields = {f.name: f.default for f in dataclasses.fields(SimJob)}
    for axis in AXES:
        assert fields[axis.name] == axis.default  # the row and the field it names agree
        assert f"| `{axis.name}`" in sweep_md and cli._flag(axis.name) in sweep_md
        assert f"| `{axis.field}` |" in service_md
        if axis.refine is not None:
            assert f"| `{axis.refine[0]}` |" in service_md
