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
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.ccfit import SCHEMES
from repro.core.params import CCParams
from repro.experiments import registry, sweep
from repro.experiments.runner import CASE_CONFIG
from repro.experiments.sweep import AXES, KNOBS, CellError, SimJob, read_axes
from repro.network.buffers import BUFFER_MODELS
from repro.network.routing import ROUTING_POLICIES
from repro.service import api, server
from repro.service.api import job_from_spec, job_to_spec
from repro.sim.faults import FaultPlan

FLAP = "down:s0p4->s16p0@1.2ms;up:s0p4->s16p0@1.5ms"

#: per axis, one value off the default: the canonical value, the
#: command line that asks for it and the ``POST`` fields that do --
#: both spelt as a user might, not as the registry does.
SAMPLES = {
    "routing": ("adaptive", ["--routing", "ADAPTIVE"], {"routings": ["Adaptive"]}),
    "faults": (FaultPlan.parse(FLAP), ["--faults", FLAP], {"faults": FLAP}),
    "buffer_model": ("shared", ["--buffer-model", "Shared"], {"buffer_model": "SHARED"}),
    "telemetry": (50_000.0, ["--telemetry", "5e4"], {"telemetry": 50000}),
}

#: the modules that read the table (each binds ``AXES`` by name).
READERS = (sweep, registry, api, server, cli)

BASE = SimJob("case4", "CCFIT", time_scale=0.5, seed=3, extra={"num_trees": 1})


def wire(job):
    """The spec as a worker receives it: through JSON."""
    return json.loads(json.dumps(job_to_spec(job)))


def test_every_row_has_a_sample():
    assert set(SAMPLES) == {axis.name for axis in AXES}


def test_names_parse_through_their_registry(monkeypatch):
    parsers = {axis.name: axis.parse for axis in AXES}
    assert parsers["routing"] == ROUTING_POLICIES.parse
    assert parsers["buffer_model"] == BUFFER_MODELS.parse
    asked = []
    monkeypatch.setattr(SCHEMES, "parse", lambda raw: asked.append(raw) or "CCFIT")
    assert SimJob("case1", "ccfti").scheme == "CCFIT" and asked == ["ccfti"]


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
        given = next(iter(body.values()))
        listed = given if isinstance(given, list) else [given]
        assert "changes" in read_axes({"changes": listed}.get)


def test_the_servers_fields_are_the_tables():
    fields = {"experiment", "schemes", "time_scale", "seed", "extra"}
    for axis in AXES:
        fields.add(axis.grid if axis.listable else axis.name)
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
        (dict(telemetry=0), "sampling period in ns"),
        (dict(telemetry={"interval": 50000}), "{'interval': 50000}"),
        (dict(extra={"num_trees": 4}), "case1: unknown knob 'num_trees' (case1 takes no knobs)"),
        (dict(case="case4", extra={"num_tree": 4}), "did you mean num_trees"),
        (dict(case="case4", extra={"num_trees": 0}), "num_trees"),
        (dict(case="case4", extra={"num_trees": 2.5}), "num_trees"),
        (dict(case="case4", extra={"duration_ms": -3}), "duration_ms"),
        (dict(time_scale=True), "time_scale must be a finite number > 0, not True"),
        (dict(case="case4", extra={"duration_ms": True}), "duration_ms"),
        (dict(telemetry=-1), "not -1"),
        (dict(telemetry={"series_capacity": 1024}), "'series_capacity'"),
        (dict(telemetry=float("inf")), "not inf"),
        (dict(telemetry=float("nan")), "not nan"),
        (dict(telemetry=[50000]), "not [50000]"),
        # a number field takes numbers, as seed does: not text float() reads
        (dict(time_scale="0.5"), "time_scale must be a finite number > 0, not '0.5'"),
        (dict(telemetry="5e4"), "not '5e4'"),
        (dict(case="case4", extra={"duration_ms": "3"}), "duration_ms"),
        (dict(time_scale=10**400), "time_scale"),
    ])
    def test_a_cell_that_cannot_be_is_refused(self, kw, said):
        with pytest.raises(CellError, match=re.escape(said)):
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
        # a sampling period is one float, however a request spells it
        sampled = SimJob("case1", "CCFIT", telemetry=50_000.0)
        for period in (50000, 5e4, read_axes({"telemetry": 50000}.get)["telemetry"],
                       cli._cell(cli.build_parser().parse_args(
                           ["--telemetry", "5e4", "sweep", "case1"]))["telemetry"]):
            again = SimJob("case1", "CCFIT", telemetry=period)
            assert again == sampled and again.key() == sampled.key()
            assert type(again.telemetry) is float

    def test_true_is_the_default_period(self):
        """``true`` reads as the sampler's 100 µs, from a cell, a
        request and a command line alike; ``false`` is off."""
        on = SimJob("case1", "CCFIT", telemetry=True)
        assert on.telemetry == 100_000.0 and on == SimJob("case1", "CCFIT", telemetry=1e5)
        assert read_axes({"telemetry": True}.get)["telemetry"] == 100_000.0
        args = cli.build_parser().parse_args(["--telemetry", "true", "sweep", "case1"])
        assert cli._cell(args)["telemetry"] == 100_000.0
        assert read_axes({"telemetry": False}.get)["telemetry"] is None
        assert SimJob("case1", "CCFIT", telemetry=False) == SimJob("case1", "CCFIT")

    def test_interval_without_telemetry_is_an_error(self, capsys):
        """The period is the telemetry value itself: the separate
        interval field and flag are gone, and giving one is refused,
        never ignored (a hint over HTTP, exit 2 on the command line)."""
        with pytest.raises(server._BadRequest, match="did you mean telemetry"):
            server._resolve_submission({"experiment": "case1", "telemetry_interval": 50_000})
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "case1", "--telemetry-interval", "50000", "--no-cache"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --telemetry-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -1, "5e4", {"interval": 50000}],
                             ids=["zero", "negative", "text", "object"])
    def test_a_bad_period_is_refused_by_cli_and_http(self, value, capsys):
        """The CLI reads its word as JSON (``'"5e4"'`` is the text) and
        exits 2; a request answers 400; neither runs anything."""
        word = json.dumps(value)
        args = cli.build_parser().parse_args(["--telemetry", word, "sweep", "case1"])
        with pytest.raises(CellError, match="sampling period in ns"):
            cli._cell(args)
        assert cli.main(["sweep", "case1", "--telemetry", word, "--no-cache"]) == 2
        assert "sampling period in ns" in capsys.readouterr().err
        with pytest.raises(server._BadRequest, match="sampling period in ns"):
            server._resolve_submission({"experiment": "case1", "telemetry": value})

    @pytest.mark.parametrize("body, said", [
        ({"extra": {"num_tree": 4}}, "did you mean num_trees"),
        ({"time_scale": 0}, "time_scale"),
        ({"seed": -1}, "seed"),
        ({"schemes": ["CCFTI"]}, "did you mean CCFIT"),
        ({"routings": ["adaptve"]}, "did you mean adaptive"),
        ({"buffer_model": "sharde"}, "did you mean shared"),
        ({"telemetry_interval": 50_000}, "did you mean telemetry"),
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
        telemetry=draw(st.none() | st.booleans() | st.floats(1e3, 1e6) | st.integers(1, 10**6)),
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


def overrides():
    """Some fields of ``CCParams`` set to values of their type."""
    values = {int: st.integers(-2**40, 2**40), str: st.text(max_size=8),
              float: st.floats(allow_nan=False) | st.integers(-10, 10),
              bool: st.booleans()}
    out = {}
    for f in dataclasses.fields(CCParams):
        default = getattr(CCParams(), f.name)
        out[f.name] = (st.lists(st.floats(0.0, 1e9), max_size=130) if isinstance(default, list)
                       else values[type(default)])
    return st.fixed_dictionaries({}, optional=out)


@given(cells(), st.none() | overrides())
@settings(max_examples=150, deadline=None)
def test_the_spliced_preimage_is_the_canonical_payload(job, params):
    """``preimage()`` splices the default ``CCParams``' bytes, encoded
    once per process, between the fields sorted around ``params``: it
    must be the canonical JSON of ``payload()`` for any cell.  Explicit
    params are encoded on every call, so mutating them moves the key."""
    if params is not None:
        job = dataclasses.replace(job, params=CCParams(**params))
    canonical = json.dumps(job.payload(), sort_keys=True, separators=(",", ":")).encode()
    assert job.preimage() == canonical
    if job.params is not None:
        before = job.key()
        job.params.num_cfqs += 1
        assert job.key() != before
        assert job.key() == dataclasses.replace(
            job, params=dataclasses.replace(job.params)).key()


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
