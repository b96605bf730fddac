"""The one name table behind schemes, routing policies, buffer models
and experiments (:class:`repro.registry.Registry`).

Every registry keeps the same contract, so it is tested once over all
four; what each one holds is tested beside the thing it holds.  An
unknown name reads the same from every path that resolves one.
"""

import pytest

from repro.core.ccfit import SCHEMES, SchemeSpec, oneq_queues
from repro.core.params import CCParams
from repro.experiments.costs import scheme_cost
from repro.experiments.registry import REGISTRY, Experiment, get
from repro.experiments.sweep import SimJob
from repro.network.buffers import BUFFER_MODELS, BufferModelSpec, StaticBufferModel
from repro.network.fabric import build_fabric
from repro.network.routing import ROUTING_POLICIES, DetRoutingPolicy, RoutingPolicySpec
from repro.network.topology import config1_adhoc
from repro.registry import CellError, Registry, unknown_name

#: kind -> (registry, a spec of that kind named ``name``, a registered
#: name, a typo of it).
CASES = {
    "scheme": (SCHEMES, lambda name: SchemeSpec(name, oneq_queues, "fifo"), "CCFIT", "CCFTI"),
    "routing policy": (
        ROUTING_POLICIES,
        lambda name: RoutingPolicySpec(name, DetRoutingPolicy, needs_candidates=False),
        "adaptive", "adaptiv",
    ),
    "buffer model": (
        BUFFER_MODELS, lambda name: BufferModelSpec(name, StaticBufferModel), "shared", "sharde",
    ),
    "experiment": (
        REGISTRY, lambda name: Experiment(name, "test-only", case="case1", schemes=("1Q",)),
        "fig9", "fig9x",
    ),
}


@pytest.fixture(params=sorted(CASES), ids=lambda kind: kind.replace(" ", "_"))
def case(request):
    reg, make, known, typo = CASES[request.param]
    assert isinstance(reg, Registry) and reg.kind == request.param
    return reg, make, known, typo


def test_register_returns_the_spec(case):
    reg, make, _known, _typo = case
    spec = make("__test__")
    try:
        assert reg.register(spec) is spec
        assert reg["__test__"] is spec and list(reg)[-1] == "__test__"
    finally:
        del reg["__test__"]


def test_an_empty_or_duplicate_name_raises(case):
    reg, make, known, _typo = case
    before = dict(reg)
    with pytest.raises(ValueError, match="non-empty"):
        reg.register(make(""))
    with pytest.raises(ValueError, match=f"{reg.kind} '{known}' is already registered"):
        reg.register(make(known))
    assert reg == before


def test_a_miss_names_the_choices_and_the_close_match(case):
    reg, _make, known, typo = case
    with pytest.raises(KeyError) as exc_info:
        reg[typo]
    message = exc_info.value.args[0]
    assert message == unknown_name(reg.kind, typo, reg)
    hint, choices = message.split(" (choose from ")
    assert hint.startswith(f"unknown {reg.kind} {typo!r} — did you mean {known}")
    assert choices.rstrip(")").split(", ") == sorted(reg)


def test_parse_is_case_insensitive_and_canonical(case):
    reg, _make, known, _typo = case
    for spelling in (known, known.lower(), known.upper(), known.swapcase()):
        assert reg.parse(spelling) == known
    assert all(reg.parse(name) == name for name in reg)


def test_a_parse_miss_is_a_cell_error(case):
    reg, _make, _known, typo = case
    with pytest.raises(CellError) as exc_info:
        reg.parse(typo)
    assert str(exc_info.value) == unknown_name(reg.kind, typo, reg)
    for raw in (None, 3, ["x"]):
        with pytest.raises(CellError, match=f"unknown {reg.kind}"):
            reg.parse(raw)


#: every path that resolves a name: (kind, typo, the call that misses).
LOOKUPS = {
    "SimJob": ("scheme", "CCFTI", lambda: SimJob("case1", "CCFTI")),
    "build_fabric.scheme": ("scheme", "CCFTI", lambda: build_fabric(config1_adhoc(), "CCFTI")),
    "build_fabric.routing": (
        "routing policy", "adaptiv", lambda: build_fabric(config1_adhoc(), routing="adaptiv")),
    "build_fabric.buffer_model": (
        "buffer model", "sharde",
        lambda: build_fabric(config1_adhoc(), params=CCParams(buffer_model="sharde"))),
    "scheme_cost": ("scheme", "CCFTI", lambda: scheme_cost("CCFTI", config1_adhoc())),
    "registry.get": ("experiment", "fig9x", lambda: get("fig9x")),
}


@pytest.mark.parametrize("path", sorted(LOOKUPS))
def test_an_unknown_name_reads_the_same_everywhere(path):
    """A lookup raises ``KeyError``, a parse ``CellError``; both say
    what the registry says."""
    kind, typo, call = LOOKUPS[path]
    reg = CASES[kind][0]
    with pytest.raises((KeyError, CellError)) as exc_info:
        call()
    expected = CellError if path == "SimJob" else KeyError
    assert type(exc_info.value) is expected
    assert exc_info.value.args[0] == unknown_name(kind, typo, reg)
    assert " — did you mean " in exc_info.value.args[0]
