"""Unit tests for CC parameters and the §III-E tuning rules."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.params import CCParams, MTU, ParamError, exponential_cct, linear_cct


def test_defaults_are_valid_and_match_the_paper():
    p = CCParams()
    p.validate()
    assert p.mtu == 2048
    assert p.memory_size == 64 * 1024  # Table I
    assert p.num_cfqs == 2  # §IV-A
    assert p.ccti_timer == 8000.0  # §IV-A
    assert p.marking_rate == 0.85  # §IV-A
    assert p.cfq_stop == 10 * MTU and p.cfq_go == 4 * MTU  # §IV-A
    assert p.voq_high == 4 * MTU and p.voq_low == 2 * MTU  # §IV-A
    assert p.num_voqs == 8  # §IV-A


@pytest.mark.parametrize(
    "override",
    [
        dict(mtu=0),
        dict(memory_size=2048),
        dict(num_cfqs=-1),
        dict(cfq_high=3 * MTU, cfq_low=3 * MTU),  # High-Low < 1 MTU
        dict(cfq_stop=6 * MTU, cfq_high=8 * MTU),  # Stop <= High
        dict(cfq_stop=10 * MTU, cfq_go=10 * MTU),  # Stop-Go < 1 MTU
        dict(detection_threshold=-1),
        dict(detection_threshold=10**9),
        dict(detection_policy="psychic"),
        dict(cfq_high_dwell=-1.0),
        dict(cfq_cs_exit=0),  # must lie in [low, high)
        dict(cfq_rearm_window=-1.0),
        dict(voq_high=2 * MTU, voq_low=2 * MTU),
        dict(marking_rate=0.0),
        dict(marking_rate=1.5),
        dict(ccti_timer=0.0),
        dict(ccti_increase=0),
        dict(becn_min_interval=-1.0),
        dict(cct=[]),
        dict(cct=[1.0, 2.0]),  # must start at 0
        dict(cct=[0.0, 5.0, 3.0]),  # must be non-decreasing
        dict(num_voqs=0),
        dict(voqnet_queue_size=100),
        dict(advoq_cap_packets=0),
        dict(islip_iterations=0),
        dict(pfc_priorities=0),
        dict(shared_alpha=0.0),
        dict(pfc_xon_fraction=0.0),
    ],
)
def test_tuning_rule_violations_raise(override):
    p = CCParams(**override)
    with pytest.raises(ParamError):
        p.validate()


def test_with_overrides_returns_validated_copy():
    p = CCParams()
    q = p.with_overrides(num_cfqs=4)
    assert q.num_cfqs == 4
    assert p.num_cfqs == 2
    with pytest.raises(ParamError):
        p.with_overrides(marking_rate=2.0)


def test_linear_cct_shape():
    cct = linear_cct(entries=8, step=100.0)
    assert cct[0] == 0.0
    assert cct == [100.0 * i for i in range(8)]


def test_exponential_cct_shape():
    cct = exponential_cct(entries=5, base=10.0)
    assert cct[0] == 0.0
    assert cct == [10.0 * (2.0**i - 1.0) for i in range(5)]
    assert all(b >= a for a, b in zip(cct, cct[1:]))


def test_cct_builders_reject_bad_arguments():
    with pytest.raises(ParamError):
        linear_cct(entries=1)
    with pytest.raises(ParamError):
        linear_cct(step=0.0)
    with pytest.raises(ParamError):
        exponential_cct(entries=0)
    with pytest.raises(ParamError):
        exponential_cct(base=-1.0)


def test_no_field_is_a_dead_knob():
    """A field nothing reads is a dead knob: it still enters every cache
    key (the preimage walks ``dataclasses.fields``), so a setting that
    changes no result would fork the cache.  Every field must be read
    as an attribute somewhere in ``repro`` outside this module."""
    src = Path(repro.__file__).parent
    read = set()
    for path in src.rglob("*.py"):
        if path == src / "core" / "params.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(CCParams) if f.name not in read]
    assert not unread, f"CCParams fields nothing reads: {unread}"
