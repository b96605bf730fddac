r"""CCFIT, the evaluated scheme presets, and the scheme registry.

The paper evaluates five techniques (§IV-A); this module captures each
as a :class:`SchemeSpec` composing the four policy objects of
:mod:`repro.core.scheme` — switch queue organisation, congestion
detection, FECN marking, and the source-side injection gate:

========  =====================  ==========  =============  ========  ==========
scheme    switch queues          IA stage    detection      marking   inj. gate
========  =====================  ==========  =============  ========  ==========
1Q        one FIFO               fifo        none           --        --
VOQsw     per-output VOQs        fifo        none           --        --
DBBM      dst-hash queues        fifo        none           --        --
VOQnet    per-destination VOQs   bypass      none           --        --
FBICM     NFQ + CFQs (+CAMs)     isolation   none           --        --
ITh       per-output VOQs        fifo        VOQ occupancy  cong.st.  CCT/CCTI
CCFIT     NFQ + CFQs (+CAMs)     isolation   root CFQ       cong.st.  CCT/CCTI
========  =====================  ==========  =============  ========  ==========

ITh detects congestion by VOQ occupancy (High/Low thresholds of [12]);
CCFIT by *root CFQ* occupancy (§III-C) — the defining combination of
this paper: isolation handles HoL blocking instantly, and the
throttling it triggers drains the trees so the isolation never runs
out of CFQs (Fig. 8).

``VOQsw`` and ``DBBM`` are not part of the paper's evaluated set but
are §II related work that falls out of the queue-scheme machinery for
free, rounding out the HoL-reduction family the paper positions CCFIT
against.

New schemes register themselves with ``SCHEMES.register`` (a
:class:`repro.registry.Registry`) — the CLI, sweep engine, experiment
registry and cost accounting all read the live registry, so a
registered scheme is immediately runnable everywhere without touching
the device layer (see ``docs/schemes.md`` and :mod:`repro.schemes.rcm`
for a worked example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.isolation import NfqCfqScheme
from repro.core.params import CCParams
from repro.core.scheme import (
    DETECT_NONE,
    DETECT_ROOT_CFQ,
    DETECT_VOQ_OCCUPANCY,
    DetectionPolicy,
    congestion_state_marking,
)
from repro.core.throttling import ThrottleState
from repro.network.queueing import (
    CongestionControlScheme,
    DbbmScheme,
    OneQScheme,
    VOQnetScheme,
    VOQswScheme,
)
from repro.registry import Registry

__all__ = [
    "SchemeSpec",
    "SCHEMES",
    "PAPER_SCHEMES",
    "FIG8_SCHEMES",
    "oneq_queues",
    "dbbm_queues",
    "voqsw_queues",
    "voqnet_queues",
    "isolation_queues",
    "fifo_stage",
    "isolation_stage",
    "cct_injection_gate",
]


# ----------------------------------------------------------------------
# queue-policy builders (each consumes the scheme's DetectionPolicy)
# ----------------------------------------------------------------------
def oneq_queues(detection: DetectionPolicy = DETECT_NONE):
    """One FIFO per input port (the "1Q" baseline)."""

    def build(port, _n) -> CongestionControlScheme:  # noqa: ANN001 - duck-typed host
        return OneQScheme(port)

    return build


def dbbm_queues(detection: DetectionPolicy = DETECT_NONE):
    """Destination-hash queues [24]; ``params.num_voqs`` buckets."""

    def build(port, _n) -> CongestionControlScheme:
        return DbbmScheme(port, num_queues=port.params.num_voqs)

    return build


def voqsw_queues(detection: DetectionPolicy = DETECT_NONE):
    """Per-output VOQs [21]; with ``DETECT_VOQ_OCCUPANCY`` they also run
    the ITh High/Low occupancy detector of [12]."""
    detect_hot = detection.kind == DETECT_VOQ_OCCUPANCY.kind

    def build(port, _n) -> CongestionControlScheme:
        return VOQswScheme(port, num_outputs=port.switch.num_ports, detect_hot=detect_hot)

    return build


def voqnet_queues(detection: DetectionPolicy = DETECT_NONE):
    """Per-destination VOQs [22] — the unscalable upper bound."""

    def build(port, num_nodes) -> CongestionControlScheme:
        return VOQnetScheme(port, num_destinations=num_nodes)

    return build


def isolation_queues(detection: DetectionPolicy = DETECT_NONE):
    """NFQ + CFQs + CAM (FBICM); with ``DETECT_ROOT_CFQ`` root CFQs
    crossing High/Low drive the congestion state (CCFIT, §III-C)."""
    drive = detection.kind == DETECT_ROOT_CFQ.kind

    def build(port, _n) -> CongestionControlScheme:
        return NfqCfqScheme(port, drive_congestion_state=drive)

    return build


# ----------------------------------------------------------------------
# IA stage and injection-gate builders
# ----------------------------------------------------------------------
def fifo_stage(stage) -> CongestionControlScheme:  # noqa: ANN001 - IaStage host
    """Two-MTU staging FIFO (1Q/VOQsw/DBBM/ITh)."""
    return OneQScheme(stage)


def isolation_stage(stage) -> CongestionControlScheme:
    """The IA's NFQ+CFQs+CAM, same behaviour as a switch port (§III-B);
    the IA never drives the congestion state (only switches mark)."""
    return NfqCfqScheme(stage, drive_congestion_state=False)


def cct_injection_gate(sim, params: CCParams, on_release) -> ThrottleState:
    """The paper's CCT/CCTI/Timer/LTI source reaction (§III-B/D)."""
    return ThrottleState(sim, params, on_release=on_release)


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
def _default_memory(params: CCParams, _num_nodes: int) -> int:
    return params.memory_size


def _voqnet_memory(params: CCParams, num_nodes: int) -> int:
    """VOQnet needs ``num_nodes`` queues of at least 4 KiB (§IV-A:
    256 KiB ports on the 64-node configuration)."""
    return max(params.memory_size, params.voqnet_queue_size * num_nodes)


def _cost_single_fifo(params: CCParams, _n: int, _radix: int) -> Tuple[int, int, int]:
    return 1, 0, 0


def _cost_voqsw(params: CCParams, _n: int, max_radix: int) -> Tuple[int, int, int]:
    return min(params.num_voqs, max_radix), 0, 0


def _cost_dbbm(params: CCParams, _n: int, _radix: int) -> Tuple[int, int, int]:
    return params.num_voqs, 0, 0


def _cost_voqnet(_params: CCParams, n: int, _radix: int) -> Tuple[int, int, int]:
    return n, 0, 0


def _cost_isolation(params: CCParams, _n: int, _radix: int) -> Tuple[int, int, int]:
    return 1 + params.num_cfqs, params.num_cfqs, params.num_cfqs


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the fabric builder needs to configure one technique.

    A spec is a *composition*: pick a queue-policy builder, a
    :class:`repro.core.scheme.DetectionPolicy`, an optional marking
    policy factory and an optional injection-gate factory, then
    ``SCHEMES.register`` it.  The device layer consumes the spec
    blindly — no device file is edited to add a scheme.
    """

    name: str
    #: builds the queue scheme for one switch input port; receives the
    #: port and the network size (for VOQnet).
    switch_scheme: Callable[[object, int], CongestionControlScheme]
    #: IA output-stage mode: "isolation" | "fifo" | "bypass".
    ia_staging: str
    #: what evidence moves an output port into the congestion state
    #: (consumed by the queue-policy builder; descriptive elsewhere).
    detection: DetectionPolicy = DETECT_NONE
    #: ``f(params, rng) -> MarkingPolicy`` installed at every switch,
    #: or None — the scheme never FECN-marks.
    marking: Optional[Callable[..., object]] = None
    #: ``f(sim, params, on_release) -> InjectionGate`` installed at
    #: every end node, or None — sources never throttle.
    injection_gate: Optional[Callable[..., object]] = None
    #: builds the IA output-stage scheme (``f(stage) -> scheme``); None
    #: uses the staging mode's default (fifo -> OneQ, isolation ->
    #: NFQ+CFQs), and "bypass" has no stage at all.
    ia_scheme: Optional[Callable[[object], CongestionControlScheme]] = None
    #: switch input-port memory (bytes) as f(params, num_nodes).
    memory_override: Callable[[CCParams, int], int] = _default_memory
    #: hardware budget: f(params, num_nodes, max_radix) ->
    #: (queues_per_port, cam_lines_per_port, out_cam_lines_per_port).
    cost: Callable[[CCParams, int, int], Tuple[int, int, int]] = _cost_single_fifo
    #: one-line summary for ``repro schemes`` style listings / docs.
    description: str = ""

    def __post_init__(self) -> None:
        if self.ia_staging not in ("isolation", "fifo", "bypass"):
            raise ValueError(f"{self.name}: unknown IA staging mode {self.ia_staging!r}")


#: the live scheme registry (name -> spec).  Iterating it yields names
#: in registration order, so the paper presets come first.
SCHEMES: Registry[SchemeSpec] = Registry("scheme")


# ----------------------------------------------------------------------
# the paper's presets (§IV-A)
# ----------------------------------------------------------------------
SCHEMES.register(SchemeSpec(
    "1Q", oneq_queues(), "fifo",
    cost=_cost_single_fifo,
    description="one FIFO per port, no HoL protection (baseline)",
))
SCHEMES.register(SchemeSpec(
    "VOQsw", voqsw_queues(), "fifo",
    cost=_cost_voqsw,
    description="per-output VOQs [21], no CC machinery",
))
SCHEMES.register(SchemeSpec(
    "DBBM", dbbm_queues(), "fifo",
    cost=_cost_dbbm,
    description="destination-hash queues [24]",
))
SCHEMES.register(SchemeSpec(
    "VOQnet", voqnet_queues(), "bypass",
    memory_override=_voqnet_memory,
    cost=_cost_voqnet,
    description="per-destination VOQs [22], the unscalable upper bound",
))
SCHEMES.register(SchemeSpec(
    "FBICM", isolation_queues(), "isolation",
    ia_scheme=isolation_stage,
    cost=_cost_isolation,
    description="congested-flow isolation (NFQ+CFQs+CAM), no throttling",
))
SCHEMES.register(SchemeSpec(
    "ITh", voqsw_queues(DETECT_VOQ_OCCUPANCY), "fifo",
    detection=DETECT_VOQ_OCCUPANCY,
    marking=congestion_state_marking,
    injection_gate=cct_injection_gate,
    cost=_cost_voqsw,
    description="injection throttling [12]: VOQ detection + FECN/BECN + CCT",
))
SCHEMES.register(SchemeSpec(
    "CCFIT", isolation_queues(DETECT_ROOT_CFQ), "isolation",
    detection=DETECT_ROOT_CFQ,
    marking=congestion_state_marking,
    injection_gate=cct_injection_gate,
    ia_scheme=isolation_stage,
    cost=_cost_isolation,
    description="this paper: isolation + root-CFQ-driven throttling",
))

#: the schemes of Figs. 7, 9 and 10, in the paper's plotting order.
PAPER_SCHEMES = ("1Q", "ITh", "FBICM", "CCFIT")
#: Fig. 8 adds the VOQnet upper bound.
FIG8_SCHEMES = PAPER_SCHEMES + ("VOQnet",)

# The bundled non-paper schemes register themselves on import; importing
# them here, after the presets, gives the registry the same order
# whichever module of the package a process imports first.
import repro.schemes  # noqa: E402,F401
