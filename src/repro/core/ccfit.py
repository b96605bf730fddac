r"""CCFIT, the evaluated scheme presets, and the scheme registry.

The paper evaluates five techniques (§IV-A); this module captures each
as a :class:`SchemeSpec` composing the three policy objects of
:mod:`repro.core.scheme` — the switch queue organisation (which also
decides congestion detection), FECN marking, and the source-side
injection gate:

========  ====================  ==================  =========  ========  ==========
scheme    switch queues         queue builder       IA stage   marking   inj. gate
========  ====================  ==================  =========  ========  ==========
1Q        one FIFO              oneq_queues         fifo       --        --
VOQsw     per-output VOQs       voqsw_queues        fifo       --        --
DBBM      dst-hash queues       dbbm_queues         fifo       --        --
VOQnet    per-destination VOQs  voqnet_queues       bypass     --        --
FBICM     NFQ + CFQs (+CAMs)    isolation_queues    isolation  --        --
ITh       per-output VOQs       ith_queues          fifo       cong.st.  CCT/CCTI
CCFIT     NFQ + CFQs (+CAMs)    ccfit_queues        isolation  cong.st.  CCT/CCTI
========  ====================  ==================  =========  ========  ==========

ITh detects congestion by VOQ occupancy (High/Low thresholds of [12]);
CCFIT by *root CFQ* occupancy (§III-C) — the defining combination of
this paper: isolation handles HoL blocking instantly, and the
throttling it triggers drains the trees so the isolation never runs
out of CFQs (Fig. 8).  Each detector is armed by its queue builder
(``ith_queues``, ``ccfit_queues``); the other builders arm none.

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
from typing import Callable, Optional

from repro.core.isolation import NfqCfqScheme
from repro.core.params import CCParams
from repro.core.scheme import CongestionStateMarking
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
    "ith_queues",
    "voqnet_queues",
    "isolation_queues",
    "ccfit_queues",
]


# ----------------------------------------------------------------------
# queue-policy builders: f(port, num_nodes) -> the port's queue scheme
# ----------------------------------------------------------------------
def oneq_queues(port, _n) -> CongestionControlScheme:  # noqa: ANN001 - duck-typed host
    """One FIFO per input port (the "1Q" baseline)."""
    return OneQScheme(port)


def dbbm_queues(port, _n) -> CongestionControlScheme:
    """Destination-hash queues [24]; ``params.num_voqs`` buckets."""
    return DbbmScheme(port, num_queues=port.params.num_voqs)


def voqsw_queues(port, _n) -> CongestionControlScheme:
    """Per-output VOQs [21], one per switch port; no detection."""
    return VOQswScheme(port, num_outputs=port.switch.num_ports)


def ith_queues(port, _n) -> CongestionControlScheme:
    """VOQsw's VOQs running the ITh High/Low occupancy detector of [12]."""
    return VOQswScheme(port, num_outputs=port.switch.num_ports, detect_hot=True)


def voqnet_queues(port, num_nodes) -> CongestionControlScheme:
    """Per-destination VOQs [22] — the unscalable upper bound."""
    return VOQnetScheme(port, num_destinations=num_nodes)


def isolation_queues(port, _n) -> CongestionControlScheme:
    """NFQ + CFQs + CAM (FBICM); no detection."""
    return NfqCfqScheme(port, drive_congestion_state=False)


def ccfit_queues(port, _n) -> CongestionControlScheme:
    """FBICM's queues whose root CFQs crossing High/Low drive the
    congestion state (CCFIT, §III-C)."""
    return NfqCfqScheme(port, drive_congestion_state=True)


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
def _default_memory(params: CCParams, _num_nodes: int) -> int:
    return params.memory_size


def _voqnet_memory(params: CCParams, num_nodes: int) -> int:
    """VOQnet needs ``num_nodes`` queues of at least 4 KiB (§IV-A:
    256 KiB ports on the 64-node configuration)."""
    return max(params.memory_size, params.voqnet_queue_size * num_nodes)


@dataclass(frozen=True)
class SchemeSpec:
    """Everything the fabric builder needs to configure one technique.

    A spec is a *composition*: pick a queue-policy builder (which also
    decides congestion detection), an optional marking policy factory
    and an optional injection-gate factory, then ``SCHEMES.register``
    it.  The device layer consumes the spec blindly — no device file is
    edited to add a scheme.
    """

    name: str
    #: builds the queue scheme for one switch input port; receives the
    #: port and the network size (for VOQnet).
    switch_scheme: Callable[[object, int], CongestionControlScheme]
    #: IA output-stage mode: "isolation" (NFQ+CFQs) | "fifo" (a
    #: two-MTU FIFO) | "bypass" (no stage).
    ia_staging: str
    #: ``f(params, rng) -> MarkingPolicy`` installed at every switch,
    #: or None — the scheme never FECN-marks.
    marking: Optional[Callable[..., object]] = None
    #: ``f(sim, params, on_release) -> InjectionGate`` installed at
    #: every end node, or None — sources never throttle.
    injection_gate: Optional[Callable[..., object]] = None
    #: switch input-port memory (bytes) as f(params, num_nodes).
    memory_override: Callable[[CCParams, int], int] = _default_memory
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
    "1Q", oneq_queues, "fifo",
    description="one FIFO per port, no HoL protection (baseline)",
))
SCHEMES.register(SchemeSpec(
    "VOQsw", voqsw_queues, "fifo",
    description="per-output VOQs [21], no CC machinery",
))
SCHEMES.register(SchemeSpec(
    "DBBM", dbbm_queues, "fifo",
    description="destination-hash queues [24]",
))
SCHEMES.register(SchemeSpec(
    "VOQnet", voqnet_queues, "bypass",
    memory_override=_voqnet_memory,
    description="per-destination VOQs [22], the unscalable upper bound",
))
SCHEMES.register(SchemeSpec(
    "FBICM", isolation_queues, "isolation",
    description="congested-flow isolation (NFQ+CFQs+CAM), no throttling",
))
SCHEMES.register(SchemeSpec(
    "ITh", ith_queues, "fifo",
    marking=CongestionStateMarking,
    injection_gate=ThrottleState,
    description="injection throttling [12]: VOQ detection + FECN/BECN + CCT",
))
SCHEMES.register(SchemeSpec(
    "CCFIT", ccfit_queues, "isolation",
    marking=CongestionStateMarking,
    injection_gate=ThrottleState,
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
