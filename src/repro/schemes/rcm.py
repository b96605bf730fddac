"""RCM — a rate-based, DCQCN-style congestion manager.

The paper's ITh reacts to congestion with table-driven inter-packet
delays (CCT/CCTI).  The RCM/DCQCN family (Liu et al., arXiv:1509.03559;
Zhu et al., SIGCOMM'15) reacts with explicit per-destination *rates*:

* **marking** (:class:`QueueDepthMarking`): switches ECN-mark on the
  instantaneous depth of the queue a packet leaves — probabilistically
  between ``Kmin`` and ``Kmax``, always above ``Kmax`` — instead of the
  paper's binary congestion state;
* **reaction** (:class:`RcmGate`): each BECN halves the source's
  injection rate towards the congested destination (multiplicative
  decrease); a recovery timer then adds a fixed increment per period
  (additive increase) until the flow is back at link rate and the
  state is dropped.

The scheme exists primarily as the proof of extensibility for the
hook-based scheme architecture: it is assembled *entirely* from the
public API — :func:`repro.core.ccfit.register_scheme` plus the policy
builders — with zero edits to the device layer, and runs in every
experiment, sweep, and under the invariant guard.  See
``docs/schemes.md`` for the walk-through.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.ccfit import SchemeSpec, fifo_stage, register_scheme, voqsw_queues
from repro.core.params import CCParams
from repro.core.scheme import DetectionPolicy
from repro.network.packet import Packet
from repro.sim.engine import Event, Simulator

__all__ = [
    "DETECT_QUEUE_DEPTH",
    "QueueDepthMarking",
    "RcmGate",
    "RCM",
    "PEAK_RATE",
]

#: full injection rate (bytes/ns) — the Table-I end-node link rate.
PEAK_RATE = 2.5
#: mark-never / mark-always queue depths, in MTUs (DCQCN's Kmin/Kmax).
KMIN_MTUS = 4
KMAX_MTUS = 12
#: marking probability at Kmax (DCQCN's Pmax).
PMAX = 0.5
#: multiplicative-decrease factor applied per (coalesced) BECN.
MD_FACTOR = 0.5
#: additive recovery per timer period, as a fraction of PEAK_RATE.
AI_FRACTION = 1 / 8
#: rate floor, as a fraction of PEAK_RATE (a flow is never stopped
#: outright — it must keep probing so recovery can observe it).
MIN_RATE_FRACTION = 1 / 64


DETECT_QUEUE_DEPTH = DetectionPolicy(
    "queue-depth", "ECN on instantaneous queue depth (Kmin/Kmax)"
)


class QueueDepthMarking:
    """DCQCN-style ECN: mark on the standing depth of the queue the
    packet just left (the switch's backlog towards that output) —
    never below ``Kmin``, always at ``Kmax``, linearly ramping
    probability in between."""

    __slots__ = ("kmin", "kmax", "pmax", "rng", "marked", "considered")

    def __init__(
        self,
        params: CCParams,
        rng: np.random.Generator,
        kmin_mtus: int = KMIN_MTUS,
        kmax_mtus: int = KMAX_MTUS,
        pmax: float = PMAX,
    ) -> None:
        self.kmin = kmin_mtus * params.mtu
        self.kmax = kmax_mtus * params.mtu
        self.pmax = pmax
        self.rng = rng
        self.marked = 0
        self.considered = 0

    def should_mark(self, pkt: Packet, queue, out_port) -> bool:
        self.considered += 1
        depth = queue.bytes  # backlog left behind by this packet
        if depth < self.kmin:
            return False
        if depth < self.kmax:
            p = self.pmax * (depth - self.kmin) / (self.kmax - self.kmin)
            if self.rng.random() >= p:
                return False
        self.marked += 1
        return True


class RcmGate:
    """Per-destination rate limiter (the DCQCN reaction point).

    Implements the :class:`repro.core.scheme.InjectionGate` protocol:
    the IA arbiter may move the next packet for ``dest`` no earlier
    than ``LTI + last_size / rate`` — i.e. the previous packet must
    have "drained" at the current rate.  BECNs multiplicatively
    decrease the rate (coalesced to one decrease per
    ``params.becn_min_interval``, like the CCT gate's anti-windup);
    every ``params.ccti_timer`` ns the recovery timer adds
    ``AI_FRACTION * peak`` back, dropping all state once the flow
    returns to full rate.
    """

    def __init__(
        self,
        sim: Simulator,
        params: CCParams,
        on_release: Optional[Callable[[], None]] = None,
        peak_rate: float = PEAK_RATE,
        md_factor: float = MD_FACTOR,
    ) -> None:
        self.sim = sim
        self.peak = peak_rate
        self.md_factor = md_factor
        self.additive = peak_rate * AI_FRACTION
        self.min_rate = peak_rate * MIN_RATE_FRACTION
        self.timer_period = params.ccti_timer
        self.becn_min_interval = params.becn_min_interval
        self.on_release = on_release
        #: dest -> current rate (bytes/ns); absent = full rate.
        self._rate: Dict[int, float] = {}
        self._lti: Dict[int, float] = {}
        self._last_size: Dict[int, int] = {}
        self._timers: Dict[int, Event] = {}
        self._last_decrease: Dict[int, float] = {}
        #: counters for the evaluation metrics.
        self.becns = 0
        self.decreases = 0

    # -- InjectionGate data path ---------------------------------------
    def rate(self, dest: int) -> float:
        """Current injection rate towards ``dest`` (bytes/ns)."""
        return self._rate.get(dest, self.peak)

    def next_allowed(self, dest: int) -> float:
        rate = self._rate.get(dest)
        if rate is None:
            return 0.0  # full rate: the link itself is the limit
        lti = self._lti.get(dest)
        if lti is None:
            return 0.0
        return lti + self._last_size.get(dest, 0) / rate

    def record_injection(self, dest: int, now: float, size: int = 0) -> None:
        self._lti[dest] = now
        self._last_size[dest] = size

    # -- InjectionGate reaction ----------------------------------------
    def on_becn(self, dest: int) -> None:
        self.becns += 1
        now = self.sim.now
        last = self._last_decrease.get(dest)
        if last is not None and now - last < self.becn_min_interval:
            return
        self._last_decrease[dest] = now
        self._rate[dest] = max(self.rate(dest) * self.md_factor, self.min_rate)
        self.decreases += 1
        timer = self._timers.get(dest)
        if timer is not None:
            timer.cancel()
        self._timers[dest] = self.sim.schedule_in(
            self.timer_period, self._recover, dest
        )

    def _recover(self, dest: int) -> None:
        """Recovery-timer expiry: one additive step back to full rate."""
        rate = self._rate.get(dest)
        if rate is None:
            self._timers.pop(dest, None)
        else:
            rate += self.additive
            if rate >= self.peak:
                self._rate.pop(dest, None)
                self._timers.pop(dest, None)
            else:
                self._rate[dest] = rate
                self._timers[dest] = self.sim.schedule_in(
                    self.timer_period, self._recover, dest
                )
        if self.on_release is not None:
            self.on_release()

    # -- introspection --------------------------------------------------
    def throttled_destinations(self) -> list:
        """Destinations currently below full rate."""
        return list(self._rate)

    def snapshot(self) -> Dict[int, object]:
        """Destination -> rate for every rate-limited destination."""
        return {d: round(r, 6) for d, r in self._rate.items()}

    def telemetry_sample(self) -> Dict[str, object]:
        """Scalar gate fields for the telemetry sampler: how many
        destinations are rate-limited and the deepest cut, as a
        fraction of the peak rate."""
        if not self._rate:
            return {"throttled": 0, "min_rate_fraction": 1.0}
        return {
            "throttled": len(self._rate),
            "min_rate_fraction": round(min(self._rate.values()) / self.peak, 6),
        }

    # -- validation hook -------------------------------------------------
    def audit(self) -> None:
        """Invariant-guard hook: every limited rate sits inside
        ``(0, peak)`` and has a live recovery timer (a lost timer would
        cap a destination forever — the recovery path must exist)."""
        for dest, rate in self._rate.items():
            if not self.min_rate <= rate < self.peak:
                raise RuntimeError(
                    f"RCM rate for dest {dest} is {rate}, outside "
                    f"[{self.min_rate}, {self.peak})"
                )
            timer = self._timers.get(dest)
            if timer is None or not timer.pending:
                raise RuntimeError(
                    f"dest {dest} rate-limited at {rate} B/ns with no live "
                    f"recovery timer — the flow would never recover"
                )


def _rcm_cost(params: CCParams, _n: int, max_radix: int) -> Tuple[int, int, int]:
    # same switch hardware as VOQsw/ITh: per-output VOQs, no CAMs.
    return min(params.num_voqs, max_radix), 0, 0


#: registered at import time; ``repro/__init__`` imports this package,
#: so the scheme is available wherever ``repro`` is.
RCM = register_scheme(SchemeSpec(
    "RCM",
    voqsw_queues(),
    "fifo",
    detection=DETECT_QUEUE_DEPTH,
    marking=QueueDepthMarking,
    injection_gate=RcmGate,
    ia_scheme=fifo_stage,
    cost=_rcm_cost,
    description="rate-based DCQCN-style manager: depth ECN + MD/AI rates",
))
