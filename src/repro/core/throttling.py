"""InfiniBand-style injection throttling, the source side (§II, §III-D).

:class:`ThrottleState` is owned by each Input Adapter.  Per destination
it keeps an index (CCTI) into the Congestion Control Table of Injection
Rate Delays; a received BECN raises the index (more delay between
consecutive packets to that destination), and the CCTI_Timer lowers it
back one step per period, releasing the flow as congestion vanishes.
The *Last Time of Injection* (LTI) array plus the current IRD tell the
IA arbiter when the next packet for a destination may be moved into
the network.  The switch side, FECN marking, is
:class:`repro.core.scheme.CongestionStateMarking`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.params import CCParams
from repro.sim.engine import Event, Simulator

__all__ = ["ThrottleState"]


class ThrottleState:
    """Per-IA CCT/CCTI/Timer/LTI machinery.

    Parameters
    ----------
    sim:
        The event engine (timers live on it).
    params:
        Supplies the CCT, ``ccti_increase`` and ``ccti_timer``.
    on_release:
        Optional callback fired when a timer step lowers some CCTI —
        the IA uses it to re-pump AdVOQs that were waiting out an IRD.
    """

    def __init__(
        self,
        sim: Simulator,
        params: CCParams,
        on_release: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sim = sim
        self.cct: List[float] = list(params.cct)
        self.increase = params.ccti_increase
        self.timer_period = params.ccti_timer
        self.becn_min_interval = params.becn_min_interval
        self.on_release = on_release
        self._ccti: Dict[int, int] = {}
        self._lti: Dict[int, float] = {}
        self._timers: Dict[int, Event] = {}
        self._last_increase: Dict[int, float] = {}
        #: counters for the evaluation metrics.
        self.becns = 0
        self.max_ccti_seen = 0

    # ------------------------------------------------------------------
    def ccti(self, dest: int) -> int:
        return self._ccti.get(dest, 0)

    def ird(self, dest: int) -> float:
        """Current Injection Rate Delay towards ``dest`` (ns)."""
        return self.cct[self._ccti.get(dest, 0)]

    def next_allowed(self, dest: int) -> float:
        """Earliest time the next packet for ``dest`` may be injected."""
        lti = self._lti.get(dest)
        if lti is None:
            return 0.0
        return lti + self.ird(dest)

    def record_injection(self, dest: int, now: float, size: int = 0) -> None:
        """Update LTI when the IA moves a packet for ``dest``.  The IRD
        tables delay per *packet*, so ``size`` is ignored here (rate-
        based gates use it — see the InjectionGate protocol)."""
        self._lti[dest] = now

    # ------------------------------------------------------------------
    def on_becn(self, dest: int) -> None:
        """A BECN arrived: step up the delay for ``dest`` and (re)arm
        the decay timer (§III-D, Event #6).  Increases are coalesced to
        one per ``becn_min_interval`` (anti-windup, see
        :class:`repro.core.params.CCParams`)."""
        self.becns += 1
        now = self.sim.now
        last = self._last_increase.get(dest)
        if last is not None and now - last < self.becn_min_interval:
            return
        self._last_increase[dest] = now
        idx = min(self._ccti.get(dest, 0) + self.increase, len(self.cct) - 1)
        self._ccti[dest] = idx
        if idx > self.max_ccti_seen:
            self.max_ccti_seen = idx
        timer = self._timers.get(dest)
        if timer is not None:
            timer.cancel()
        self._timers[dest] = self.sim.schedule_in(self.timer_period, self._decay, dest)

    def _decay(self, dest: int) -> None:
        """CCTI_Timer expiry: one step back towards full rate (Event #7)."""
        idx = self._ccti.get(dest, 0)
        if idx > 0:
            idx -= 1
            self._ccti[dest] = idx
        if idx > 0:
            self._timers[dest] = self.sim.schedule_in(self.timer_period, self._decay, dest)
        else:
            self._ccti.pop(dest, None)
            self._timers.pop(dest, None)
        if self.on_release is not None:
            self.on_release()

    # ------------------------------------------------------------------
    def throttled_destinations(self) -> List[int]:
        """Destinations currently delayed (CCTI > 0)."""
        return [d for d, i in self._ccti.items() if i > 0]

    def snapshot(self) -> Dict[int, int]:
        """Destination -> CCTI for every throttled destination."""
        return {d: i for d, i in self._ccti.items() if i > 0}

    def telemetry_sample(self) -> Dict[str, object]:
        """Scalar gate fields for the telemetry sampler: how many
        destinations are throttled and how deep the worst CCTI sits."""
        live = [i for i in self._ccti.values() if i > 0]
        return {"throttled": len(live), "max_ccti": max(live, default=0)}

    # -- validation hook -------------------------------------------------
    def audit(self) -> None:
        """Invariant-guard hook: every CCTI indexes inside the CCT, and
        every raised CCTI has a live decay timer (a lost timer would
        throttle a destination forever — §III-D's recovery path)."""
        top = len(self.cct) - 1
        for dest, idx in self._ccti.items():
            if not 0 <= idx <= top:
                raise RuntimeError(
                    f"CCTI for dest {dest} is {idx}, outside the CCT [0, {top}]"
                )
            if idx > 0:
                timer = self._timers.get(dest)
                if timer is None or not timer.pending:
                    raise RuntimeError(
                        f"dest {dest} throttled at CCTI {idx} with no live "
                        f"CCTI_Timer — the flow would never recover"
                    )
