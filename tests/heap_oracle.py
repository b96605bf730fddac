"""Reference event queue: a plain ``heapq`` of ``(time, seq, handle)``.

The production :class:`repro.sim.engine.Simulator` pushes handle-free
tuples for ``post`` / ``schedule_pair``, pops before it looks at
``until`` and defers its ``pending()`` debit to the end of a run.  This
class is the obviously-correct implementation of the same contract —
events fire in ``(time, seq)`` order, ``seq`` allocated in scheduling
order — with one handle object per event and nothing clever.  Tests
inject it through ``run_case(sim_factory=HeapSimulator)`` and require
byte-identical results (tests/conftest.py ``sim_cls``); nothing under
``src/`` imports it.
"""

from __future__ import annotations

import heapq

from repro.sim.engine import PeriodicTask, SimulationError

__all__ = ["HeapSimulator"]


class _Handle:
    """Cancellable handle; mirrors the attributes callers read off
    :class:`repro.sim.engine.Event` (``time``, ``cancelled``, and
    ``pending`` — true while the event is still queued)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queued", "_sim")

    def __init__(self, sim, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queued = True  # cleared when fired or cancelled
        self._sim = sim

    @property
    def pending(self):
        return self._queued

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        if self._queued:  # a late cancel is a no-op
            self._queued = False
            self._sim._live -= 1


def _qualname(fn):
    return getattr(fn, "__qualname__", None) or repr(fn)


class HeapSimulator:
    """Same public scheduling API as :class:`repro.sim.engine.Simulator`."""

    def __init__(self, profile=False):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self._live = 0
        self.events_dispatched = 0
        self.event_counts = {} if profile else None

    # -- scheduling ----------------------------------------------------
    def _push(self, time, seq, fn, args):
        handle = _Handle(self, time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        return self._push(time, seq, fn, args)

    def schedule_in(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn, *args)

    def post(self, time, fn, *args):
        self.schedule(time, fn, *args)

    def post_in(self, delay, fn, *args):
        self.schedule_in(delay, fn, *args)

    def schedule_pair(self, t1, fn1, args1, t2, fn2, args2):
        if t1 < self.now:
            raise SimulationError(f"cannot schedule at t={t1} < now={self.now}")
        if t2 < t1:
            raise SimulationError(f"chained firing at t={t2} precedes first at t={t1}")
        seq = self._seq
        self._seq = seq + 2
        self._push(t1, seq, fn1, args1)
        self._push(t2, seq + 1, fn2, args2)

    def call_every(self, period, fn, *args, start=None, end=None):
        if period <= 0:
            raise SimulationError(f"non-positive period {period}")
        first = self.now + period if start is None else start
        return PeriodicTask(self, first, period, end, fn, args)

    # -- execution -----------------------------------------------------
    def run(self, until=None, max_events=None):
        heap = self._heap
        dispatched = 0
        hit_until = False
        while heap and (max_events is None or dispatched < max_events):
            t, _seq, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and t > until:
                hit_until = True
                break
            heapq.heappop(heap)
            self.now = t
            self._live -= 1
            handle._queued = False
            dispatched += 1
            if self.event_counts is not None:
                key = _qualname(handle.fn)
                self.event_counts[key] = self.event_counts.get(key, 0) + 1
            handle.fn(*handle.args)
        self.events_dispatched += dispatched
        if until is not None and self.now < until and (hit_until or self._live == 0):
            self.now = until

    def step(self):
        before = self.events_dispatched
        self.run(max_events=1)
        return self.events_dispatched != before

    def peek_time(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pending(self):
        return self._live

    def drain(self, events):
        for ev in events:
            ev.cancel()

    def queue_snapshot(self):
        counts = {}
        for _t, _seq, handle in self._heap:
            if not handle.cancelled:
                key = _qualname(handle.fn)
                counts[key] = counts.get(key, 0) + 1
        return counts
