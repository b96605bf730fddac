"""Deterministic discrete-event simulation engine.

Time is a ``float`` in **nanoseconds**.  Events fire in ``(time, seq)``
order and nothing else, ``seq`` being the order of the scheduling calls:
equal-time events fire in scheduling order, which makes every simulation
in this repository bit-for-bit reproducible for a fixed seed.

The queue is one bucket per instant: a ``heapq`` of the distinct queued
times and a dict from each to the FIFO list of its ``(fn, args, handle)``
entries, appended in scheduling order, which *is* the ``seq`` order: no
sequence number is compared, and handle-free posts allocate none.
``schedule`` keeps ``fn`` / ``args`` on its :class:`Event`, so ``cancel()``
drops them at once while the tombstone waits (docs/performance.md).  The
tests hold it, byte for byte, to a one-handle-per-event heap
(``tests/heap_oracle.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

_INF = float("inf")
Callback = Callable[..., Any]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past or at NaN)."""


def _count(counts: dict, fn: Any) -> None:
    key = getattr(fn, "__qualname__", None) or repr(fn)
    counts[key] = counts.get(key, 0) + 1


class Event:
    """Handle of a :meth:`Simulator.schedule` call.  Cancelling is O(1):
    the handle is marked and its queue entry skipped when its instant runs."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Any, args: tuple, sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim  # the simulator while queued, None once fired or cancelled

    @property
    def pending(self) -> bool:
        """True while the event is queued: neither fired nor cancelled."""
        return self._sim is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; a no-op once fired."""
        if self.cancelled:
            return
        self.cancelled = True
        # the tombstone waits in the queue; it must not pin component state
        self.fn = None
        self.args = ()
        if self._sim is not None:
            self._sim._live -= 1
            self._sim = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.1f} seq={self.seq} {state}>"


class Simulator:
    """Event queue + clock.  Usage::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1, arg2)   # absolute time
        sim.schedule_in(5.0, handler)             # relative delay
        sim.post(12.0, handler)                   # no handle
        sim.run(until=1_000_000.0)

    A handler scheduling at the *current* time has the event run within the same instant,
    after the equal-time events already pending.  ``profile=True`` keeps :attr:`event_counts`,
    a dispatch histogram by callback qualname (``benchmarks/e2e`` reads it), for a dict update per event.
    """

    __slots__ = ("now", "_seq", "_times", "_buckets", "_walk", "_live", "events_dispatched", "event_counts")

    def __init__(self, profile: bool = False) -> None:
        self.now: float = 0.0
        self._seq: int = 0  # handles made: Event.seq
        self._times: list = []  # heap of the distinct queued times, one per key of _buckets
        self._buckets: dict = {}  # time -> [(fn, args, None) or (None, None, Event), ...] in seq order
        self._walk: Any = None  # while run() walks an instant: the iterator over its bucket
        self._live: int = 0  # queued and not cancelled: pending() in O(1)
        self.events_dispatched: int = 0
        self.event_counts: Optional[dict] = {} if profile else None

    def schedule(self, time: float, fn: Callback, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` (:attr:`now` is allowed, the past
        and NaN raise :class:`SimulationError`); returns the cancellable :class:`Event`."""
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = Event(time, seq, fn, args, self)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(None, None, ev)]
            heappush(self._times, time)
        else:
            bucket.append((None, None, ev))
        return ev

    def schedule_in(self, delay: float, fn: Callback, *args: Any) -> Event:
        """Schedule ``fn(*args)`` after a relative ``delay`` (>= 0)."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, fn, *args)

    def post(self, time: float, fn: Callback, *args: Any) -> None:
        """:meth:`schedule` with no handle: the hot path of links, switches and traffic."""
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at t={time} < now={self.now}")
        self._live += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args, None)]
            heappush(self._times, time)
        else:
            bucket.append((fn, args, None))

    def post_in(self, delay: float, fn: Callback, *args: Any) -> None:
        """:meth:`schedule_in` with no handle."""
        if not delay >= 0:
            raise SimulationError(f"negative delay {delay}")
        self.post(self.now + delay, fn, *args)

    def schedule_pair(
        self, t1: float, fn1: Callback, args1: tuple, t2: float, fn2: Callback, args2: tuple
    ) -> None:
        """``post(t1, fn1, *args1); post(t2, fn2, *args2)``, ``t2 >= t1``, as
        one call (both entries are queued *now*, so the order is the two
        posts'): the serialisation-done + delivery pair of a link hop."""
        if not t1 >= self.now:
            raise SimulationError(f"cannot schedule at t={t1} < now={self.now}")
        if not t2 >= t1:
            raise SimulationError(f"chained firing at t={t2} precedes first at t={t1}")
        self._live += 2
        buckets = self._buckets
        bucket = buckets.get(t1)
        if bucket is None:
            buckets[t1] = [(fn1, args1, None)]
            heappush(self._times, t1)
        else:
            bucket.append((fn1, args1, None))
        bucket = buckets.get(t2)
        if bucket is None:
            buckets[t2] = [(fn2, args2, None)]
            heappush(self._times, t2)
        else:
            bucket.append((fn2, args2, None))

    def call_every(
        self, period: float, fn: Callback, *args: Any,
        start: Optional[float] = None, end: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``fn(*args)`` periodically (metrics sampling, watchdogs),
        from ``start`` (default: one period from now) until ``end``."""
        if period <= 0:
            raise SimulationError(f"non-positive period {period}")
        first = self.now + period if start is None else start
        return PeriodicTask(self, first, period, end, fn, args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached (inclusive: events stamped
        exactly ``until`` run) or ``max_events`` have been dispatched.  On return :attr:`now`
        is ``until`` when the queue is drained or every remaining event lies beyond ``until``;
        a stop on ``max_events`` leaves the clock at the last event executed."""
        times = self._times
        buckets = self._buckets
        counts = self.event_counts
        until_f = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        dispatched = 0
        hit_until = False
        walk = None
        try:
            while times and dispatched < limit:
                t = times[0]
                if t > until_f:
                    hit_until = True
                    break
                bucket = buckets[t]
                # a same-instant call appends to this list: the iterator reaches it in turn
                self._walk = walk = iter(bucket)
                for fn, args, handle in walk:
                    if handle is not None:
                        if handle.cancelled:
                            continue  # tombstone: cancel() already debited _live
                        # fired: from here on cancel(), even from its own callback, debits nothing
                        handle._sim = None
                        fn = handle.fn
                        args = handle.args
                    self.now = t
                    dispatched += 1
                    if counts is not None:
                        _count(counts, fn)
                    if args:
                        fn(*args)
                    else:
                        fn()
                    if dispatched == limit:
                        break
                else:
                    heappop(times)
                    del buckets[t]
                    walk = None
                    continue
                break
        finally:
            if walk is not None:  # stopped inside an instant: drop the entries it walked
                del bucket[: len(bucket) - walk.__length_hint__()]
            self._walk = None
            # one debit for the batch, a raising callback included: cancel() debits
            # ``_live`` itself even mid-batch and subtraction commutes
            self._live -= dispatched
            self.events_dispatched += dispatched
        if until is not None and self.now < until and (hit_until or self._live == 0):
            self.now = until

    def step(self) -> bool:
        """Run the single next pending event.  Returns False when idle."""
        before = self.events_dispatched
        self.run(max_events=1)
        return self.events_dispatched != before

    def _queued(self, t: float) -> list:
        """The entries of instant ``t`` not yet dispatched."""
        bucket = self._buckets[t]
        walk = self._walk
        if walk is not None and t == self.now:  # the instant run() is walking
            return bucket[len(bucket) - walk.__length_hint__():]
        return bucket

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (live) event, or None when idle."""
        for t in sorted(self._times):
            for _fn, _args, handle in self._queued(t):
                if handle is None or not handle.cancelled:
                    return t
        return None

    def pending(self) -> int:
        """Live (non-cancelled) events still queued, O(1).  Exact unless :meth:`run` is on
        the stack: a callback sees it over-report by the events dispatched so far in the batch."""
        return self._live

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a batch of events (helper for component teardown)."""
        for ev in events:
            ev.cancel()

    def queue_snapshot(self) -> dict:
        """Histogram of live queued callbacks, qualname -> count, for the
        invariant guard's watchdog dump (what is the simulation waiting on?)."""
        counts: dict = {}
        for t in self._times:
            for fn, _args, handle in self._queued(t):
                if handle is not None:
                    fn = handle.fn  # None once cancelled
                if fn is not None:
                    _count(counts, fn)
        return counts


class PeriodicTask:
    """A repeating callback chain created by :meth:`Simulator.call_every`."""

    __slots__ = ("sim", "period", "end", "fn", "args", "cancelled", "_next")

    def __init__(
        self, sim: Simulator, first: float, period: float, end: Optional[float], fn: Callback, args: tuple
    ) -> None:
        self.sim = sim
        self.period = period
        self.end = end
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._next: Event = sim.schedule(first, self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        nxt = self.sim.now + self.period
        if self.end is None or nxt <= self.end:
            self._next = self.sim.schedule(nxt, self._tick)
        self.fn(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        self._next.cancel()
