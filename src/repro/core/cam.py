"""Content-addressable memories tracking congestion trees.

FBICM/CCFIT keep, at every input port (and IA output stage), one CAM
line per CFQ; the line stores the **destination** the congested flow is
addressed to (the paper's footnote 3: that is all CCFIT needs under
distributed deterministic routing) plus the queue's protocol state.
Output ports carry a small CAM as well, linking the congestion
information of the downstream switch's input CFQs to this switch's
input ports (§III-A).

Because DET routing converges all traffic for one destination onto a
single path tree, a destination unambiguously identifies a congestion
tree, so all protocol messages (Alloc/Dealloc/Stop/Go) are keyed by
destination.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["CamLine", "InputCam", "OutputCamLine", "OutputCam", "CamError"]


class CamError(RuntimeError):
    """Raised on CAM protocol violations (double alloc/free)."""


class CamLine:
    """State of one allocated CFQ at an input port or IA.

    Attributes
    ----------
    dest:
        The congested destination this CFQ isolates.
    cfq_index:
        Which CFQ of the port the line controls.
    root:
        True when this CFQ was allocated by *local detection*, i.e. it
        sits one hop from the congestion point.  Only root CFQs may
        move their output port into the congestion state (§III-C).
    stopped:
        Stop/Go status imposed by the downstream switch: while True the
        CFQ must not request its output port.
    stop_sent:
        We have told the upstream device to stop (and not yet Go).
    propagated:
        We have sent a CfqAlloc upstream (so teardown must send a
        CfqDealloc).
    orphaned:
        The upstream reference (output CAM line) is gone; the line no
        longer captures new packets and frees itself once drained.
    hot:
        Occupancy is above the High threshold (counted by the output
        port's congestion-state counter).
    """

    __slots__ = (
        "dest",
        "cfq_index",
        "root",
        "stopped",
        "stop_sent",
        "propagated",
        "orphaned",
        "hot",
        "allocated_at",
        "last_hot_at",
    )

    def __init__(self, dest: int, cfq_index: int, root: bool, now: float) -> None:
        self.dest = dest
        self.cfq_index = cfq_index
        self.root = root
        self.stopped = False
        self.stop_sent = False
        self.propagated = False
        self.orphaned = False
        self.hot = False
        self.allocated_at = now
        #: when the line last left the hot state (drives the dwell
        #: bypass for lines that recently proved to be genuine roots).
        self.last_hot_at = float("-inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = "".join(
            f
            for f, on in (
                ("R", self.root),
                ("S", self.stopped),
                ("s", self.stop_sent),
                ("P", self.propagated),
                ("O", self.orphaned),
                ("H", self.hot),
            )
            if on
        )
        return f"<CamLine dest={self.dest} cfq={self.cfq_index} {flags}>"


class InputCam:
    """Fixed-capacity CAM of an input port: one line per CFQ."""

    def __init__(self, num_lines: int, name: str = "") -> None:
        self.num_lines = num_lines
        #: the owning port's name: where traced events happen.
        self.name = name
        #: ``recorder(kind, where, dest=None, detail="")``, set by
        #: :meth:`repro.metrics.trace.ProtocolTrace.attach`; None when
        #: untraced.
        self.recorder: Optional[Callable[..., None]] = None
        self._lines: List[Optional[CamLine]] = [None] * num_lines
        #: the allocated lines in CFQ order.  Replaced, never mutated,
        #: by :meth:`allocate`/:meth:`free`: the isolation state machine
        #: frees lines while it iterates :meth:`lines`.
        self._live: List[CamLine] = []
        self._by_dest: Dict[int, CamLine] = {}
        #: times allocation failed because every line was busy — the
        #: scalability limit the paper's Fig. 8 exposes.
        self.alloc_failures = 0
        self.allocations = 0
        self.frees = 0

    # -- queries ---------------------------------------------------------
    def lookup(self, dest: int) -> Optional[CamLine]:
        """The line isolating ``dest``, or None."""
        return self._by_dest.get(dest)

    def lines(self) -> List[CamLine]:
        """All currently allocated lines, in CFQ order.  The list is
        the CAM's own (see ``_live``): read it, do not edit it."""
        return self._live

    def line_at(self, cfq_index: int) -> Optional[CamLine]:
        return self._lines[cfq_index]

    @property
    def full(self) -> bool:
        return len(self._live) >= self.num_lines

    # -- mutation --------------------------------------------------------
    def allocate(self, dest: int, root: bool, now: float) -> Optional[CamLine]:
        """Grab a free line for ``dest``; None (and a recorded failure)
        when the port has run out of CFQs."""
        if dest in self._by_dest:
            raise CamError(f"destination {dest} already has a CAM line")
        for idx, ln in enumerate(self._lines):
            if ln is None:
                line = CamLine(dest, idx, root, now)
                self._lines[idx] = line
                self._live = [ln for ln in self._lines if ln is not None]
                self._by_dest[dest] = line
                self.allocations += 1
                if self.recorder is not None:
                    self.recorder("detect" if root else "adopt", self.name, dest,
                                  f"cfq{idx}")
                return line
        self.alloc_failures += 1
        if self.recorder is not None:
            self.recorder("cam-full", self.name, dest)
        return None

    def note_full(self) -> None:
        """Record an allocation that was never attempted because every
        line is known busy (the detection fast path).  Traced like an
        :meth:`allocate` miss, but with no destination: the scan that
        would blame one is skipped."""
        if self.recorder is not None:
            self.recorder("cam-full", self.name, None)
        self.alloc_failures += 1

    def free(self, line: CamLine) -> None:
        if self.recorder is not None:
            self.recorder("dealloc", self.name, line.dest, f"cfq{line.cfq_index}")
        if self._lines[line.cfq_index] is not line:
            raise CamError(f"freeing unallocated line {line!r}")
        self._lines[line.cfq_index] = None
        self._live = [ln for ln in self._lines if ln is not None]
        del self._by_dest[line.dest]
        self.frees += 1

    # -- validation hook -------------------------------------------------
    def audit(self) -> None:
        """Check internal consistency (invariant-guard hook): the
        by-destination index matches the line array exactly, and the
        allocate/free balance equals the live line count."""
        live = [ln for ln in self._lines if ln is not None]
        if len(live) != len(self._live) or any(a is not b for a, b in zip(live, self._live)):
            raise CamError(f"live-line list {self._live!r} != line array {live!r}")
        for idx, ln in enumerate(self._lines):
            if ln is not None and ln.cfq_index != idx:
                raise CamError(f"line {ln!r} filed at index {idx}")
        if len(self._by_dest) != len(live):
            raise CamError(
                f"CAM index skew: {len(self._by_dest)} dests vs {len(live)} lines"
            )
        for dest, ln in self._by_dest.items():
            if ln.dest != dest or self._lines[ln.cfq_index] is not ln:
                raise CamError(f"CAM index entry for dest {dest} points at {ln!r}")
        if self.allocations - self.frees != len(live):
            raise CamError(
                f"CFQ alloc/free imbalance: {self.allocations} allocs - "
                f"{self.frees} frees != {len(live)} live lines"
            )


class OutputCamLine:
    """One congestion tree referenced by the downstream switch."""

    __slots__ = ("dest", "stopped")

    def __init__(self, dest: int) -> None:
        self.dest = dest
        self.stopped = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OutCamLine dest={self.dest}{' STOP' if self.stopped else ''}>"


class OutputCam:
    """CAM of an output port: mirrors the downstream input port's CFQs.

    Capacity equals the downstream port's CFQ count, since each
    downstream CFQ sends at most one live Alloc.
    """

    def __init__(self, num_lines: int) -> None:
        self.num_lines = num_lines
        self._by_dest: Dict[int, OutputCamLine] = {}
        self.alloc_failures = 0

    def lookup(self, dest: int) -> Optional[OutputCamLine]:
        return self._by_dest.get(dest)

    def lines(self) -> List[OutputCamLine]:
        return list(self._by_dest.values())

    def destinations(self) -> List[int]:
        return list(self._by_dest)

    def allocate(self, dest: int) -> Optional[OutputCamLine]:
        if dest in self._by_dest:
            return self._by_dest[dest]
        if len(self._by_dest) >= self.num_lines:
            self.alloc_failures += 1
            return None
        line = OutputCamLine(dest)
        self._by_dest[dest] = line
        return line

    def free(self, dest: int) -> None:
        if dest not in self._by_dest:
            raise CamError(f"freeing unknown output CAM line for dest {dest}")
        del self._by_dest[dest]
