"""Performance harness: ``python -m repro perf``.

Reports on the simulation substrate as JSON (``BENCH_engine.json``).
The numbers here are informational; the evidence for a performance
claim is the end-to-end benchmark (``benchmarks/e2e``, declared by
``BENCHMARK.json``), not this harness.

* **dispatch microbenchmark** — a pure-engine workload shaped like the
  steady state of a packet-grain interconnect simulation: many
  staggered self-sustaining chains, each cycling through a
  serialisation-done + delivery pair plus a credit return, scheduled
  through the handle-free APIs (:meth:`~repro.sim.engine.Simulator.post`,
  :meth:`~repro.sim.engine.Simulator.schedule_pair`) exactly like the
  production :class:`~repro.network.link.Link`.
* **case benchmark** — full figure cells through
  :func:`repro.experiments.runner.run_case` with an injected
  ``Simulator(profile=True)``, reporting wall-clock events/s and the
  per-subsystem event histogram (who the simulation actually spends
  its events on: link, switch, end node, traffic, throttling...).

Two invariant gates ride along and are what ``--check`` asserts:
:func:`telemetry_overhead` runs one cell with and without the sampler
attached and verifies the serialised results are byte-identical either
way; :func:`routing_dispatch_overhead` keeps the det routing policy's
per-packet dispatch within :data:`ROUTING_GATE_PCT` of the pre-policy
direct table lookup.

``--cprofile`` additionally runs one case under :mod:`cProfile` and
prints the top functions by cumulative time.  See docs/performance.md.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List, Sequence

from repro.sim.engine import Simulator

__all__ = [
    "dispatch_microbench",
    "bench_case",
    "subsystem_counts",
    "telemetry_overhead",
    "routing_dispatch_overhead",
    "run_perf",
    "write_report",
    "check_report",
]

#: the routing-policy indirection budget: the det policy's per-packet
#: dispatch must stay within this percentage of the pre-policy direct
#: table lookup (docs/routing.md; asserted by CI).
ROUTING_GATE_PCT = 5.0

#: qualname prefix -> subsystem label for the event histogram.
SUBSYSTEM_PREFIXES = (
    ("Link.", "link"),
    ("Switch.", "switch"),
    ("InputPort.", "switch"),
    ("OutputPort.", "switch"),
    ("EndNode.", "endnode"),
    ("IaStage.", "endnode"),
    ("FlowGenerator.", "traffic"),
    ("UniformGenerator.", "traffic"),
    ("ThrottleState.", "throttling"),
    ("NfqCfqScheme.", "isolation"),
    ("PeriodicTask.", "periodic"),
    ("Collector.", "metrics"),
)

#: the paper's MTU serialisation time / link delay (ns) — the microbench
#: uses the real cadence.
_SER_NS = 819.2
_WIRE_NS = 40.0


class _PooledChain:
    """One microbench traffic chain on the handle-free scheduling APIs:
    serialisation-done + delivery + credit return per cycle — three
    events, the per-hop event mix of a busy link, scheduled exactly
    like the production :class:`~repro.network.link.Link`.  Callback
    bodies are deliberately minimal so the measurement is of dispatch
    and scheduling, not of callback work."""

    __slots__ = ("sim",)

    def __init__(self, sim: Simulator, start: float) -> None:
        self.sim = sim
        sim.post(start, self._hop, None)

    def _hop(self, pkt: Any) -> None:
        # serialisation-done + delivery as one schedule_pair; the
        # delivery leg carries a payload argument like Link._deliver.
        sim = self.sim
        done = sim.now + _SER_NS
        sim.schedule_pair(done, self._tx_done, (), done + _WIRE_NS, self._hop, (pkt,))

    def _tx_done(self) -> None:
        self.sim.post_in(_WIRE_NS, self._credit)

    def _credit(self) -> None:
        pass


def dispatch_microbench(
    n_events: int = 300_000,
    chains: int = 16_384,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure raw dispatch throughput of the event queue.

    ``chains`` sets the pending-event population (2 queued events per
    chain) — the default (~33 k pending events) models the steady
    state of a large fabric, the paper's target domain.

    Returns ``{"events", "wall_s", "events_per_s", "alloc_blocks"}`` —
    ``wall_s`` is the best of ``repeats`` runs (standard microbench
    practice: the minimum is the least noisy estimator) and
    ``alloc_blocks`` the net allocated-block delta of one run
    (:func:`sys.getallocatedblocks`): the entries left queued.
    """
    import gc

    best = float("inf")
    alloc = 0
    # rep 0 is an untimed warm-up (interpreter specialisation, branch
    # caches, allocator arenas); each timed rep starts from a collected
    # heap so one rep's garbage is not another rep's pause.
    for rep in range(repeats + 1):
        sim = Simulator()
        for i in range(chains):
            # stagger starts so chains do not align
            _PooledChain(sim, 1.0 + i * 13.1)
        gc.collect()
        blocks0 = sys.getallocatedblocks()
        t0 = time.perf_counter()
        sim.run(max_events=n_events)
        wall = time.perf_counter() - t0
        alloc = sys.getallocatedblocks() - blocks0
        if sim.events_dispatched != n_events:
            raise RuntimeError(
                f"microbench under-ran: {sim.events_dispatched}/{n_events} events"
            )
        if rep > 0:
            best = min(best, wall)
    return {
        "events": n_events,
        "wall_s": best,
        "events_per_s": n_events / best,
        "alloc_blocks": alloc,
    }


def subsystem_counts(event_counts: Dict[str, int]) -> Dict[str, int]:
    """Fold a per-qualname histogram into per-subsystem totals."""
    out: Dict[str, int] = {}
    for qualname, n in event_counts.items():
        label = "other"
        for prefix, sub in SUBSYSTEM_PREFIXES:
            if qualname.startswith(prefix):
                label = sub
                break
        out[label] = out.get(label, 0) + n
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def bench_case(
    case: str,
    scheme: str,
    *,
    time_scale: float,
    seed: int,
    routing: str = "det",
    profile_counts: bool = True,
) -> Dict[str, Any]:
    """Run one figure cell and report events/s plus the per-subsystem
    event histogram."""
    from repro.experiments.runner import run_case

    sims: List[Simulator] = []

    def factory() -> Simulator:
        s = Simulator(profile=profile_counts)
        sims.append(s)
        return s

    t0 = time.perf_counter()
    result = run_case(
        case, scheme=scheme, time_scale=time_scale, seed=seed,
        routing=routing, sim_factory=factory,
    )
    wall = time.perf_counter() - t0
    sim = sims[-1]
    row: Dict[str, Any] = {
        "case": case,
        "scheme": scheme,
        "routing": routing,
        "time_scale": time_scale,
        "seed": seed,
        "events": sim.events_dispatched,
        "wall_s": wall,
        "events_per_s": sim.events_dispatched / wall if wall > 0 else 0.0,
        "delivered_packets": int(result.stats.get("delivered_packets", 0)),
    }
    if profile_counts and sim.event_counts is not None:
        row["subsystems"] = subsystem_counts(sim.event_counts)
    return row


def telemetry_overhead(
    case: str = "case1",
    scheme: str = "CCFIT",
    *,
    time_scale: float = 0.05,
    seed: int = 1,
    interval: float = 100_000.0,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure the telemetry sampler's cost on one figure cell.

    Runs the cell with and without a
    :class:`~repro.telemetry.TelemetryConfig` attached (best of
    ``repeats`` walls each) and reports the wall-clock penalty plus
    ``byte_identical`` — whether the two runs produced the exact same
    serialised :class:`~repro.experiments.runner.CaseResult` (the
    sampler is read-only by contract; this is the proof).
    """
    from repro.experiments.runner import run_case
    from repro.telemetry import TelemetryConfig

    def measure(telemetry):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_case(
                case,
                scheme=scheme,
                time_scale=time_scale,
                seed=seed,
                telemetry=telemetry,
            )
            best = min(best, time.perf_counter() - t0)
        return best, result

    wall_off, res_off = measure(None)
    wall_on, res_on = measure(TelemetryConfig(interval=interval))
    on_dict = res_on.to_dict()
    on_dict.pop("telemetry", None)
    identical = json.dumps(on_dict, sort_keys=True) == json.dumps(
        res_off.to_dict(), sort_keys=True
    )
    events = int(res_off.stats["events"])
    return {
        "case": case,
        "scheme": scheme,
        "time_scale": time_scale,
        "seed": seed,
        "interval": interval,
        "events": events,
        "wall_off_s": wall_off,
        "wall_on_s": wall_on,
        "event_rate_off": events / wall_off if wall_off > 0 else 0.0,
        "event_rate_on": events / wall_on if wall_on > 0 else 0.0,
        "overhead_pct": 100.0 * (wall_on / wall_off - 1.0) if wall_off > 0 else 0.0,
        "samples": int(res_on.telemetry["ticks"]) if res_on.telemetry else 0,
        "byte_identical": identical,
    }


class _RouteStubPacket:
    __slots__ = ("dst",)

    def __init__(self, dst: int) -> None:
        self.dst = dst


class _SeedSwitchStub:
    __slots__ = ("routing",)

    def __init__(self, table) -> None:
        self.routing = table


class _SeedPortStub:
    """The pre-policy dispatch shape: ``route`` is a class-level method
    doing one attribute walk plus the table lookup — exactly what
    ``InputPort.route`` compiled to before the policy layer."""

    __slots__ = ("switch",)

    def __init__(self, switch) -> None:
        self.switch = switch

    def route(self, pkt) -> int:
        return self.switch.routing.lookup(pkt.dst)


def routing_dispatch_overhead(
    n_calls: int = 200_000,
    repeats: int = 5,
    gate_pct: float = ROUTING_GATE_PCT,
) -> Dict[str, Any]:
    """Measure the det routing policy's per-packet dispatch cost against
    the pre-policy direct table lookup (the seed's ``InputPort.route``
    method), and gate it at ``gate_pct`` percent.

    The policy layer installs a per-port closure
    (:meth:`~repro.network.routing.DetRoutingPolicy.route_for`) instead
    of dispatching through ``switch.policy.route``, precisely so this
    number stays near zero; CI asserts ``ok``.  Best-of-``repeats``
    walls on both shapes, interleaved so neither side benefits from
    cache warm-up order.
    """
    from repro.network.routing import DetRoutingPolicy, RoutingTable

    table = RoutingTable(0, {dst: dst % 8 for dst in range(64)})
    seed_port = _SeedPortStub(_SeedSwitchStub(table))
    policy_port = _SeedPortStub(_SeedSwitchStub(table))
    # shadow the method exactly like Switch.__init__ does — but the stub
    # has __slots__, so route the closure through a local instead.
    policy_route = DetRoutingPolicy(table).route_for(policy_port)
    seed_route = seed_port.route
    pkts = [_RouteStubPacket(i % 64) for i in range(512)]

    loops = max(1, n_calls // len(pkts))

    def measure_once(route) -> float:
        t0 = time.perf_counter()
        for _ in range(loops):
            for pkt in pkts:
                route(pkt)
        return time.perf_counter() - t0

    # warm both shapes once, then interleave the timed repeats so a
    # noisy-neighbour burst or clock-drift window hits both sides
    # rather than biasing whichever block it lands in
    measure_once(seed_route)
    measure_once(policy_route)
    seed_s = policy_s = float("inf")
    for _ in range(repeats):
        seed_s = min(seed_s, measure_once(seed_route))
        policy_s = min(policy_s, measure_once(policy_route))
    overhead = 100.0 * (policy_s / seed_s - 1.0) if seed_s > 0 else 0.0
    return {
        "calls": max(1, n_calls // len(pkts)) * len(pkts),
        "seed_s": seed_s,
        "policy_s": policy_s,
        "overhead_pct": overhead,
        "gate_pct": gate_pct,
        "ok": overhead <= gate_pct,
    }


def cprofile_case(
    case: str,
    scheme: str,
    *,
    time_scale: float,
    seed: int,
    top: int = 25,
) -> str:
    """Run one cell under cProfile; returns the top-``top`` cumulative
    report as text."""
    import cProfile
    import io
    import pstats

    from repro.experiments.runner import run_case

    prof = cProfile.Profile()
    prof.enable()
    run_case(case, scheme=scheme, time_scale=time_scale, seed=seed)
    prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def run_perf(
    *,
    cases: Sequence[str] = ("case1",),
    schemes: Sequence[str] = ("CCFIT",),
    time_scale: float = 0.1,
    seed: int = 1,
    micro_events: int = 300_000,
    micro_repeats: int = 3,
    telemetry_interval: float = 100_000.0,
    routing: str = "det",
) -> Dict[str, Any]:
    """Assemble the full ``BENCH_engine.json`` payload.  ``routing``
    selects the policy the case benchmarks run under; the routing
    dispatch gate (:func:`routing_dispatch_overhead`) always runs."""
    return {
        "schema": "repro.perf/2",
        "microbench": dispatch_microbench(n_events=micro_events, repeats=micro_repeats),
        # the routing gate keeps its full repeat count even in quick
        # mode: the measurement is cheap (~0.3 s) and the gate is a
        # hard CI assert
        "routing": routing_dispatch_overhead(repeats=max(5, micro_repeats)),
        "cases": [
            bench_case(case, scheme, time_scale=time_scale, seed=seed, routing=routing)
            for case in cases
            for scheme in schemes
        ],
        "telemetry": [
            telemetry_overhead(
                cases[0],
                schemes[0],
                time_scale=time_scale,
                seed=seed,
                interval=telemetry_interval,
                repeats=max(1, micro_repeats),
            )
        ],
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def check_report(report: Dict[str, Any]) -> "tuple[bool, List[str]]":
    """The invariant gates behind ``repro perf --check``.

    Returns ``(ok, lines)`` — ``ok`` False makes the CLI exit 1.  Both
    gates are carried inside the report and are machine-independent:
    the routing dispatch gate's ``ok`` and every telemetry row's
    ``byte_identical`` must hold.  Events/s figures are deliberately
    *not* compared — they track the host, not the code; performance
    claims are settled by ``benchmarks/e2e``.
    """
    lines: List[str] = []
    ok = True
    routing = report.get("routing")
    if routing is not None:
        if routing.get("ok", True):
            lines.append(
                f"ok   routing dispatch: {routing['overhead_pct']:+.1f}% "
                f"(gate {routing['gate_pct']:.0f}%)"
            )
        else:
            ok = False
            lines.append(
                f"FAIL routing dispatch overhead {routing['overhead_pct']:+.1f}% "
                f"exceeds gate {routing['gate_pct']:.0f}%"
            )
    for row in report.get("telemetry", []):
        cell = f"{row['case']}/{row['scheme']}"
        if row.get("byte_identical", True):
            lines.append(f"ok   telemetry on {cell}: results byte-identical")
        else:
            ok = False
            lines.append(f"FAIL telemetry on {cell} changed results (byte_identical false)")
    return ok, lines


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary printed by the CLI."""
    lines: List[str] = []
    m = report.get("microbench")
    if m:
        lines.append(
            f"microbench: {m['events_per_s'] / 1e6:.2f} M events/s "
            f"({m['events']} events in {m['wall_s'] * 1e3:.1f} ms, "
            f"{m['alloc_blocks']} net alloc blocks)"
        )
    gate = report.get("routing")
    if gate:
        lines.append(
            f"routing det-policy dispatch: {gate['overhead_pct']:+.1f}% vs "
            f"direct table lookup (gate {gate['gate_pct']:.0f}%): "
            f"{'ok' if gate['ok'] else 'FAIL'}"
        )
    for row in report.get("cases", []):
        tag = f"@{row['routing']}" if row.get("routing", "det") != "det" else ""
        lines.append(
            f"{row['case']}/{row['scheme']}{tag}: "
            f"{row['events_per_s'] / 1e3:.0f} k events/s "
            f"({row['events']} events, {row['wall_s']:.2f} s wall)"
        )
        subs = row.get("subsystems")
        if subs:
            total = sum(subs.values()) or 1
            parts = ", ".join(f"{k} {100.0 * v / total:.0f}%" for k, v in subs.items())
            lines.append(f"  events by subsystem: {parts}")
    for row in report.get("telemetry", []):
        lines.append(
            f"telemetry overhead {row['case']}/{row['scheme']}: "
            f"{row['overhead_pct']:+.1f}% wall at {row['interval']:.0f} ns sampling "
            f"({row['samples']} samples), results byte-identical: "
            f"{'yes' if row['byte_identical'] else 'NO'}"
        )
    return "\n".join(lines)
