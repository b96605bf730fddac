"""The pin table: every pinned output of the simulator, run one way.

``tests/golden/pins.json`` maps a pin's name to four fields:

* ``kind`` -- what is pinned: a cell's ``CaseResult`` (``result``), the
  protocol-trace rows of :func:`hot_fabric` (``trace``), a cell's
  telemetry bundle (``telemetry``) or its per-callback event histogram
  (``dispatch``);
* ``cell`` -- what runs: the broker's wire spec of a ``SimJob``
  (``job_to_spec``), or, for ``trace``, a recipe of :data:`RECIPES`;
* ``sha256`` -- of the output's canonical JSON, the bytes the cache
  and the cache key hash (``repro.experiments.sweep._canonical``);
* ``fingerprint`` -- a few readable numbers of that output, so a pin
  that moves says what moved.

``tests/test_pins.py`` runs the table on both event kernels;
``scripts/repin.py`` runs it, prints what moved and rewrites it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.runner import CaseResult, run_case
from repro.experiments.sweep import _canonical
from repro.metrics.trace import ProtocolTrace
from repro.network.fabric import build_fabric
from repro.network.topology import config1_adhoc
from repro.service.api import job_from_spec
from repro.sim.engine import Simulator
from repro.traffic.flows import FlowSpec, attach_traffic

TABLE = Path(__file__).parent / "golden" / "pins.json"
FIELDS = ("cell", "fingerprint", "kind", "sha256")


def hot_fabric(scheme: str = "CCFIT", sim: Optional[Simulator] = None):
    """Three sources at 2.5 GB/s onto node 4 of Config #1: one hot spot,
    traced from the start."""
    fab = build_fabric(config1_adhoc(), scheme=scheme, seed=5, sim=sim)
    trace = ProtocolTrace().attach(fab)
    attach_traffic(fab, flows=[FlowSpec(f"h{src}", src=src, dst=4, rate=2.5, end=1_000_000.0)
                               for src in (1, 2, 5)])
    return fab, trace


RECIPES = {"hot_fabric": hot_fabric}


def run_cell(spec: Dict[str, Any], sim_factory, **override) -> CaseResult:
    """``SimJob.run`` on the kernel ``sim_factory`` makes."""
    job = job_from_spec(spec)
    kw = dict(scheme=job.scheme, time_scale=job.time_scale, seed=job.seed, params=job.params,
              **{axis.name: value for axis, value in job.axes()}, **dict(job.extra))
    return run_case(job.case, sim_factory=sim_factory, **{**kw, **override})


def _result(cell, sim_cls):
    res = run_cell(cell, sim_cls)
    lo, hi = res.window
    gbps = {"before": (0.0, lo), "window": (lo, hi), "after": (hi, float("inf"))}
    return res.to_dict(), {**res.stats, **{f"gbps_{part}": round(res.mean_throughput(t0, t1), 4)
                                           for part, (t0, t1) in gbps.items()}}


def _trace(cell, sim_cls):
    fab, trace = RECIPES[cell["recipe"]](cell["scheme"], sim=sim_cls())
    fab.run(until=cell["until"])
    rows = [[e.time, e.kind, e.where, e.dest, e.detail] for e in trace.events]
    return rows, {"rows": len(rows), **trace.counts()}


def _telemetry(cell, sim_cls):
    bundle = run_cell(cell, sim_cls).telemetry
    return bundle, dict(bundle["events"]["counts"])


def _dispatch(cell, sim_cls):
    sim = sim_cls(profile=True)
    res = run_cell(cell, lambda: sim)
    counts = sim.event_counts
    # no telemetry, no guard: every dispatch is a counted event
    assert sum(counts.values()) == res.stats["events"], (sum(counts.values()), res.stats["events"])
    return counts, dict(counts)


RUNNERS = {"result": _result, "trace": _trace, "telemetry": _telemetry, "dispatch": _dispatch}


def load(path: Path) -> Dict[str, Dict[str, Any]]:
    """The table at ``path``, each entry checked for its fields and kind."""
    table = json.loads(path.read_text())
    for name, entry in table.items():
        if sorted(entry) != list(FIELDS):
            raise ValueError(f"pin {name!r} has fields {sorted(entry)}, not {list(FIELDS)}")
        if entry["kind"] not in RUNNERS:
            raise ValueError(f"pin {name!r} has unknown kind {entry['kind']!r} "
                             f"(choose from {', '.join(RUNNERS)})")
    return table


def dump(table: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def digest(out: Any) -> str:
    return hashlib.sha256(_canonical(out)).hexdigest()


def run(entry: Dict[str, Any], sim_cls=Simulator) -> Dict[str, Any]:
    """``entry`` with the digest and fingerprint of what its cell gives today."""
    out, fingerprint = RUNNERS[entry["kind"]](entry["cell"], sim_cls)
    return {**entry, "sha256": digest(out), "fingerprint": fingerprint}


def _text(value: Any) -> str:
    return "-" if value is None else f"{value:,}" if isinstance(value, (int, float)) else str(value)


def row(name: str, old: Dict[str, Any], new: Dict[str, Any]) -> str:
    """``name`` and each fingerprint field that moved, old → new; the
    digest alone when no field did."""
    was, now = old["fingerprint"], new["fingerprint"]
    moved = [(f, _text(was.get(f)), _text(now.get(f)))
             for f in sorted(set(was) | set(now)) if was.get(f) != now.get(f)]
    if not moved and old["sha256"] != new["sha256"]:
        moved = [("sha256", old["sha256"][:12], new["sha256"][:12])]
    return f"{name}  " + ", ".join(f"{f} {a} → {b}" for f, a, b in moved)
