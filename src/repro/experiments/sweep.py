"""Sweep engine: a grid of cells, a content-addressed result cache, and
the one executor that runs what the cache does not hold.

Every figure of §IV is an embarrassingly parallel grid of independent
simulations — (case, scheme, seed, time_scale) cells.  This module
turns such a grid into explicit :class:`SimJob` values and executes
them through :func:`run_sweep`, which

* memoizes finished cells in a :class:`ResultCache` keyed by a SHA-256
  hash of everything that determines the cell's output — topology
  descriptor, :class:`~repro.core.params.CCParams`, traffic case,
  scheme, routing policy, seed, time scale and the ``repro`` version —
  so repeated CLI runs, benchmarks and EXPERIMENTS.md regeneration
  reuse results instead of re-simulating;
* runs the rest as a private broker drained by local workers: the
  misses are submitted to a :class:`~repro.service.broker.FsBroker` in
  a temporary directory and executed by
  :class:`~repro.service.worker.Worker` — in process, or in
  ``SweepOptions.jobs`` worker processes — the executor ``repro
  worker`` runs against a shared broker.  Its per-cell timeouts,
  bounded retries with backoff and failure records are the sweep's;
  a worker process that dies has its cell requeued, then recorded as a
  crash, without aborting the sweep.  Partial results are first-class:
  a failed cell leaves ``None`` and a structured
  :class:`~repro.experiments.resilience.JobFailure` in
  ``SweepReport.failures``.  The cache is the journal: a sweep run
  again with its cache directory picks up where it stopped.

Determinism contract: a cell is seeded only by its own ``SimJob``
fields, so a parallel run, a serial run, a retried run, a re-run after
an interrupt and a cache hit all yield bit-for-bit identical
aggregates (`CaseResult` serialization is lossless; JSON round-trips
finite floats exactly).

See ``docs/sweep.md`` for the job/cache model and
``docs/robustness.md`` for the failure-handling model.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
import operator
import os
import shutil
import tempfile
import time
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import __version__
from repro.core.ccfit import SCHEMES
from repro.core.params import CCParams
from repro.experiments.resilience import JobFailure, RetryPolicy
from repro.experiments.runner import CASE_CONFIG, CaseResult, run_case
from repro.network.buffers import BUFFER_MODELS
from repro.network.routing import ROUTING_POLICIES
from repro.sim.faults import FaultPlan
from repro.telemetry import TelemetryConfig

__all__ = [
    "SweepOptions",
    "SimJob",
    "Axis",
    "AXES",
    "KNOBS",
    "CellError",
    "ResultCache",
    "SweepReport",
    "run_sweep",
    "default_cache_dir",
]


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweep``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    return env if env else os.path.join(os.path.expanduser("~"), ".cache", "repro-sweep")


@dataclass(frozen=True)
class SweepOptions:
    """How :func:`run_sweep` executes a grid -- workers, cache, retries
    -- and nothing about the cells in it: those are declared by the
    jobs.  ``cache_dir=None`` (the default) disables
    the cache entirely, keeping programmatic calls pure; the CLI opts
    in explicitly.
    """

    #: worker processes; 1 = one worker in this process.
    jobs: int = 1
    #: cache directory, or None for no on-disk cache.
    cache_dir: Optional[str] = None
    #: master switch (lets a CLI ``--no-cache`` keep the dir setting).
    use_cache: bool = True
    #: per-job wall-clock timeout in *seconds*, or None for no limit.
    #: Enforcing a timeout takes a process to kill (a wedged in-process
    #: job cannot be interrupted), so with one each attempt runs in a
    #: process of its own (``run_isolated``), ``jobs=1`` included.
    timeout: Optional[float] = None
    #: bounded retries per failing cell (on top of the first attempt).
    max_retries: int = 2
    #: first retry backoff in seconds (doubles per retry, plus
    #: deterministic per-job jitter — see resilience.RetryPolicy).
    backoff: float = 0.25

    @property
    def cache_enabled(self) -> bool:
        return self.use_cache and self.cache_dir is not None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries, backoff_base=self.backoff)


def _config_descriptor(case: str) -> Dict[str, Any]:
    """The topology descriptor baked into cache keys: a cell's output
    depends on the network the case runs on, not only the case name."""
    cfg = CASE_CONFIG[case]
    return {
        "config": cfg.name,
        "topology": cfg.topology,
        "nodes": cfg.num_nodes,
        "switches": cfg.num_switches,
        "crossbar_bw": cfg.crossbar_bw,
        "link_bandwidths": list(cfg.link_bandwidths),
        "mtu": cfg.mtu,
        "memory_size": cfg.memory_size,
    }


def _canonical(obj: Any) -> bytes:
    """The canonical JSON of ``obj`` -- sorted keys, no whitespace: the
    bytes every key and every content digest here is a SHA-256 of."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _params_dict(params: CCParams) -> Dict[str, Any]:
    """``dataclasses.asdict(params)`` without its recursive deep copy,
    which cost more than the rest of a key together: ``CCParams`` is
    scalars and one flat list (the CCT), so one level is all there is
    (``tests/test_sweep.py`` holds the two equal)."""
    out = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        out[f.name] = list(value) if isinstance(value, list) else value
    return out


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` beside ``path`` and rename it into place, so a
    reader sees the old file or the new one, never a torn one.  The
    temp name carries the pid *and* a random part: neither two threads
    of one process nor two hosts whose pids collide on a shared
    directory write through one temp file."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class CellError(ValueError):
    """A cell that cannot be declared: an unknown name, a knob its case
    does not take, a value out of range.  The message is for whoever
    asked -- the CLI prints it and exits 2, ``POST /experiments``
    answers 400 with it."""


def unknown_name(kind: str, name: Any, choices: Iterable[str]) -> str:
    """``unknown <kind> 'nmae' — did you mean name? (choose from ...)``,
    matching case-insensitively so ``"ccfti"`` still suggests CCFIT."""
    names = sorted(choices)
    folded = {n.casefold(): n for n in names}
    close = difflib.get_close_matches(str(name).casefold(), list(folded), n=3, cutoff=0.4)
    hint = f" — did you mean {' or '.join(folded[c] for c in close)}?" if close else ""
    return f"unknown {kind} {name!r}{hint} (choose from {', '.join(names)})"


def _named(kind: str, registry: Mapping[str, Any]) -> Callable[[Any], str]:
    """A parser for the names of a live registry: the name itself, or
    the one it matches case-insensitively (``"ccfit"`` is ``CCFIT``)."""

    def parse(raw: Any) -> str:
        if isinstance(raw, str):
            if raw in registry:
                return raw
            match = {name.casefold(): name for name in registry}.get(raw.casefold())
            if match is not None:
                return match
        raise CellError(unknown_name(kind, raw, registry))

    return parse


def _positive(name: str) -> Callable[[Any], float]:
    def parse(raw: Any) -> float:
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not 0.0 < value < math.inf:
            raise CellError(f"{name} must be a finite number > 0, not {raw!r}")
        return value

    return parse


def _count(name: str, least: int, most: float = math.inf) -> Callable[[Any], int]:
    def parse(raw: Any) -> int:
        try:
            value = least - 1 if isinstance(raw, bool) else operator.index(raw)
        except TypeError:
            value = least - 1
        if not least <= value <= most:
            bound = f">= {least}" if most == math.inf else f"in {least}..{most}"
            raise CellError(f"{name} must be an integer {bound}, not {raw!r}")
        return value

    return parse


_INTERVAL = _positive("telemetry_interval")


def _fault_plan(raw: Any) -> Optional[FaultPlan]:
    """A plan, the ``--faults`` grammar (docs/faults.md) or the wire
    form ``{"name": ..., "plan": FaultPlan.to_dict()}``."""
    if raw is None or isinstance(raw, FaultPlan):
        return raw
    try:
        if isinstance(raw, str):
            return FaultPlan.parse(raw)
        return FaultPlan.from_dict(raw.get("plan", {}), name=raw.get("name", ""))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CellError(f"bad faults spec: {exc}") from None


def _telemetry(raw: Any, interval: Any = None) -> Optional[TelemetryConfig]:
    """A config, its ``to_dict()``, or ``True`` for the default one;
    ``interval`` overrides the sampling period (ns)."""
    if not raw:
        if interval is not None:
            raise CellError("telemetry_interval is given but telemetry is not on")
        return None
    try:
        config = raw if isinstance(raw, TelemetryConfig) else TelemetryConfig(
            **({} if raw is True else raw))
    except TypeError as exc:
        raise CellError(f"bad telemetry config: {exc}") from None
    period = _INTERVAL(config.interval if interval is None else interval)
    return config if interval is None else dataclasses.replace(config, interval=period)


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Axis:
    """One row of :data:`AXES`: all that any layer knows about one axis
    of a cell.  A ``SimJob``'s key, label and validation, the wire spec
    (:mod:`repro.service.api`), the grid crossing and result keys of
    :class:`~repro.experiments.registry.Experiment`, the CLI flags and
    the fields ``POST /experiments`` takes are all read from here;
    docs/sweep.md, "Adding an axis"."""

    #: the ``SimJob`` field, and its key in the preimage and the spec.
    name: str
    #: the paper's value.  A cell at it says nothing about the axis:
    #: no key in the preimage or the spec, no suffix on the label.
    default: Any
    #: raw value -> canonical value, or :class:`CellError`.  Raw is a
    #: command-line word, a JSON value of a request or of the wire
    #: spec, or the canonical value itself.
    parse: Callable[..., Any]
    #: the CLI option ``--<name>``: its help and argparse keywords.
    help: str
    cli: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: canonical value -> its JSON in the key preimage ...
    key: Callable[[Any], Any] = _same
    #: ... and in the wire spec, which ``parse`` reads back.
    wire: Callable[[Any], Any] = _same
    #: what a value adds to the cell's label and result key: ``sigil``
    #: then ``text(value)``; no sigil, no mention.
    sigil: str = ""
    text: Callable[[Any], str] = str
    #: the ``Experiment`` attribute listing values to cross.  In a grid
    #: that does, ``baseline`` makes the default value show in result
    #: keys too (``+none``, the fault-free cell of a fault grid).
    grid: Optional[str] = None
    baseline: bool = False
    #: a request may list several values to cross; it does so under
    #: the ``grid`` name (``routings``), not under ``name``.
    listable: bool = False
    #: a second request field (and ``--flag``) that refines the value
    #: and means nothing without it: name, help, argparse keywords.
    refine: Optional[Tuple[str, str, Mapping[str, Any]]] = None

    @property
    def field(self) -> str:
        """The request field (CLI dest, ``POST`` key) the value is under."""
        return self.grid if self.listable else self.name

    def suffix(self, value: Any) -> str:
        return self.sigil + self.text(value) if self.sigil else ""


#: the axes of a cell, in label order.
AXES: Tuple[Axis, ...] = (
    Axis(
        "routing", "det", _named("routing policy", ROUTING_POLICIES),
        "routing policy (det|ecmp|adaptive|flowlet, case-insensitive; default det, "
        "the paper's; docs/routing.md).  `sweep` accepts a comma-separated list "
        "forming a grid axis",
        cli=dict(metavar="NAME[,NAME..]"),
        sigil="@", grid="routings", listable=True,
    ),
    Axis(
        "faults", None, _fault_plan,
        "inject deterministic faults into every cell, e.g. 'kill:s0p4->s16p0@1.2ms' or "
        "'degrade:LINK@2ms:bw=0.5,drop=0.01;seed=7' (docs/faults.md)",
        cli=dict(metavar="SPEC"),
        # the unscaled plan: the preimage is the input, the runner
        # scales it with the cell.  Its name is not in the key.
        key=FaultPlan.to_dict,
        wire=lambda plan: {"name": plan.name, "plan": plan.to_dict()},
        sigil="+", text=lambda plan: plan.label() if plan is not None else "none",
        grid="faults", baseline=True,
    ),
    Axis(
        "buffer_model", "static", _named("buffer model", BUFFER_MODELS),
        "switch buffer organisation (static|shared, case-insensitive; default static, "
        "the paper's per-port partitioning; docs/buffers.md)",
        cli=dict(metavar="NAME"),
        sigil="%", grid="buffer_models",
    ),
    Axis(
        "telemetry", None, _telemetry,
        "attach the telemetry sampler to every simulation (results stay "
        "byte-identical; bundles ride on the results; docs/telemetry.md)",
        cli=dict(action="store_true"),
        key=TelemetryConfig.to_dict, wire=TelemetryConfig.to_dict,
        refine=("telemetry_interval", "telemetry sampling period in ns (default 100000)",
                dict(type=float, metavar="NS")),
    ),
)

#: the knobs each case takes beside the axes, with their parsers.
KNOBS: Dict[str, Dict[str, Callable[[Any], Any]]] = {
    "case4": {"num_trees": _count("num_trees", 1, 8), "duration_ms": _positive("duration_ms")},
}

_SCHEME = _named("scheme", SCHEMES)
_TIME_SCALE = _positive("time_scale")
_SEED = _count("seed", 0)


def parse_names(parse: Callable[[Any], Any], raw: Any) -> Tuple[Any, ...]:
    """The values a request lists -- a sequence, or comma-separated
    words -- each through ``parse``, repeats dropped."""
    words = raw.split(",") if isinstance(raw, str) else raw
    return tuple(dict.fromkeys(
        parse(w.strip() if isinstance(w, str) else w) for w in words if w != ""))


def read_axes(get: Callable[[str], Any]) -> Dict[str, Any]:
    """The axis fields of one request as keywords of
    ``Experiment.jobs``.  ``get(field)`` looks a field up in a parsed
    command line or a ``POST`` body and is None (or False) where it was
    not given; values come back canonical, so a typo fails here."""
    out: Dict[str, Any] = {}
    for axis in AXES:
        raw = get(axis.field)
        if axis.refine is not None:
            out[axis.field] = axis.parse(raw, get(axis.refine[0]))
        elif raw:
            out[axis.field] = parse_names(axis.parse, raw) if axis.listable else axis.parse(raw)
    return out


@dataclass(frozen=True)
class SimJob:
    """One independent simulation cell of a sweep grid: the declaration
    the key, the label, the wire spec and the run are all derived from.
    Construction validates and normalises (:class:`CellError`), so equal
    cells are equal objects: ``SimJob(buffer_model="static")``,
    ``SimJob(buffer_model="Static")`` and ``SimJob()`` are one."""

    #: traffic case ("case1".."case4") — fixes topology and workload.
    case: str
    scheme: str
    time_scale: float = 1.0
    seed: int = 1
    #: None means the case's default parameters (``CCParams()``).
    params: Optional[CCParams] = None
    #: the case's knobs (:data:`KNOBS`), sorted: (("num_trees", 4),).
    extra: Tuple[Tuple[str, Any], ...] = ()
    # the axes, one field per row of AXES (None reads as the default)
    telemetry: Optional[TelemetryConfig] = None
    routing: str = "det"
    #: times are at ``time_scale=1.0``; the runner scales them.
    faults: Optional[FaultPlan] = None
    #: "static" leaves ``params.buffer_model`` alone.
    buffer_model: str = "static"

    def __post_init__(self) -> None:
        if self.case not in CASE_CONFIG:
            raise KeyError(f"unknown case {self.case!r}; choose from {sorted(CASE_CONFIG)}")
        fix = object.__setattr__
        fix(self, "scheme", _SCHEME(self.scheme))
        fix(self, "time_scale", _TIME_SCALE(self.time_scale))
        fix(self, "seed", _SEED(self.seed))
        if self.extra != ():
            knobs = KNOBS.get(self.case, {})
            extra = sorted(dict(self.extra).items())
            for name, _value in extra:
                if name not in knobs:
                    raise CellError(f"{self.case}: " + unknown_name("knob", name, knobs))
            fix(self, "extra", tuple((name, knobs[name](value)) for name, value in extra))
        for axis in AXES:
            value = getattr(self, axis.name)
            if value is not axis.default:
                fix(self, axis.name, axis.default if value is None else axis.parse(value))

    def axes(self) -> Iterator[Tuple[Axis, Any]]:
        """The axes this cell is off the default on, with their values:
        the one place that leaves a default out, for key, label, spec
        and run alike -- so a cell declared before an axis existed
        keeps its key."""
        for axis in AXES:
            value = getattr(self, axis.name)
            if value != axis.default:
                yield axis, value

    def payload(self) -> Dict[str, Any]:
        """Everything that determines this cell's output (the cache-key
        preimage); see docs/sweep.md for the field inventory."""
        out = {
            "version": __version__,
            "case": self.case,
            "topology": _config_descriptor(self.case),
            "scheme": self.scheme,
            "time_scale": self.time_scale,
            "seed": self.seed,
            "params": _params_dict(self.params if self.params is not None else CCParams()),
            "extra": dict(self.extra),
        }
        for axis, value in self.axes():
            out[axis.name] = axis.key(value)
        return out

    def preimage(self) -> bytes:
        """The canonical JSON of :meth:`payload`: what the key is a
        SHA-256 of, and line 3 of the cell's cache entry."""
        return _canonical(self.payload())

    def key(self) -> str:
        # derived on every call, on purpose: "The cache key" in
        # docs/sweep.md says what a memo would (not) buy.
        return hashlib.sha256(self.preimage()).hexdigest()

    def run(self) -> CaseResult:
        """Execute the cell in-process (deterministic for fixed fields)."""
        return run_case(
            self.case,
            scheme=self.scheme,
            time_scale=self.time_scale,
            seed=self.seed,
            params=self.params,
            **{axis.name: value for axis, value in self.axes()},
            **dict(self.extra),
        )

    def suffix(self, crossed: Iterable[str] = ()) -> str:
        """What the axes add to the cell's name: ``@adaptive+flap%shared``.
        An axis named in ``crossed`` shows its default too where its
        row has a ``baseline`` (``+none``)."""
        given = {axis.name: value for axis, value in self.axes()}
        out = ""
        for axis in AXES:
            if axis.name in given:
                out += axis.suffix(given[axis.name])
            elif axis.baseline and axis.name in crossed:
                out += axis.suffix(axis.default)
        return out

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in self.extra)
        return f"{self.case}/{self.scheme}{self.suffix()}" + (f"[{extra}]" if extra else "")


#: a temp file this old (seconds) belongs to a writer that died between
#: its write and its rename -- no write takes a minute -- so hygiene may
#: remove it; a younger one may be a write in flight.
_TEMP_ORPHAN_S = 60.0


class ResultCache:
    """Content-addressed store of finished cells: one file per cache
    key under ``root``, three lines each (schema 3, docs/sweep.md)::

        {"schema":3,"sha256":"<SHA-256 of line 2>"}
        <the result: canonical JSON of CaseResult.to_dict()>
        <the job: SimJob.preimage(), whose SHA-256 is the key>   (optional)

    so a read is one file read and one hash of bytes, and a write
    serialises the result once.  Entries written before schema 3 -- one
    JSON document ``{"schema":2,"sha256":...,"result":...,"job":...}``
    with the same digest -- stay readable; nothing writes them.

    Integrity hardening:

    * writes are atomic (:func:`write_atomic`), so concurrent sweeps
      sharing a directory never observe torn files;
    * every entry carries a SHA-256 digest of its result, verified on
      read, so a corrupt or truncated entry can never silently poison a
      figure;
    * a corrupt entry is moved to ``root/quarantine/`` (preserving the
      evidence), counted in :attr:`discarded`, reported through
      :mod:`warnings`, and the cell is recomputed — a bad entry is a
      loud miss, never a wrong result.

    Only *data* errors are treated as misses (unreadable file, invalid
    JSON, digest mismatch, undecodable result schema); programming
    errors propagate.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: entries discarded as corrupt/undecodable since construction.
        self.discarded = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _discard(self, key: str, reason: str) -> None:
        """Quarantine a bad entry (or drop it if even that fails)."""
        self.discarded += 1
        target: Optional[Path] = self.quarantine_dir / f"{key}.json"
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(self.path(key), target)
        except OSError:
            target = None
            try:
                self.path(key).unlink()
            except OSError:
                pass
        where = f"; quarantined to {target}" if target is not None else ""
        warnings.warn(
            f"sweep cache entry {key[:12]}... discarded: {reason}{where} "
            f"(the cell will be recomputed)",
            RuntimeWarning,
            stacklevel=3,
        )

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored result as canonical JSON, digest-verified and not
        parsed: all a caller needs to know the cell is there, or to
        send it on.  A corrupt entry is quarantined and reads as a
        miss."""
        try:
            data = self.path(key).read_bytes()
        except FileNotFoundError:
            return None  # a plain miss
        except OSError as exc:
            warnings.warn(
                f"sweep cache entry {key[:12]}... unreadable ({exc}); treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        head, _, rest = data.partition(b"\n")
        try:
            envelope = json.loads(head)
        except ValueError:
            self._discard(key, "invalid JSON (torn or truncated write)")
            return None
        if not isinstance(envelope, dict):
            envelope = {}  # JSON, but no entry: an unrecognized schema below
        stored = envelope.get("sha256")
        if envelope.get("schema") == 3:
            blob = rest.partition(b"\n")[0]
        elif isinstance(envelope.get("result"), dict):
            # schema 2: the one line is the whole entry, the result
            # inside it; to verify it is to serialise it again
            blob = _canonical(envelope["result"])
        else:
            self._discard(key, "unrecognized entry schema")
            return None
        if hashlib.sha256(blob).hexdigest() != stored:
            self._discard(key, "content digest mismatch")
            return None
        return blob

    def get_dict(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result dict, digest-verified, its keys in
        canonical (sorted) order: what :meth:`put_dict` was given, for
        callers that want a part of it without hydrating numpy
        arrays."""
        blob = self.get_bytes(key)
        return json.loads(blob) if blob is not None else None

    def get(self, key: str) -> Optional[CaseResult]:
        result = self.get_dict(key)
        if result is None:
            return None
        try:
            return CaseResult.from_dict(result)
        except (KeyError, TypeError, ValueError) as exc:
            # digest-valid but undecodable: written by an incompatible
            # schema version.  Loudly recompute rather than guess.
            self._discard(key, f"undecodable result ({type(exc).__name__}: {exc})")
            return None

    def put(self, key: str, result: CaseResult, job: Optional[SimJob] = None) -> None:
        self.put_dict(key, result.to_dict(), job.preimage() if job is not None else None)

    def put_dict(
        self, key: str, result_dict: Dict[str, Any], job_preimage: Optional[bytes] = None
    ) -> None:
        """Store an already-serialized result (the worker/service path
        receives dicts over the wire; re-hydrating just to re-serialize
        would be waste).  The one entry writer: :meth:`put` ends here."""
        blob = _canonical(result_dict)
        lines = [b'{"schema":3,"sha256":"%s"}' % hashlib.sha256(blob).hexdigest().encode(), blob]
        if job_preimage is not None:
            lines.append(job_preimage)
        write_atomic(self.path(key), b"\n".join(lines) + b"\n")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        return self._remove((p, 0) for p in self.root.glob("*.json"))[0] + self._sweep_temp()[0]

    # -- hygiene (the `repro cache` subcommand) ------------------------
    @staticmethod
    def _listing(paths: Iterable[Path], stem: bool = False) -> List[Tuple[str, int, float]]:
        """``(name, size_bytes, mtime)`` per file still there, oldest first."""
        out: List[Tuple[str, int, float]] = []
        for p in paths:
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((p.stem if stem else p.name, st.st_size, st.st_mtime))
        out.sort(key=lambda e: e[2])
        return out

    def entries(self) -> List[Tuple[str, int, float]]:
        """``(key, size_bytes, mtime)`` per entry, oldest first."""
        return self._listing(self.root.glob("*.json"), stem=True)

    def quarantined(self) -> List[Tuple[str, int, float]]:
        """``(name, size_bytes, mtime)`` per quarantined file."""
        return self._listing(self.quarantine_dir.glob("*"))

    def temp_files(self) -> List[Tuple[str, int, float]]:
        """``(name, size_bytes, mtime)`` per ``*.tmp.*`` file: a write
        in flight, or what a writer that died before its rename left
        behind (no entry listing matches them)."""
        return self._listing(self.root.glob("*.tmp.*"))

    @staticmethod
    def _remove(doomed: Iterable[Tuple[Path, int]]) -> Tuple[int, int]:
        """Unlink each ``(path, size)``: ``(removed, freed_bytes)`` of
        the ones still there to remove."""
        removed = freed = 0
        for path, size in doomed:
            try:
                path.unlink()
            except OSError:
                continue  # gone already: a concurrent prune or clear
            removed += 1
            freed += size
        return removed, freed

    def _sweep_temp(self) -> Tuple[int, int]:
        """Remove the orphaned temp files; ``(removed, freed_bytes)``."""
        cutoff = time.time() - _TEMP_ORPHAN_S
        return self._remove((self.root / name, size)
                            for name, size, mtime in self.temp_files() if mtime < cutoff)

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe summary: entry/byte totals and age extremes —
        what ``repro cache`` prints for a shared namespace."""
        entries = self.entries()
        quarantined = self.quarantined()
        now = time.time()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _k, size, _m in entries),
            "oldest_age_s": (now - entries[0][2]) if entries else None,
            "newest_age_s": (now - entries[-1][2]) if entries else None,
            "quarantined": len(quarantined),
            "quarantined_bytes": sum(size for _n, size, _m in quarantined),
            "temp_files": len(self.temp_files()),
        }

    def prune(
        self,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        include_quarantine: bool = True,
    ) -> Dict[str, int]:
        """Evict entries older than ``max_age_s``, then — oldest first —
        until the namespace fits ``max_bytes``.  Quarantined files are
        pruned by the same age rule (they are evidence, not results —
        they never count toward the size budget); orphaned temp files
        always go.  Returns removal accounting."""
        cutoff = time.time() - max_age_s if max_age_s is not None else None
        entries = self.entries()  # oldest first, so the ones too old are a prefix
        cut = sum(1 for _k, _s, mtime in entries if cutoff is not None and mtime < cutoff)
        if max_bytes is not None:
            total = sum(size for _k, size, _m in entries[cut:])
            while cut < len(entries) and total > max_bytes:
                total -= entries[cut][1]
                cut += 1
        removed, freed = self._remove((self.path(key), size) for key, size, _m in entries[:cut])
        q_removed = 0
        if include_quarantine and cutoff is not None:
            q_removed, q_freed = self._remove((self.quarantine_dir / name, size)
                                              for name, size, mtime in self.quarantined()
                                              if mtime < cutoff)
            freed += q_freed
        t_removed, t_freed = self._sweep_temp()
        return {
            "removed": removed,
            "freed_bytes": freed + t_freed,
            "quarantine_removed": q_removed,
            "temp_removed": t_removed,
        }


@dataclass
class SweepReport:
    """What :func:`run_sweep` did: results aligned with the job list,
    plus cache, execution and failure accounting.

    Partial results are first-class: a cell that exhausted its retries
    leaves ``None`` in :attr:`results` and a structured
    :class:`~repro.experiments.resilience.JobFailure` in
    :attr:`failures`; everything else is intact.
    """

    jobs: List[SimJob]
    results: List[Optional[CaseResult]]
    #: cells served from the on-disk cache.
    hits: int = 0
    #: distinct cells not served from the cache (attempted this run):
    #: a cell the grid names twice is simulated, and counted, once.
    misses: int = 0
    #: worker processes used (1 = one worker in this process).
    workers: int = 1
    elapsed: float = 0.0
    #: retry attempts performed across all cells.
    retried: int = 0
    #: structured records of the cells that could not be completed.
    failures: List[JobFailure] = field(default_factory=list)
    #: corrupt cache entries discarded (and recomputed) this run.
    cache_discarded: int = 0
    #: per-cell wall-clock seconds, aligned with :attr:`jobs` (None for
    #: cells served from the cache, or failed).  Recorded so the
    #: manifest and the service progress stream agree on timing
    #: attribution.
    cell_elapsed: List[Optional[float]] = field(default_factory=list)
    #: per-cell executor id, aligned with :attr:`jobs`: ``"pid<n>"``
    #: for simulated cells, ``"cache"`` for cached ones, None for
    #: failed cells.
    cell_workers: List[Optional[str]] = field(default_factory=list)

    @property
    def ok(self) -> int:
        """Cells simulated successfully this run."""
        return self.misses - len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def by_scheme(self) -> Dict[str, CaseResult]:
        """Scheme -> result, for the common one-cell-per-scheme grids.
        Failed cells are absent from the mapping."""
        return {
            job.scheme: res for job, res in zip(self.jobs, self.results) if res is not None
        }

    def summary(self) -> str:
        s = (
            f"{len(self.jobs)} cell(s): {self.hits} cache hit(s), "
            f"{self.ok} simulated on {self.workers} worker(s) "
            f"in {self.elapsed:.1f} s"
        )
        if self.retried:
            s += f", {self.retried} retried"
        if self.failures:
            s += f", {len(self.failures)} FAILED"
        return s

    # -- failure manifest ----------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """A JSON-safe structured account of the run (see
        docs/robustness.md for the schema)."""
        failed_keys = {f.key for f in self.failures}
        cells = []
        for i, (job, res) in enumerate(zip(self.jobs, self.results)):
            key = job.key()
            cell = {
                "label": job.label(),
                "key": key,
                "status": "failed" if key in failed_keys and res is None else "ok",
            }
            if i < len(self.cell_workers) and self.cell_workers[i] is not None:
                cell["worker"] = self.cell_workers[i]
            if i < len(self.cell_elapsed) and self.cell_elapsed[i] is not None:
                cell["elapsed_s"] = self.cell_elapsed[i]
            cells.append(cell)
        return {
            "schema": 1,
            "cells": len(self.jobs),
            "ok": self.ok,
            "cache_hits": self.hits,
            "retried": self.retried,
            "failed": len(self.failures),
            "workers": self.workers,
            "cache_discarded": self.cache_discarded,
            "elapsed_s": self.elapsed,
            "jobs": cells,
            "failures": [f.to_dict() for f in self.failures],
        }

    def write_manifest(self, path) -> None:
        """Atomically write :meth:`manifest` as JSON to ``path``."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(Path(path), (json.dumps(self.manifest(), indent=2) + "\n").encode("utf-8"))


#: where a sweep's private broker lives: in memory where the platform
#: has a tmpfs for it.  Nothing there outlives the sweep, and on a disk
#: filesystem deleting what a cell's lease leaves behind can cost more
#: than the cell (docs/sweep.md, "Execution").
_SCRATCH = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None


def run_sweep(jobs: Sequence[SimJob], *, options: Optional[SweepOptions] = None) -> SweepReport:
    """Execute a grid of cells, reusing cached results where possible.

    Cells already in the cache are returned without simulating, and
    nothing else is touched for them.  The misses -- each distinct cell
    once -- are submitted to a private
    :class:`~repro.service.broker.FsBroker` and drained by the one
    executor of a cell, :class:`~repro.service.worker.Worker`: in this
    process (``options.jobs <= 1``, or a single miss), else in
    ``options.jobs`` worker processes.  A cell that crashes, times out
    or keeps raising is recorded in ``SweepReport.failures`` and leaves
    ``None`` in its result slots; the rest of the sweep completes
    normally.
    """
    opts = options if options is not None else SweepOptions()
    cache = ResultCache(opts.cache_dir) if opts.cache_enabled else None
    t0 = time.perf_counter()
    report = SweepReport(jobs=list(jobs), results=[None] * len(jobs),
                         cell_elapsed=[None] * len(jobs), cell_workers=[None] * len(jobs))
    keys = [job.key() for job in jobs]
    misses: Dict[str, SimJob] = {}
    for i, key in enumerate(keys):
        found = cache.get(key) if cache is not None else None
        if found is None:
            misses.setdefault(key, jobs[i])
        else:
            report.results[i] = found
            report.cell_workers[i] = "cache"
            report.hits += 1
    if misses:
        _execute(misses, keys, opts, report)
    report.misses = len(misses)
    report.cache_discarded = cache.discarded if cache is not None else 0
    report.elapsed = time.perf_counter() - t0
    return report


def _execute(misses: Dict[str, SimJob], keys: List[str], opts: SweepOptions,
             report: SweepReport) -> None:
    """Run ``misses`` through a private broker, publishing into the
    sweep's cache (or the broker's own, with the cache off), and fill
    their slots of ``report`` from the run's manifest."""
    from repro.service.broker import FsBroker
    from repro.service.worker import drain

    root = tempfile.mkdtemp(prefix="repro-sweep-", dir=_SCRATCH)
    try:
        broker = FsBroker(root, cache_dir=opts.cache_dir if opts.cache_enabled else None)
        run = broker.submit(list(misses.values()), experiment="sweep")
        report.workers = max(1, min(opts.jobs, len(misses)))
        # what ran in this process comes back as it filled it; the rest
        # is read from the cache it was published into
        fresh = drain(broker, misses, report.workers, policy=opts.retry_policy(),
                      timeout=opts.timeout)
        manifest = broker.run_manifest(run.id)
        done = {
            cell["key"]: (
                CaseResult.from_dict(fresh[cell["key"]]["result"]) if cell["key"] in fresh
                else broker.cache.get(cell["key"]),
                cell.get("worker"),
                cell.get("elapsed_s"),
            )
            for cell in manifest["jobs"] if cell["status"] == "ok"
        }
        for i, key in enumerate(keys):
            if report.results[i] is None and key in done:
                report.results[i], report.cell_workers[i], report.cell_elapsed[i] = done[key]
        report.retried = manifest["retried"]
        report.failures = [
            JobFailure(
                key=f["key"], label=f["label"], kind=f.get("kind", "error"),
                exception=f.get("exception", "UnknownError"), message=f.get("message", ""),
                traceback=f.get("traceback", ""), attempts=int(f.get("attempts") or 1),
            )
            for f in manifest["failures"]
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)
