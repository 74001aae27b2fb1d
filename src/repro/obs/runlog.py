"""Structured JSONL run logs and their schema validator.

One experiment run = one ``.jsonl`` file, one JSON object per line,
streamed as the run progresses (a crashed run is still reconstructable
up to the crash).  Every event carries the envelope

``run_id``
    Identifier shared by every line of the file.
``seq``
    Strictly increasing integer -- a truncated or interleaved file
    fails validation.
``ts``
    Unix wall-clock seconds at emission.
``type``
    One of :data:`EVENT_TYPES`, each with required payload fields
    (:data:`REQUIRED_FIELDS`).

Event types:

``run_start``
    ``experiment``, ``params_hash`` (the same canonical content hash
    :mod:`repro.perf.cache` keys sweep cells with), ``version``; plus
    optional ``params``, ``seed``, ``python``, ``platform``.
``span``
    A finished profiling span (see :mod:`repro.obs.spans`).
``metrics``
    A full registry ``snapshot``.
``warning`` / ``note``
    Free-form ``message`` lines (Python warnings are captured into
    ``warning`` events while telemetry is active).
``fault``
    A fault-injector transition (``event`` plus e.g. ``port``).
``health``
    A pathology-detector finding (``detector``, ``severity``,
    ``message``; see :mod:`repro.obs.health`).  The final ``health``
    event of a run is the per-run verdict
    (``detector="health.verdict"`` with a ``verdict`` field).
``sweep``
    A sweep-runner resilience transition (``event`` one of ``resume``,
    ``cell_retry``, ``cell_timeout``, ``cell_quarantined``,
    ``pool_respawn``, ``pool_degraded``, ``interrupted``; see
    :mod:`repro.perf.sweep`), with event-specific context such as the
    cell index and error type.
``retry``
    A component retried an operation after a recoverable failure
    (``component``, e.g. ``fluid.dde`` on a halved-step integration
    retry, plus context like the failing ``t`` and the step sizes).
    An optional ``cell`` (a non-negative int) names the ensemble cell
    the integrator re-ran alone.
``worker``
    A distributed-queue lifecycle transition (``event`` one of
    ``worker_started``, ``worker_stopped``, ``worker_seen``,
    ``worker_lost``, ``cell_claimed``, ``cell_completed``,
    ``cell_failed``, ``cell_requeued``, ``cell_released``,
    ``cell_stolen``, ``cell_quarantined``, ``backend_fallback``; see
    :mod:`repro.perf.backend` and :mod:`repro.perf.worker`), with
    context such as the worker id, cell key and lease age.
``trace``
    A cross-host fleet-trace anchor: the queue coordinator records
    the ``trace_id`` it stamped into the tasks of a dispatch (plus
    the queue dir), linking this run log to the per-worker trace
    shards ``python -m repro report --fleet`` stitches.
``profile``
    A sampling-profiler summary (``samples`` plus the per-category
    share breakdown; see :mod:`repro.obs.profile`).
``flow``
    One flow's forensic record (``flow_id``, ``completed``, the
    ``components`` FCT decomposition, plus causal annotations; see
    :mod:`repro.obs.forensics`).  Emitted at finalization for every
    flow of a ``--forensics`` run; ``repro explain`` renders them.
``abort``
    An engine watchdog stopped a run (``reason`` one of
    ``max_events``/``wall_clock``, plus ``sim_time`` and
    ``events_processed``); emitted just before the engine raises
    :class:`~repro.sim.engine.SimulationAborted`, so live surfaces
    show *why* a run died.
``fuzz``
    A chaos-conformance harness transition (``event`` one of
    ``scenario_start``, ``scenario_ok``, ``violation``, ``shrunk``,
    ``summary``; see :mod:`repro.qa`), with context such as the
    scenario digest, seed and the violated oracle.
``run_end``
    ``status`` (``ok``/``error``) and total ``wall_s``.

The full schema is documented in ``docs/OBSERVABILITY.md``;
:func:`validate_file` is what the CI telemetry smoke job runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Optional, Union

#: Bump when the event envelope or required fields change.
#: 2 added the ``health`` event type (PR 4).
#: 3 added the ``sweep`` and ``retry`` event types (PR 5).
#: 4 added the ``worker`` event type (PR 6, distributed queue).
#: 5 added the ``trace`` and ``profile`` event types (PR 8, fleet
#: observability plane).
#: 6 added the ``flow`` event type (PR 9, flow forensics).
#: 7 added the ``abort`` and ``fuzz`` event types (PR 10, chaos
#: conformance harness).
RUNLOG_VERSION = 7

#: Every event type a run log may contain.
EVENT_TYPES = frozenset({"run_start", "run_end", "span", "metrics",
                         "warning", "note", "fault", "health",
                         "sweep", "retry", "worker", "trace",
                         "profile", "flow", "abort", "fuzz"})

#: Required payload fields per event type (beyond the envelope).
REQUIRED_FIELDS: Dict[str, frozenset] = {
    "run_start": frozenset({"experiment", "params_hash", "version"}),
    "run_end": frozenset({"status", "wall_s"}),
    "span": frozenset({"name", "path", "depth", "wall_s", "cpu_s"}),
    "metrics": frozenset({"snapshot"}),
    "warning": frozenset({"message"}),
    "note": frozenset({"message"}),
    "fault": frozenset({"event"}),
    "health": frozenset({"detector", "severity", "message"}),
    "sweep": frozenset({"event"}),
    "retry": frozenset({"component"}),
    "worker": frozenset({"event"}),
    "trace": frozenset({"trace_id"}),
    "profile": frozenset({"samples"}),
    "flow": frozenset({"flow_id", "completed", "components"}),
    "abort": frozenset({"reason", "sim_time", "events_processed"}),
    "fuzz": frozenset({"event"}),
}

#: Optional payload fields per event type, type-checked when present.
OPTIONAL_FIELDS: Dict[str, Dict[str, type]] = {
    "retry": {"cell": int},
}

#: Envelope fields every event must carry.
ENVELOPE_FIELDS = frozenset({"run_id", "seq", "ts", "type"})


class RunLog:
    """Streaming JSONL writer for one run.

    Events are flushed line-by-line so the log survives crashes.  The
    writer enforces the same invariants the validator checks: known
    event types, monotonic ``seq``, one ``run_start`` first.

    ``fsync=True`` additionally forces every event through to the OS
    (``os.fsync`` after each flush) so a live tail -- ``python -m
    repro watch`` on another terminal, or a reader on a shared
    filesystem -- sees events promptly and a hard crash loses at most
    the line being written.  It costs one syscall per event; leave it
    off for throughput-sensitive batch runs.
    """

    def __init__(self, path: Union[str, Path], run_id: str,
                 fsync: bool = False):
        self.path = Path(path)
        self.run_id = run_id
        self.fsync = fsync
        self._seq = 0
        self._started = time.time()
        self._stream: Optional[IO[str]] = open(self.path, "w",
                                               encoding="utf-8")
        self._finished = False

    # -- event emission ---------------------------------------------------

    def emit(self, event_type: str, **fields: Any) -> dict:
        """Write one event line; returns the emitted dict."""
        if self._stream is None:
            raise ValueError(f"run log {self.path} is closed")
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; "
                f"known: {sorted(EVENT_TYPES)}")
        missing = REQUIRED_FIELDS[event_type] - set(fields)
        if missing:
            raise ValueError(
                f"{event_type} event missing fields {sorted(missing)}")
        if self._seq == 0 and event_type != "run_start":
            raise ValueError("the first event must be run_start")
        event = {"run_id": self.run_id, "seq": self._seq,
                 "ts": time.time(), "type": event_type, **fields}
        self._stream.write(json.dumps(event, sort_keys=True,
                                      default=_jsonable) + "\n")
        self._stream.flush()
        if self.fsync:
            os.fsync(self._stream.fileno())
        self._seq += 1
        return event

    def start(self, experiment: str, params_hash: str,
              params: Any = None, seed: Optional[int] = None,
              **extra: Any) -> dict:
        """Emit the opening ``run_start`` event."""
        import platform
        fields: Dict[str, Any] = {
            "experiment": experiment,
            "params_hash": params_hash,
            "version": RUNLOG_VERSION,
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        if params is not None:
            fields["params"] = params
        if seed is not None:
            fields["seed"] = seed
        fields.update(extra)
        return self.emit("run_start", **fields)

    def warning(self, message: str, **fields: Any) -> dict:
        return self.emit("warning", message=str(message), **fields)

    def note(self, message: str, **fields: Any) -> dict:
        return self.emit("note", message=str(message), **fields)

    def fault(self, event: str, **fields: Any) -> dict:
        """Record a fault-injector transition (link flap, etc.)."""
        return self.emit("fault", event=event, **fields)

    def sweep(self, event: str, **fields: Any) -> dict:
        """Record a sweep-runner resilience transition (retry,
        timeout, quarantine, pool respawn/degrade, resume)."""
        return self.emit("sweep", event=event, **fields)

    def retry(self, component: str, **fields: Any) -> dict:
        """Record a recoverable-failure retry inside a component."""
        return self.emit("retry", component=component, **fields)

    def worker(self, event: str, **fields: Any) -> dict:
        """Record a distributed-queue worker/lease transition."""
        return self.emit("worker", event=event, **fields)

    def trace(self, trace_id: str, **fields: Any) -> dict:
        """Anchor this run to a cross-host fleet trace."""
        return self.emit("trace", trace_id=trace_id, **fields)

    def profile(self, samples: int, **fields: Any) -> dict:
        """Record a sampling-profiler summary."""
        return self.emit("profile", samples=int(samples), **fields)

    def flow(self, flow_id: int, completed: bool, components: dict,
             **fields: Any) -> dict:
        """Record one flow's forensic FCT attribution."""
        return self.emit("flow", flow_id=flow_id,
                         completed=bool(completed),
                         components=components, **fields)

    def abort(self, reason: str, sim_time: float,
              events_processed: int, **fields: Any) -> dict:
        """Record an engine-watchdog abort (cause + engine state)."""
        return self.emit("abort", reason=reason,
                         sim_time=float(sim_time),
                         events_processed=int(events_processed),
                         **fields)

    def fuzz(self, event: str, **fields: Any) -> dict:
        """Record a chaos-conformance harness transition."""
        return self.emit("fuzz", event=event, **fields)

    def health(self, detector: str, severity: str, message: str,
               **fields: Any) -> dict:
        """Record a pathology-detector finding (or the final verdict)."""
        return self.emit("health", detector=detector,
                         severity=severity, message=str(message),
                         **fields)

    def span(self, record) -> dict:
        """Record a finished :class:`~repro.obs.spans.SpanRecord`."""
        return self.emit("span", **record.as_dict())

    def metrics(self, snapshot: Dict[str, dict]) -> dict:
        """Record a full metrics-registry snapshot."""
        return self.emit("metrics", snapshot=snapshot)

    def finish(self, status: str = "ok",
               error: Optional[str] = None) -> dict:
        """Emit ``run_end``; later emits fail."""
        fields: Dict[str, Any] = {
            "status": status,
            "wall_s": time.time() - self._started}
        if error is not None:
            fields["error"] = error
        event = self.emit("run_end", **fields)
        self._finished = True
        return event

    def close(self) -> None:
        if self._stream is not None:
            if not self._finished and self._seq > 0:
                self.finish(status="abandoned")
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and not self._finished \
                and self._stream is not None and self._seq > 0:
            self.finish(status="error", error=repr(exc))
        self.close()


def _jsonable(obj: Any) -> Any:
    """Fallback serializer: numpy scalars/arrays, paths, then repr."""
    if hasattr(obj, "item") and callable(obj.item):
        try:
            return obj.item()
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return repr(obj)


# -- reading and validation ---------------------------------------------------


def read_events(path: Union[str, Path],
                strict: bool = False) -> List[dict]:
    """Parse every event line of a run log (no validation).

    A crashed writer -- or one still running, read mid-line by a live
    tail -- leaves a truncated final line.  By default that partial
    tail is silently dropped (the events before it are intact and the
    validator still flags the missing ``run_end``); ``strict=True``
    restores the old raise-on-any-partial-JSON behaviour.  A malformed
    line *followed by* further lines is corruption, not truncation,
    and always raises.
    """
    events = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    last_content = -1
    for index, line in enumerate(lines):
        if line.strip():
            last_content = index
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if strict or index != last_content:
                raise
            # Truncated final line: the writer died (or is still
            # writing) mid-event; everything before it stands.
    return events


def validate_events(events: Iterable[dict]) -> List[str]:
    """Schema-check parsed events; returns error strings (empty=valid)."""
    errors: List[str] = []
    events = list(events)
    if not events:
        return ["run log contains no events"]
    run_id = events[0].get("run_id")
    for index, event in enumerate(events):
        where = f"event {index}"
        missing_envelope = ENVELOPE_FIELDS - set(event)
        if missing_envelope:
            errors.append(f"{where}: missing envelope fields "
                          f"{sorted(missing_envelope)}")
            continue
        if event["run_id"] != run_id:
            errors.append(f"{where}: run_id {event['run_id']!r} != "
                          f"{run_id!r}")
        if event["seq"] != index:
            errors.append(f"{where}: seq {event['seq']} != {index}")
        event_type = event["type"]
        if event_type not in EVENT_TYPES:
            errors.append(f"{where}: unknown type {event_type!r}")
            continue
        missing = REQUIRED_FIELDS[event_type] - set(event)
        if missing:
            errors.append(f"{where}: {event_type} missing fields "
                          f"{sorted(missing)}")
        for name, kind in OPTIONAL_FIELDS.get(event_type, {}).items():
            value = event.get(name)
            if name in event and (type(value) is not kind
                                  or (kind is int and value < 0)):
                errors.append(f"{where}: {event_type} field {name}="
                              f"{value!r} is not a valid {kind.__name__}")
    if events[0].get("type") != "run_start":
        errors.append("first event must be run_start, got "
                      f"{events[0].get('type')!r}")
    if events[-1].get("type") != "run_end":
        errors.append("last event must be run_end, got "
                      f"{events[-1].get('type')!r} (truncated log?)")
    return errors


def validate_file(path: Union[str, Path]) -> List[str]:
    """Parse + schema-check a run log file; returns error strings."""
    try:
        events = read_events(path)
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable run log {path}: {error}"]
    return validate_events(events)
