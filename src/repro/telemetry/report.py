"""Schema-versioned telemetry reports: the JSON sink and its validator.

A :class:`TelemetryReport` wraps an
:class:`~repro.telemetry.core.InMemoryRecorder` snapshot with schema
identity and free-form metadata, so every producer (`repro simulate
--telemetry`, `repro run --telemetry`, `repro faults --telemetry`, the
benchmark scripts) and every consumer (`repro telemetry summarize`, the
CI telemetry-smoke job, the bench assertions) agree on one layout:

.. code-block:: json

    {
      "schema": "repro-telemetry",
      "schema_version": 2,
      "meta": {"command": "simulate", "run": {"host": "...", "pid": 1}},
      "counters": {"engine.ticks": 1234},
      "timers": {"kernel.bitplane.tick": {"count": 16, "...": "..."}},
      "spans": [{"name": "engine.run", "parent": -1, "...": "..."}],
      "events": [{"name": "supervisor.restart", "time": 0.5}],
      "processes": [{"name": "worker-0.0", "kind": "worker", "...": "..."}]
    }

Schema **v2** (current) adds two things over v1: a mandatory
``meta.run`` block identifying the producing process (hostname, pid,
python version, cpu count, repro version, producing subsystem), and an
optional ``processes`` list carrying per-process counter/timer
attribution for multi-process reports merged from worker snapshots (see
:mod:`repro.telemetry.merge`).  v1 payloads still load: ``meta.run``
and ``processes`` are tolerated as absent.

``validate_report`` returns a list of problems instead of raising so CI
can print all of them; :func:`check_report` is the raising form used by
loaders.
"""

from __future__ import annotations

import json
import os
import platform
import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.telemetry.core import InMemoryRecorder
from repro.util.errors import ReproError

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "TelemetryError",
    "TelemetryReport",
    "run_metadata",
    "validate_report",
    "check_report",
]

#: Telemetry report schema identity.
SCHEMA_NAME = "repro-telemetry"
#: The version new reports are written at.
SCHEMA_VERSION = 2
#: Versions ``validate_report`` accepts (v1 predates ``meta.run`` and
#: ``processes``; both are tolerated as absent there).
SUPPORTED_VERSIONS = (1, 2)

#: Keys every timer mapping must carry.
_TIMER_KEYS = (
    "count",
    "total_seconds",
    "min_seconds",
    "max_seconds",
    "mean_seconds",
    "buckets",
)

#: Keys every span mapping must carry.
_SPAN_KEYS = ("name", "index", "parent", "depth", "start", "seconds")

#: Keys every ``meta.run`` block must carry on a v2 report.
_RUN_KEYS = ("host", "pid", "python", "cpu_count", "repro_version")


class TelemetryError(ReproError):
    """A telemetry report is malformed or fails schema validation."""


def run_metadata(producer: str | None = None) -> dict[str, object]:
    """The ``meta.run`` block: who produced this report, on what box.

    Deliberately clock-free (RPR103): identity only, no timestamps —
    report times live on the recorder's monotonic timeline, and wall
    dates would break byte-reproducibility gates.
    """
    from repro import __version__

    block: dict[str, object] = {
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "repro_version": __version__,
    }
    if producer is not None:
        block["producer"] = producer
    return block


@dataclass
class TelemetryReport:
    """One run's telemetry: counters, timers, spans, events, metadata.

    ``processes`` is empty for single-process reports; merged
    multi-process reports (schema v2, built by
    :func:`repro.telemetry.merge.merge_processes`) carry one entry per
    participating process with its own counters/timers, while the
    top-level sections hold the cross-process aggregate.
    """

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, dict] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    meta: dict[str, object] = field(default_factory=dict)
    processes: list[dict] = field(default_factory=list)
    version: int = SCHEMA_VERSION

    @classmethod
    def from_recorder(
        cls,
        recorder: InMemoryRecorder,
        meta: Mapping[str, object] | None = None,
        producer: str | None = None,
    ) -> "TelemetryReport":
        """Snapshot a recorder into a report (metadata merged in).

        Stamps :func:`run_metadata` into ``meta["run"]`` unless the
        caller already provided one (a merger stamping the
        coordinator's identity, say).
        """
        snap = recorder.snapshot()
        merged_meta = dict(meta or {})
        if "run" not in merged_meta:
            merged_meta["run"] = run_metadata(producer)
        return cls(
            counters=dict(snap["counters"]),  # type: ignore[arg-type]
            timers=dict(snap["timers"]),  # type: ignore[arg-type]
            spans=list(snap["spans"]),  # type: ignore[arg-type]
            events=list(snap["events"]),  # type: ignore[arg-type]
            meta=merged_meta,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (schema-versioned)."""
        payload: dict[str, object] = {
            "schema": SCHEMA_NAME,
            "schema_version": self.version,
            "meta": self.meta,
            "counters": self.counters,
            "timers": self.timers,
            "spans": self.spans,
            "events": self.events,
        }
        if self.version >= 2:
            payload["processes"] = self.processes
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TelemetryReport":
        """Parse and validate a report payload (raises :class:`TelemetryError`)."""
        check_report(payload)
        return cls(
            counters=dict(payload["counters"]),  # type: ignore[arg-type]
            timers=dict(payload["timers"]),  # type: ignore[arg-type]
            spans=list(payload["spans"]),  # type: ignore[arg-type]
            events=list(payload["events"]),  # type: ignore[arg-type]
            meta=dict(payload.get("meta", {})),  # type: ignore[arg-type]
            processes=list(payload.get("processes", [])),  # type: ignore[arg-type]
            version=int(payload["schema_version"]),  # type: ignore[arg-type]
        )

    def write_json(self, path: str | Path) -> None:
        """Write the report to ``path`` (stable key order, trailing newline)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "TelemetryReport":
        """Load and validate a report written by :meth:`write_json`."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TelemetryError(f"cannot read telemetry report {path}: {exc}") from exc
        return cls.from_dict(payload)

    # -- summarizing ---------------------------------------------------

    def total_seconds(self, timer_prefix: str) -> float:
        """Sum of ``total_seconds`` over timers whose name has the prefix."""
        return sum(
            float(t["total_seconds"])
            for name, t in self.timers.items()
            if name.startswith(timer_prefix)
        )

    def summary_lines(self) -> list[str]:
        """Human-readable digest for ``repro telemetry summarize``."""
        lines = [f"telemetry report (schema {SCHEMA_NAME} v{self.version})"]
        plain_meta = {k: v for k, v in self.meta.items() if k != "run"}
        if plain_meta:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(plain_meta.items()))
            lines.append(f"  meta: {pairs}")
        run = self.meta.get("run")
        if isinstance(run, Mapping):
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(run.items()))
            lines.append(f"  run: {pairs}")
        if self.processes:
            lines.append(f"  processes: {len(self.processes)}")
            for p in self.processes:
                bits = [str(p.get("kind", "process"))]
                if p.get("pid") is not None:
                    bits.append(f"pid={p['pid']}")
                if p.get("backend"):
                    bits.append(f"backend={p['backend']}")
                shard = p.get("shard")
                if isinstance(shard, Mapping):
                    bits.append(f"rows=[{shard.get('row_start')},{shard.get('row_stop')})")
                offset = p.get("clock_offset_seconds")
                if offset:
                    bits.append(f"offset={float(offset):+.6f}s")
                lines.append(f"    {p.get('name')}: " + " ".join(bits))
        if self.counters:
            lines.append("  counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"    {name} = {value}")
        if self.timers:
            lines.append("  timers:")
            for name, t in sorted(self.timers.items()):
                lines.append(
                    f"    {name}: n={t['count']} total={t['total_seconds']:.6f}s "
                    f"mean={t['mean_seconds']:.6f}s "
                    f"min={t['min_seconds']:.6f}s max={t['max_seconds']:.6f}s"
                )
        # An explicit zero keeps "no spans" distinguishable from "the
        # summarizer skipped the section" (the old behavior read as a
        # truncated report).
        if self.spans:
            lines.append(f"  spans: {len(self.spans)}")
            roots = [s for s in self.spans if s.get("parent", -1) == -1]
            for root in roots:
                origin = f" [{root['process']}]" if "process" in root else ""
                seconds = root.get("seconds") or 0.0
                lines.append(
                    f"    {root['name']}{origin}: {float(seconds):.6f}s "
                    f"({self._child_count(int(root['index']))} nested)"
                )
        else:
            lines.append("  spans: none recorded")
        if self.events:
            lines.append(f"  events: {len(self.events)}")
            by_name: dict[str, int] = {}
            for e in self.events:
                by_name[str(e.get("name"))] = by_name.get(str(e.get("name")), 0) + 1
            for name, n in sorted(by_name.items()):
                lines.append(f"    {name} x{n}")
        return lines

    def summary_json(self) -> dict[str, object]:
        """Machine-readable digest for ``repro telemetry summarize --json``.

        Aggregates only — timer scalars without buckets, span roots,
        event counts by name — so dashboards and shell pipelines get
        stable keys without parsing the full report.
        """
        roots = []
        for s in self.spans:
            if s.get("parent", -1) == -1:
                root: dict[str, object] = {
                    "name": s.get("name"),
                    "seconds": s.get("seconds") or 0.0,
                    "nested": self._child_count(int(s["index"])),
                }
                if "process" in s:
                    root["process"] = s["process"]
                roots.append(root)
        events_by_name: dict[str, int] = {}
        for e in self.events:
            name = str(e.get("name"))
            events_by_name[name] = events_by_name.get(name, 0) + 1
        return {
            "schema": SCHEMA_NAME,
            "schema_version": self.version,
            "meta": self.meta,
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {k: t[k] for k in _TIMER_KEYS if k != "buckets"}
                for name, t in sorted(self.timers.items())
            },
            "spans": {"count": len(self.spans), "roots": roots},
            "events": {"count": len(self.events), "by_name": events_by_name},
            "processes": [
                {
                    "name": p.get("name"),
                    "kind": p.get("kind"),
                    "pid": p.get("pid"),
                    "backend": p.get("backend"),
                }
                for p in self.processes
            ],
        }

    def _child_count(self, root_index: int) -> int:
        children = {root_index}
        # spans are appended in creation order, so parents precede children
        for s in self.spans:
            if int(s.get("parent", -1)) in children:
                children.add(int(s["index"]))
        return len(children) - 1


def _validate_run_block(meta: Mapping[str, object], problems: list[str]) -> None:
    """v2 rule: ``meta.run`` must exist and carry the identity keys."""
    run = meta.get("run")
    if not isinstance(run, Mapping):
        problems.append("v2 report must carry a meta.run mapping (see run_metadata)")
        return
    missing = [k for k in _RUN_KEYS if k not in run]
    if missing:
        problems.append(f"meta.run missing key(s): {', '.join(missing)}")


def _validate_processes(payload: Mapping[str, object], problems: list[str]) -> None:
    """v2 rule: ``processes`` entries need a name and well-formed sections."""
    processes = payload.get("processes")
    if processes is None:
        return
    if not isinstance(processes, list):
        problems.append("processes must be a list")
        return
    for i, p in enumerate(processes):
        if not isinstance(p, Mapping):
            problems.append(f"process [{i}] must be a mapping")
            continue
        if not isinstance(p.get("name"), str):
            problems.append(f"process [{i}] must carry a string 'name'")
        counters = p.get("counters")
        if counters is not None and not isinstance(counters, Mapping):
            problems.append(f"process [{i}] counters must be a mapping")
        timers = p.get("timers")
        if timers is not None and not isinstance(timers, Mapping):
            problems.append(f"process [{i}] timers must be a mapping")


def validate_report(payload: object) -> list[str]:
    """All schema problems with ``payload`` (empty list = valid report).

    Accepts every version in :data:`SUPPORTED_VERSIONS`: v2 reports
    must stamp ``meta.run`` and may carry ``processes``; v1 reports are
    validated by the original rules with both tolerated as absent.
    """
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return [f"report must be a mapping, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA_NAME:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA_NAME!r}"
        )
    version = payload.get("schema_version")
    if version not in SUPPORTED_VERSIONS:
        problems.append(
            f"schema_version is {version!r}, "
            f"expected one of {', '.join(map(str, SUPPORTED_VERSIONS))}"
        )
    counters = payload.get("counters")
    if not isinstance(counters, Mapping):
        problems.append("counters must be a mapping of name -> int")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"counter {name!r} must be a non-negative int")
    timers = payload.get("timers")
    if not isinstance(timers, Mapping):
        problems.append("timers must be a mapping of name -> histogram")
    else:
        for name, t in timers.items():
            if not isinstance(t, Mapping):
                problems.append(f"timer {name!r} must be a mapping")
                continue
            missing = [k for k in _TIMER_KEYS if k not in t]
            if missing:
                problems.append(f"timer {name!r} missing key(s): {', '.join(missing)}")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        problems.append("spans must be a list")
    else:
        for i, s in enumerate(spans):
            if not isinstance(s, Mapping):
                problems.append(f"span [{i}] must be a mapping")
                continue
            missing = [k for k in _SPAN_KEYS if k not in s]
            if missing:
                problems.append(f"span [{i}] missing key(s): {', '.join(missing)}")
                continue
            parent = s["parent"]
            if not isinstance(parent, int) or not (-1 <= parent < i):
                problems.append(
                    f"span [{i}] parent {parent!r} must be -1 or the index "
                    f"of an earlier span"
                )
    events = payload.get("events")
    if not isinstance(events, list):
        problems.append("events must be a list")
    else:
        for i, e in enumerate(events):
            if not isinstance(e, Mapping) or "name" not in e:
                problems.append(f"event [{i}] must be a mapping with a 'name'")
    meta = payload.get("meta", {})
    if not isinstance(meta, Mapping):
        problems.append("meta must be a mapping")
    elif isinstance(version, int) and version >= 2:
        _validate_run_block(meta, problems)
    if isinstance(version, int) and version >= 2:
        _validate_processes(payload, problems)
    return problems


def check_report(payload: object) -> None:
    """Raise :class:`TelemetryError` listing every schema problem."""
    problems = validate_report(payload)
    if problems:
        raise TelemetryError(
            "invalid telemetry report: " + "; ".join(problems)
        )
