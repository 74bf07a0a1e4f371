"""Perf-regression differ: compare telemetry and bench reports in CI.

``repro telemetry diff BASE.json HEAD.json [--fail-on-regression PCT]``
turns committed BENCH/telemetry JSON from write-only artifacts into a
gated trajectory: extract comparable scalar metrics from both payloads
(schema-dispatched), compute relative change, and exit nonzero when any
metric regresses past the threshold.

Supported schemas (BASE and HEAD must match):

* ``repro-telemetry`` (v1 and v2) — timer ``mean_seconds`` (lower is
  better); counters are compared informationally but never gate, since
  several (heartbeats, restarts) are timing-dependent by design;
* ``repro/bench-kernels/*`` — per-result ``updates_per_second`` (higher
  is better), keyed by model/size/backend;
* ``repro/bench-supervisor/*`` — direct/supervised update rates (higher
  is better).

``--min-seconds`` filters sub-threshold timers out of the gate (a 2 µs
mean doubling is scheduler noise, not a regression); it defaults to 0
so explicit comparisons see everything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.telemetry.report import TelemetryError

__all__ = [
    "Metric",
    "MetricDelta",
    "extract_metrics",
    "diff_payloads",
    "format_deltas",
    "load_payload",
]


@dataclass(frozen=True)
class Metric:
    """One comparable scalar: value plus polarity and gating eligibility."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    gates: bool = True


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across BASE and HEAD."""

    name: str
    base: float
    head: float
    unit: str
    higher_is_better: bool
    gates: bool

    @property
    def change_percent(self) -> float:
        """Relative change HEAD vs BASE, signed so positive = worse.

        For lower-is-better metrics (timers) this is the slowdown; for
        higher-is-better metrics (update rates) the throughput loss.
        """
        if self.base == 0.0:
            return 0.0
        raw = (self.head - self.base) / self.base * 100.0
        return -raw if self.higher_is_better else raw

    def regression(self, threshold_percent: float) -> bool:
        """Whether this metric regressed past the threshold (and gates)."""
        return self.gates and self.change_percent > threshold_percent


def _telemetry_metrics(
    payload: Mapping[str, object], min_seconds: float
) -> dict[str, Metric]:
    """Timer means (gating) + counters (informational) from a report."""
    metrics: dict[str, Metric] = {}
    timers = payload.get("timers")
    if isinstance(timers, Mapping):
        for name, t in timers.items():
            if not isinstance(t, Mapping) or not int(t.get("count", 0)):
                continue
            mean = float(t["mean_seconds"])
            metrics[f"timer:{name}"] = Metric(
                name=f"timer:{name}",
                value=mean,
                unit="s/op",
                higher_is_better=False,
                gates=mean >= min_seconds,
            )
    counters = payload.get("counters")
    if isinstance(counters, Mapping):
        for name, value in counters.items():
            if isinstance(value, int) and not isinstance(value, bool):
                metrics[f"counter:{name}"] = Metric(
                    name=f"counter:{name}",
                    value=float(value),
                    unit="count",
                    higher_is_better=True,
                    gates=False,
                )
    return metrics


def _bench_kernels_metrics(payload: Mapping[str, object]) -> dict[str, Metric]:
    """Per-configuration update rates from a BENCH_kernels payload."""
    metrics: dict[str, Metric] = {}
    for row in payload.get("results", []):  # type: ignore[union-attr]
        if not isinstance(row, Mapping):
            continue
        key = (
            f"{row.get('model')}.{row.get('rows')}x{row.get('cols')}"
            f".{row.get('backend')}"
        )
        rate = row.get("updates_per_second")
        if isinstance(rate, (int, float)):
            name = f"rate:{key}"
            metrics[name] = Metric(
                name=name,
                value=float(rate),
                unit="site-updates/s",
                higher_is_better=True,
            )
    return metrics


def _bench_supervisor_metrics(payload: Mapping[str, object]) -> dict[str, Metric]:
    """Direct/supervised update rates from a BENCH_supervisor payload."""
    metrics: dict[str, Metric] = {}
    for row in payload.get("results", []):  # type: ignore[union-attr]
        if not isinstance(row, Mapping):
            continue
        label = (
            f"{row.get('rows')}x{row.get('cols')}.{row.get('backend')}"
            f".w{row.get('workers')}"
        )
        for arm in ("direct", "supervised"):
            rate = row.get(f"{arm}_rate")
            if isinstance(rate, (int, float)):
                name = f"rate:{label}.{arm}"
                existing = metrics.get(name)
                # repeats share a label: keep the best (bench semantics)
                if existing is None or float(rate) > existing.value:
                    metrics[name] = Metric(
                        name=name,
                        value=float(rate),
                        unit="site-updates/s",
                        higher_is_better=True,
                    )
    return metrics


def extract_metrics(
    payload: object, min_seconds: float = 0.0
) -> tuple[str, dict[str, Metric]]:
    """Schema-dispatch a payload into ``(schema_name, metrics)``.

    Raises
    ------
    TelemetryError
        When the payload carries no recognized schema.
    """
    if not isinstance(payload, Mapping):
        raise TelemetryError(
            f"diff input must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if not isinstance(schema, str):
        raise TelemetryError("diff input carries no 'schema' field")
    if schema == "repro-telemetry":
        return schema, _telemetry_metrics(payload, min_seconds)
    if schema.startswith("repro/bench-kernels/"):
        return schema, _bench_kernels_metrics(payload)
    if schema.startswith("repro/bench-supervisor/"):
        return schema, _bench_supervisor_metrics(payload)
    raise TelemetryError(f"diff does not understand schema {schema!r}")


def diff_payloads(
    base: object, head: object, min_seconds: float = 0.0
) -> list[MetricDelta]:
    """Compare two payloads of the same schema family, metric by metric.

    Only metrics present on both sides yield deltas — appearing and
    disappearing metrics are a schema/coverage change, not a perf
    signal, and are left to the human reading the formatted output.
    """
    base_schema, base_metrics = extract_metrics(base, min_seconds)
    head_schema, head_metrics = extract_metrics(head, min_seconds)
    base_family = base_schema.rsplit("/", 1)[0]
    head_family = head_schema.rsplit("/", 1)[0]
    if base_family != head_family:
        raise TelemetryError(
            f"cannot diff across schemas: base is {base_schema!r}, "
            f"head is {head_schema!r}"
        )
    deltas: list[MetricDelta] = []
    for name in sorted(base_metrics):
        if name not in head_metrics:
            continue
        b, h = base_metrics[name], head_metrics[name]
        deltas.append(
            MetricDelta(
                name=name,
                base=b.value,
                head=h.value,
                unit=b.unit,
                higher_is_better=b.higher_is_better,
                gates=b.gates and h.gates,
            )
        )
    return deltas


def format_deltas(
    deltas: list[MetricDelta],
    threshold_percent: float,
    base_only: list[str] | None = None,
    head_only: list[str] | None = None,
) -> list[str]:
    """Render a diff as aligned text lines, regressions flagged."""
    lines: list[str] = []
    regressions = [d for d in deltas if d.regression(threshold_percent)]
    width = max((len(d.name) for d in deltas), default=0)
    for d in deltas:
        flag = " REGRESSION" if d.regression(threshold_percent) else ""
        note = "" if d.gates else " (not gated)"
        lines.append(
            f"  {d.name:<{width}}  {d.base:.6g} -> {d.head:.6g} {d.unit} "
            f"({d.change_percent:+.1f}% {'worse' if d.change_percent > 0 else 'better'})"
            f"{flag}{note}"
        )
    for name in base_only or []:
        lines.append(f"  {name}: only in BASE")
    for name in head_only or []:
        lines.append(f"  {name}: only in HEAD")
    lines.append(
        f"{len(deltas)} metric(s) compared, {len(regressions)} regression(s) "
        f"past {threshold_percent:g}%"
    )
    return lines


def load_payload(path: str | Path) -> object:
    """Read one JSON payload for diffing (raises :class:`TelemetryError`)."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot read {path}: {exc}") from exc
