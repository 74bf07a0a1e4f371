"""Per-layer metrics, derived from a traced job's telemetry report.

Every number here is read back from the schema-v2 report the traced job
wrote (spans, timers, counters), so the report alone answers "where did
the wall time go".  Layers a workload's path never enters read 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

__all__ = ["PER_LAYER", "layer_metrics", "self_times"]

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("import.s", "s", "lower"),
    ("model.build_s", "s", "lower"),
    ("model.build_mb", "MiB", "lower"),
    ("flows.init_s", "s", "lower"),
    ("backends.make_stepper_s", "s", "lower"),
    ("automaton.run_s", "s", "lower"),
    ("bitplane.pack_s", "s", "lower"),
    ("bitplane.collide_s", "s", "lower"),
    ("bitplane.propagate_s", "s", "lower"),
    ("bitplane.unpack_s", "s", "lower"),
    ("bitplane.generations", "count", "higher"),
    ("bitplane.step_ms.p50", "ms", "lower"),
    ("bitplane.step_ms.p90", "ms", "lower"),
    ("bitplane.bytes_per_gen", "bytes", "lower"),
    ("bitplane.achieved_gbps", "GB/s", "higher"),
    ("bitplane.bw_fraction", "ratio", "higher"),
    ("observables.mass_s", "s", "lower"),
    ("observables.momentum_s", "s", "lower"),
    ("sharding.step_s", "s", "lower"),
    ("sharding.halo_s", "s", "lower"),
    ("sharding.halo_bytes", "bytes", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.saves", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("supervisor.run_s", "s", "lower"),
    ("supervisor.wait_s", "s", "lower"),
    ("supervisor.speedup_vs_direct", "ratio", "higher"),
    ("throughput.realized_fraction", "ratio", "higher"),
    ("bounds.theorem4_fraction", "ratio", "higher"),
    ("host.triad_gbps", "GB/s", "higher"),
    ("trace.overhead_fraction", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def _subtrees(spans: list[dict]) -> dict[str, list[dict]]:
    """Root name -> every span beneath that root (root excluded)."""
    root_of: dict[int, str] = {}
    out: dict[str, list[dict]] = defaultdict(list)
    for s in spans:  # parents precede children
        parent = s["parent"]
        if parent == -1:
            root_of[s["index"]] = s["name"]
            continue
        root = root_of[parent]
        root_of[s["index"]] = root
        out[root].append(s)
    return out


def _total(spans: list[dict], name: str) -> float:
    return sum(float(s["seconds"]) for s in spans if s["name"] == name)


def _root(spans: list[dict], name: str) -> dict | None:
    return next((s for s in spans if s["parent"] == -1 and s["name"] == name), None)


def self_times(spans: list[dict], root: str = "job") -> dict[str, tuple[float, float]]:
    """Span name -> (total, self) seconds within one root's tree.

    Self time is a span's duration minus its children's.  The root's own
    self time is the part of its wall time no layer span covers.
    """
    start = _root(spans, root)
    if start is None:
        return {}
    members = {start["index"]}
    child_sum: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] in members:
            members.add(s["index"])
            child_sum[s["parent"]] += float(s["seconds"])
    out: dict[str, tuple[float, float]] = {}
    for s in spans:
        if s["index"] in members:
            total, own = out.get(s["name"], (0.0, 0.0))
            seconds = float(s["seconds"])
            out[s["name"]] = (total + seconds, own + seconds - child_sum[s["index"]])
    return out


def layer_metrics(
    workload,
    report,
    host: dict,
    untraced_wall_s: float,
    run_updates_per_s: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced job.

    ``untraced_wall_s`` and ``run_updates_per_s`` are the untraced
    medians of the same invocation: the base of the tracing overhead and
    the R the paper-model ratios explain.
    """
    from repro.core.bounds import update_rate_upper_bound
    from repro.core.throughput import realized_update_rate

    spans = report.spans
    trees = _subtrees(spans)
    job = trees["job"]
    # The direct-run layers: the user path itself, or on the supervised
    # workload the direct run of the same lattice (the speed-up base).
    direct = job if any(s["name"] == "automaton.run" for s in job) else trees["direct.baseline"]
    kernel = trees["kernel.replay"]
    shards = trees["shard.replay"]
    counters = report.counters
    replays = max(1, counters.get("bitplane.replays", 1))

    steps_ms = [1e3 * float(s["seconds"]) for s in kernel if s["name"] == "bitplane.step"]
    kernel_s = _total(kernel, "bitplane.collide") + _total(kernel, "bitplane.propagate")
    bytes_per_gen = counters.get("bitplane.bytes_per_gen", 0)
    achieved_gbps = bytes_per_gen * len(steps_ms) / kernel_s / 1e9 if kernel_s else 0.0

    supervisor_run_s = _total(job, "supervisor.run")
    busiest = max(
        (float(t["total_seconds"]) for name, t in report.timers.items() if name.startswith("shard.")),
        default=0.0,
    )
    direct_run_s = _total(direct, "automaton.run")

    # Paper model: bytes are the host's measured triad rate; a site value
    # is one bit per channel; S is one core's L2 in site values (d = 2).
    channels = workload.num_channels
    host_bytes_per_s = host["triad_gbps"] * 1e9
    kernel_rate = workload.rows * workload.cols * len(steps_ms) / kernel_s if kernel_s else 0.0
    realized = (
        realized_update_rate(kernel_rate, host_bytes_per_s, bits_per_site=channels)
        if kernel_rate
        else 0.0
    )
    theorem4 = update_rate_upper_bound(
        host_bytes_per_s * 8 / channels, host["l2_bytes"] * 8 / channels, 2
    )
    job_root = _root(spans, "job")
    return {
        "import.s": _total(job, "import"),
        "model.build_s": _total(job, "model.build"),
        "model.build_mb": counters.get("model.build_peak_rss_bytes", 0) / 2**20,
        "flows.init_s": _total(job, "flows.init"),
        "backends.make_stepper_s": _total(direct, "backends.make_stepper"),
        "automaton.run_s": direct_run_s,
        "bitplane.pack_s": _total(kernel, "bitplane.pack") / replays,
        "bitplane.collide_s": _total(kernel, "bitplane.collide") / replays,
        "bitplane.propagate_s": _total(kernel, "bitplane.propagate") / replays,
        "bitplane.unpack_s": _total(kernel, "bitplane.unpack") / replays,
        "bitplane.generations": len(steps_ms),
        "bitplane.step_ms.p50": statistics.median(steps_ms) if steps_ms else 0.0,
        "bitplane.step_ms.p90": (
            statistics.quantiles(steps_ms, n=10)[8] if len(steps_ms) >= 2 else 0.0
        ),
        "bitplane.bytes_per_gen": bytes_per_gen,
        "bitplane.achieved_gbps": achieved_gbps,
        "bitplane.bw_fraction": achieved_gbps / host["triad_gbps"],
        "observables.mass_s": _total(direct, "observables.mass"),
        "observables.momentum_s": _total(direct, "observables.momentum"),
        "sharding.step_s": _total(shards, "sharding.step"),
        "sharding.halo_s": _total(shards, "sharding.boundary_rows") + _total(shards, "sharding.halo"),
        "sharding.halo_bytes": counters.get("sharding.halo_bytes", 0),
        "checkpoint.save_s": _total(shards, "checkpoint.save"),
        "checkpoint.saves": sum(1 for s in shards if s["name"] == "checkpoint.save"),
        "checkpoint.bytes": counters.get("checkpoint.bytes", 0),
        "supervisor.run_s": supervisor_run_s,
        "supervisor.wait_s": supervisor_run_s - busiest if supervisor_run_s else 0.0,
        "supervisor.speedup_vs_direct": (
            direct_run_s / supervisor_run_s if supervisor_run_s else 0.0
        ),
        "throughput.realized_fraction": run_updates_per_s / realized if realized else 0.0,
        "bounds.theorem4_fraction": run_updates_per_s / theorem4,
        "host.triad_gbps": host["triad_gbps"],
        "trace.overhead_fraction": float(job_root["seconds"]) / untraced_wall_s - 1.0,
        "trace.unattributed_s": self_times(spans)["job"][1],
    }
