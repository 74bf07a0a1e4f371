"""Supervision overhead: supervised sharded run vs direct evolution.

Not a paper experiment — housekeeping for the reproduction itself: the
supervised runtime (:mod:`repro.runtime`) promises fault tolerance for
roughly the price of the halo exchange, and this benchmark measures
that price.  Both arms advance the same lattice the same number of
generations on the same backend; the supervised arm adds worker
processes, the lock-step boundary barrier, and durable checkpoints.
R is site updates per second, the paper's throughput quantity.

Each arm is split into setup and steady state.  The direct arm's setup
is ``LatticeGasAutomaton(...)`` construction (model and stepper build)
and its steady state is ``auto.run``.  The supervised arm's steady
state is the workers' ``worker.run`` spans, from the first start to the
last end, taken from the run's merged telemetry; its setup is the rest
of ``supervised_run`` (process spawn, local model builds, the initial
checkpoint, collect and shutdown).  Setup dominates the totals at
benchmark sizes, so the gated number is the *steady-state* tax.

Run directly::

    python benchmarks/bench_supervisor.py --backend bitplane --assert-overhead 15

which measures at 1 and at 2 workers (``--workers 1,2``) and exits 1
if the best steady-state tax at any worker count exceeds 15%.  Only at
1 worker do the arms do the same compute on one CPU, so that tax is
the supervision price itself (halo exchange, barrier IPC, per-shard
row conversion).  At 2 workers a second CPU can step half the lattice
in parallel, so that tax mixes the supervision price with a parallel
speed-up and can be negative.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.lgca.automaton import LatticeGasAutomaton
from repro.runtime import ModelSpec, SupervisorConfig, supervised_run
from repro.telemetry import PERF_COUNTER, InMemoryRecorder, TelemetryReport
from repro.util.tables import Table, format_rate

#: Schema tag of the --json report; bump on layout changes.
SCHEMA = "repro/bench-supervisor/v2"


def _worker_run_seconds(report) -> float:
    """Steady state of a supervised run: first ``worker.run`` start to last end."""
    spans = [s for s in report.telemetry.spans if s["name"] == "worker.run"]
    return max(s["end"] for s in spans) - min(s["start"] for s in spans)


def run_pair(
    rows: int,
    cols: int,
    generations: int,
    workers: int,
    backend: str,
    seed: int,
    recorder: InMemoryRecorder | None = None,
) -> dict[str, object]:
    """Time one direct and one supervised run of the same evolution.

    Both arms are timed through bench-owned telemetry timers
    (``bench.supervisor.direct_seconds`` /
    ``bench.supervisor.supervised_seconds``); the supervised arm also
    feeds its lifecycle events and worker spans into the same recorder.
    """
    spec = ModelSpec(kind="fhp6", rows=rows, cols=cols, boundary="periodic")
    updates = rows * cols * generations
    rec = recorder if recorder is not None else InMemoryRecorder(clock=PERF_COUNTER)
    clk = rec.clock

    # Both arms start from the same prebuilt state.
    init = spec.initial_state(0.3, seed)
    t0 = clk()
    auto = LatticeGasAutomaton(spec.build(), init.copy(), backend=backend)
    t1 = clk()
    auto.run(generations)
    t2 = clk()
    direct_s = t2 - t0
    direct_steady_s = t2 - t1
    rec.timer("bench.supervisor.direct_seconds").record(direct_s)
    golden = auto.state.copy()

    config = SupervisorConfig(
        spec=spec,
        generations=generations,
        num_workers=workers,
        backend=backend,
        seed=seed,
        initial_state=init,
        # Checkpoint once (generation 0, before the steady state); the
        # tax measured here is the barrier + halo IPC, not checkpoint I/O.
        checkpoint_interval=generations + 1,
        watchdog_timeout=120.0,
    )
    t0 = clk()
    state, report = supervised_run(config, recorder=rec)
    supervised_s = clk() - t0
    rec.timer("bench.supervisor.supervised_seconds").record(supervised_s)
    supervised_steady_s = _worker_run_seconds(report)

    return {
        "rows": rows,
        "cols": cols,
        "generations": generations,
        "workers": workers,
        "backend": backend,
        "direct_seconds": direct_s,
        "direct_setup_seconds": direct_s - direct_steady_s,
        "direct_steady_seconds": direct_steady_s,
        "supervised_seconds": supervised_s,
        "supervised_setup_seconds": supervised_s - supervised_steady_s,
        "supervised_steady_seconds": supervised_steady_s,
        "direct_rate": updates / direct_s,
        "supervised_rate": updates / supervised_s,
        "direct_steady_rate": updates / direct_steady_s,
        "supervised_steady_rate": updates / supervised_steady_s,
        "overhead_percent": (supervised_s - direct_s) / direct_s * 100.0,
        "steady_overhead_percent": (
            (supervised_steady_s - direct_steady_s) / direct_steady_s * 100.0
        ),
        "outcome": report.outcome,
        "bit_identical": bool(
            state is not None and np.array_equal(state, golden)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1024)
    parser.add_argument("--cols", type=int, default=1024)
    parser.add_argument("--generations", type=int, default=32)
    parser.add_argument(
        "--workers",
        default="1,2",
        help="comma-separated worker counts to measure (default: 1,2)",
    )
    parser.add_argument(
        "--backend", choices=("reference", "bitplane"), default="reference"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="measured pairs per worker count; the best (lowest steady-state "
        "tax) pair is reported and asserted on",
    )
    parser.add_argument(
        "--assert-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if the best-of-repeats steady-state tax at any worker "
        "count exceeds PCT percent",
    )
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="write the bench-owned telemetry report (arm timers plus "
        "supervisor lifecycle events) here; defaults to the --json path "
        "with a .telemetry.json suffix",
    )
    args = parser.parse_args(argv)
    worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]

    recorder = InMemoryRecorder(clock=PERF_COUNTER)
    results = []
    best: dict[int, dict[str, object]] = {}
    for workers in worker_counts:
        # Warm up interpreter, kernels, and the process machinery off the clock.
        run_pair(64, 64, 4, workers, args.backend, args.seed)
        pairs = [
            run_pair(
                args.rows, args.cols, args.generations, workers,
                args.backend, args.seed, recorder=recorder,
            )
            for _ in range(args.repeats)
        ]
        results.extend(pairs)
        best[workers] = min(pairs, key=lambda r: r["steady_overhead_percent"])

    table = Table(
        f"Supervision overhead: {args.rows}x{args.cols} fhp6, "
        f"G={args.generations}, {args.backend}, best of {args.repeats}",
        ["workers", "arm", "setup", "steady", "steady R", "total R", "steady tax"],
    )
    for workers, row in best.items():
        for arm in ("direct", "supervised"):
            table.add_row(
                str(workers),
                arm,
                f"{row[f'{arm}_setup_seconds']:.3f}s",
                f"{row[f'{arm}_steady_seconds']:.3f}s",
                format_rate(row[f"{arm}_steady_rate"]),
                format_rate(row[f"{arm}_rate"]),
                f"{row['steady_overhead_percent']:+.1f}%" if arm == "supervised" else "",
            )
    table.print()
    broken = [w for w, row in best.items() if not row["bit_identical"]]
    for workers, row in best.items():
        print(f"workers={workers}: outcome {row['outcome']}, bit-identical "
              f"{'yes' if row['bit_identical'] else 'NO (BUG)'}")

    if args.json:
        payload = {
            "schema": SCHEMA,
            "config": {
                "rows": args.rows,
                "cols": args.cols,
                "generations": args.generations,
                "workers": worker_counts,
                "backend": args.backend,
                "repeats": args.repeats,
            },
            "results": results,
            "best_steady_overhead_percent": {
                str(w): row["steady_overhead_percent"] for w, row in best.items()
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # Telemetry rides along with every JSON report: same stem, sibling
    # .telemetry.json, so the differ always has a perf companion file.
    telemetry_path = args.telemetry
    if telemetry_path is None and args.json:
        telemetry_path = str(Path(args.json).with_suffix("")) + ".telemetry.json"
    if telemetry_path:
        TelemetryReport.from_recorder(
            recorder,
            meta={
                "command": "bench_supervisor",
                "rows": args.rows,
                "cols": args.cols,
                "generations": args.generations,
                "workers": worker_counts,
                "backend": args.backend,
                "repeats": args.repeats,
            },
        ).write_json(telemetry_path)
        print(f"wrote {telemetry_path}")

    if broken:
        print(f"FAIL: supervised output is not bit-identical at workers={broken}",
              file=sys.stderr)
        return 1
    if args.assert_overhead is not None:
        over = {
            w: row["steady_overhead_percent"]
            for w, row in best.items()
            if row["steady_overhead_percent"] > args.assert_overhead
        }
        if over:
            print(
                "FAIL: steady-state supervision tax "
                + ", ".join(f"{tax:.1f}% at workers={w}" for w, tax in over.items())
                + f" exceeds the {args.assert_overhead:g}% budget",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
