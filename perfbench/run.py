"""The repo benchmark: end-to-end R on the user's CLI paths, split by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it needs ``src/repro`` and
nothing installed.  For each chosen workload (see ``workloads.py``) it

1. probes the host once: a NumPy triad for bandwidth B, and the L2 size;
2. steps the seeded initial state with the ``reference`` backend for a
   golden final-state digest (untimed, cached per workload, seed and
   steps under ``perfbench/out/golden``);
3. starts timed jobs until ``--seconds`` have passed: a closed loop,
   one job at a time, each a fresh interpreter walking the CLI
   handler's calls (``job.py``), each output checked bit for bit, for
   exact mass and momentum conservation and, when supervised, for the
   ``complete`` outcome;
4. runs the real ``python -m repro`` command once and compares it with
   the driver's result;
5. with ``--trace 1``, runs one traced job and derives the per-layer
   metrics from the telemetry report it writes
   (``perfbench/out/trace-<workload>-seed<N>.telemetry.json``, readable
   by ``repro telemetry summarize`` and ``repro telemetry trace``).

It prints each metric's median, quartiles and sample count, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  It exits 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from layers import PER_LAYER, layer_metrics, self_times
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit) of the end-to-end metrics, each reported per workload.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("run_updates_per_s", "updates/s"),
    ("peak_rss_mb", "MiB"),
)

#: Triad arrays: 32 MiB of float64 each, 8x the two cores' 4 MiB of L2.
#: The 300 MiB L3 is shared by every core and is not exceeded: the probe
#: reads B out of L3 and DRAM together, so it is the host's sustainable
#: streaming rate for working sets of this size, not a DRAM-only figure.
TRIAD_ELEMENTS = 4 * 2**20

#: A job that has not finished after this long counts as failed.
JOB_TIMEOUT_S = 150


class JobFailed(Exception):
    """A job exited non-zero or printed no result."""


@dataclass
class Harness:
    """Where jobs run.  Tests substitute in-process runners for both calls."""

    out: Path
    run_job: Callable[[dict], dict]
    run_cli: Callable[[list[str]], tuple[int, str]]


def _env(out: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(out / "tmp")
    return env


def subprocess_harness(out: Path) -> Harness:
    """Jobs and CLI calls as child processes of this driver, one at a time."""
    env = _env(out)

    def run_job(spec: dict) -> dict:
        argv = [sys.executable, str(ROOT / "perfbench" / "job.py")]
        spec = dict(spec, t_spawn=time.perf_counter())
        try:
            proc = subprocess.run(
                [*argv, json.dumps(spec)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise JobFailed(f"timed out after {JOB_TIMEOUT_S}s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise JobFailed(f"exit {proc.returncode}: {tail[0]}")
        return json.loads(lines[-1])

    def run_cli(args: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout + proc.stderr

    return Harness(out=out, run_job=run_job, run_cli=run_cli)


# -- host ---------------------------------------------------------------------------


def l2_bytes() -> int:
    """One core's L2 size from sysfs (the storage S of one stepping core)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if (index / "level").read_text().strip() == "2":
            size = (index / "size").read_text().strip()
            return int(size.rstrip("KMG")) * {"K": 2**10, "M": 2**20, "G": 2**30}[size[-1]]
    raise RuntimeError("no L2 cache listed in sysfs")


def probe_host() -> dict:
    """Triad bandwidth, cache sizes and provenance, measured once per invocation."""
    import numpy as np

    from repro.telemetry import run_metadata

    n = TRIAD_ELEMENTS
    a = np.empty(n)
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    seconds = []
    for _ in range(8):
        start = time.perf_counter()
        np.multiply(c, 3.0, out=a)  # a = b + 3c as NumPy runs it: two passes
        np.add(a, b, out=a)
        seconds.append(time.perf_counter() - start)
    moved = 5 * 8 * n  # read c, write a; read a and b, write a
    return {
        "triad_gbps": moved / statistics.median(seconds[1:]) / 1e9,
        "triad_array_mib": 8 * n / 2**20,
        "triad_bytes_per_iteration": moved,
        "l2_bytes": l2_bytes(),
        "numpy": np.__version__,
        "run": run_metadata("perfbench"),
    }


# -- checks -------------------------------------------------------------------------

#: Integer FHP velocities: x in half lattice units, y in units of sqrt(3)/2
#: (channels counter-clockwise from +x; channel 6 is the rest particle).
_VX2 = (2, 1, -1, -2, -1, 1, 0)
_VY = (0, 1, 1, 0, -1, -1, 0)


def conserved(counts: list[int]) -> tuple[int, int, int]:
    """Exact (mass, 2·px, 2·py/sqrt(3)) from per-channel particle counts."""
    return (
        sum(counts),
        sum(c * v for c, v in zip(counts, _VX2)),
        sum(c * v for c, v in zip(counts, _VY)),
    )


def check_run(w: Workload, result: dict, golden: dict | None) -> list[str]:
    """Everything wrong with one run's output (empty when it is correct)."""
    if golden is None:
        return ["no reference result to check against"]
    problems = []
    if w.path == "supervised" and result.get("outcome") != "complete":
        problems.append(f"supervisor outcome {result.get('outcome')!r}")
    if result.get("digest") != golden["digest"]:
        problems.append("final state differs from the reference backend")
    counts = result.get("counts_end")
    if counts is None or conserved(counts)[0] != conserved(golden["counts0"])[0]:
        problems.append("mass not conserved")
    elif conserved(counts)[1:] != conserved(golden["counts0"])[1:]:
        problems.append("momentum not conserved")
    if w.path == "simulate" and result.get("mass0") != result.get("mass_end"):
        problems.append("printed mass changed over the run")
    return problems


def end_to_end(w: Workload, r: dict) -> dict[str, float]:
    """One timed run's end-to-end metrics (times from the driver's spawn)."""
    rss_kb = r["rss_kb"] + r.get("worker_processes", 0) * r["children_rss_kb"]
    return {
        "setup_s": r["t_first"] - r["t_spawn"],
        "wall_s": r["t_end"] - r["t_spawn"],
        "run_updates_per_s": w.site_updates / (r["t_run_end"] - r["t_first"]),
        "peak_rss_mb": rss_kb / 1024,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- one workload -------------------------------------------------------------------


def _spec(w: Workload, seed: int, role: str, h: Harness) -> dict:
    return {
        "role": role,
        "workload": asdict(w),
        "seed": seed,
        "run_id": uuid.uuid4().hex[:12],
        "scratch_dir": str(h.out / "scratch" / uuid.uuid4().hex[:12]),
    }


def _attempt(h: Harness, spec: dict) -> tuple[dict | None, str]:
    try:
        return h.run_job(spec), ""
    except JobFailed as exc:
        return None, str(exc)
    finally:
        shutil.rmtree(spec["scratch_dir"], ignore_errors=True)


def golden_for(h: Harness, w: Workload, seed: int) -> dict | None:
    """The reference backend's result for (workload, seed, steps), cached."""
    path = h.out / "golden" / f"{w.name}-{w.rows}x{w.cols}-g{w.steps}-seed{seed}.json"
    if path.is_file():
        return json.loads(path.read_text())
    result, error = _attempt(h, _spec(w, seed, "golden", h))
    if result is None:
        print(f"golden run failed: {error}", file=sys.stderr)
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result))
    return result


def cli_check(h: Harness, w: Workload, seed: int, end_mass: int) -> list[str]:
    """Run the real CLI on the workload's arguments; it must agree with the driver."""
    scratch = h.out / "scratch" / f"cli-{uuid.uuid4().hex[:12]}"
    try:
        code, text = h.run_cli(w.cli_args(seed, str(scratch)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if w.path == "simulate":
        match = re.search(r"mass \(t=0 -> end\)\s+(\d+) -> (\d+)", text)
        if code != 0 or match is None:
            return [f"repro simulate exited {code} without a mass line"]
        if int(match.group(2)) != end_mass:
            return [f"repro simulate printed end mass {match.group(2)}, the driver had {end_mass}"]
        return []
    if code != 0:
        return [f"repro run --supervised --verify exited {code}"]
    return []


@dataclass
class WorkloadResult:
    workload: Workload
    samples: list[dict[str, float]]
    failures: list[str]
    problems: list[str]
    per_layer: dict[str, float] | None = None
    self_times: dict[str, tuple[float, float]] | None = None
    report_path: Path | None = None

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failures)

    def median(self, name: str) -> float:
        return statistics.median(s[name] for s in self.samples)


def run_workload(
    h: Harness, w: Workload, seed: int, seconds: float, trace: bool, host: dict
) -> WorkloadResult:
    golden = golden_for(h, w, seed)
    result = WorkloadResult(w, samples=[], failures=[], problems=[])
    end_mass = sum(golden["counts_end"]) if golden else -1
    start = time.perf_counter()
    while True:
        run, error = _attempt(h, _spec(w, seed, "timed", h))
        problems = check_run(w, run, golden) if run is not None else [error]
        if problems:
            result.failures.append("; ".join(problems))
        else:
            result.samples.append(end_to_end(w, run))
            end_mass = run.get("mass_end", end_mass)
        if time.perf_counter() - start >= seconds:
            break
    result.problems += cli_check(h, w, seed, end_mass)
    if trace:
        _traced(h, w, seed, golden, host, result)
    return result


def _traced(
    h: Harness, w: Workload, seed: int, golden: dict | None, host: dict, result: WorkloadResult
) -> None:
    from repro.telemetry import TelemetryReport

    if not result.samples:
        result.problems.append("no correct untraced run to compare the traced run with")
        return
    spec = _spec(w, seed, "traced", h)
    spec["report_path"] = str(h.out / f"trace-{w.name}-seed{seed}.telemetry.json")
    run, error = _attempt(h, spec)
    problems = check_run(w, run, golden) if run is not None else [error]
    if problems:
        result.problems += [f"traced run: {p}" for p in problems]
        return
    path = Path(spec["report_path"])
    report = TelemetryReport.load(path)
    result.per_layer = layer_metrics(
        w, report, host, result.median("wall_s"), result.median("run_updates_per_s")
    )
    result.self_times = self_times(report.spans)
    report.meta.update(
        per_layer={name: result.per_layer[name] for name, _, _ in PER_LAYER},
        self_seconds={name: own for name, (_, own) in result.self_times.items()},
        host={k: v for k, v in host.items() if k != "run"},
        untraced={name: result.median(name) for name, _ in END_TO_END},
    )
    report.write_json(path)
    result.report_path = path


# -- output -------------------------------------------------------------------------


def print_workload(r: WorkloadResult, seed: int) -> None:
    from repro.util.tables import Table

    w = r.workload
    table = Table(
        f"{w.name}: {w.path} {w.model} {w.rows}x{w.cols}, {w.steps} generations, seed {seed}",
        ["metric", "unit", "median", "q1", "q3", "n"],
    )
    for name, unit in END_TO_END:
        values = [s[name] for s in r.samples]
        if values:
            q1, med, q3 = quartiles(values)
            table.add_row(name, unit, f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}", len(values))
    table.add_row(
        "failed_fraction", "ratio", f"{len(r.failures) / r.attempted:.6g}", "", "", r.attempted
    )
    table.print()
    for failure in r.failures:
        print(f"  failed run: {failure}")
    for problem in r.problems:
        print(f"  check failed: {problem}")
    if r.per_layer is not None:
        layers = Table(f"{w.name}: per layer (one traced run)", ["metric", "unit", "value"])
        for name, unit, _ in PER_LAYER:
            layers.add_row(name, unit, f"{r.per_layer[name]:.6g}")
        layers.print()
        spans = Table(f"{w.name}: user path spans", ["span", "total s", "self s"])
        for name, (total, own) in r.self_times.items():
            spans.add_row(name, f"{total:.6f}", f"{own:.6f}")
        spans.print()
        print(f"  telemetry report: {r.report_path}")


def summary(results: list[WorkloadResult], trace: bool) -> dict:
    """The last-line JSON object for one workload (or, prefixed, for several)."""
    metrics: dict[str, dict[str, float | str]] = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r.workload.name}."
        if trace:
            for name, unit, _ in PER_LAYER:
                if r.per_layer is not None:
                    metrics[prefix + name] = {"value": r.per_layer[name], "unit": unit}
        else:
            for name, unit in END_TO_END:
                if r.samples:
                    metrics[prefix + name] = {"value": r.median(name), "unit": unit}
    expected = len(results) * (len(PER_LAYER) if trace else len(END_TO_END))
    correct = all(not r.failures and not r.problems for r in results) and len(metrics) == expected
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(len(r.failures) for r in results),
        "metrics": metrics,
    }


def run(h: Harness, names: list[str], seed: int, seconds: float, trace: bool, host: dict) -> dict:
    """Run, print and summarize the named workloads."""
    provenance = dict(host["run"], numpy=host["numpy"], l2_bytes=host["l2_bytes"], seed=seed)
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in provenance.items()))
    print(
        f"host: triad B = {host['triad_gbps']:.3f} GB/s over {host['triad_array_mib']:.0f} MiB "
        f"arrays (inside the shared 300 MiB L3); L2 = {host['l2_bytes'] // 2**10} KiB per core"
    )
    results = []
    for name in names:
        r = run_workload(h, WORKLOADS[name], seed, seconds, trace, host)
        print_workload(r, seed)
        results.append(r)
        record = {
            "provenance": provenance,
            "host": {k: v for k, v in host.items() if k != "run"},
            "samples": r.samples,
            "failures": r.failures,
            "problems": r.problems,
            "per_layer": r.per_layer,
        }
        (h.out / f"results-{name}-seed{seed}.json").write_text(json.dumps(record, indent=2))
    return summary(results, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = ROOT / "perfbench" / "out"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = run(subprocess_harness(out), names, args.seed, args.seconds, bool(args.trace), probe_host())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
