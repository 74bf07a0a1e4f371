"""The benchmark's own tests: every workload on a tiny lattice, in-process.

    PYTHONPATH=src python -m pytest perfbench -q

Jobs and CLI calls run in this process instead of fresh interpreters,
so the pass over all three workloads takes about a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import job
import run
from layers import PER_LAYER
from workloads import WORKLOADS, tiny

ROOT = Path(__file__).resolve().parent.parent


def in_process_harness(out: Path) -> run.Harness:
    def run_job(spec: dict) -> dict:
        try:
            return job.run_job(dict(spec, t_spawn=time.perf_counter()))
        except Exception as exc:
            raise run.JobFailed(f"{type(exc).__name__}: {exc}") from exc

    def run_cli(args: list[str]) -> tuple[int, str]:
        from repro.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(args)
        return code, buf.getvalue()

    return run.Harness(out=out, run_job=run_job, run_cli=run_cli)


@pytest.fixture(scope="module")
def host() -> dict:
    return run.probe_host()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, host, tmp_path):
    w = tiny(WORKLOADS[name])
    result = run.run_workload(in_process_harness(tmp_path), w, 3, 0.0, True, host)
    assert result.failures == [] and result.problems == []

    untraced = run.summary([result], trace=False)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {k: m["unit"] for k, m in untraced["metrics"].items()} == dict(run.END_TO_END)
    traced = run.summary([result], trace=True)
    assert traced["correct"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == {
        n: unit for n, unit, _ in PER_LAYER
    }
    assert all(isinstance(m["value"], (int, float)) for m in traced["metrics"].values())

    report = json.loads(result.report_path.read_text())
    assert report["schema_version"] == 2
    assert {s["run"] for s in report["spans"]} == {report["meta"]["run_id"]}
    assert report["meta"]["per_layer"] == {n: result.per_layer[n] for n, _, _ in PER_LAYER}

    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["telemetry", "summarize", str(result.report_path)]) == 0
        assert main(["telemetry", "trace", str(result.report_path), "-o", str(tmp_path / "t.json")]) == 0


def test_a_corrupted_golden_counts_every_run_as_failed(host, tmp_path):
    w = tiny(WORKLOADS["simulate-fhp6-1024"])
    h = in_process_harness(tmp_path)
    golden = run.golden_for(h, w, 5)
    path = next((tmp_path / "golden").iterdir())
    path.write_text(json.dumps(dict(golden, digest="0" * 64)))

    result = run.run_workload(h, w, 5, 0.0, False, host)
    out = run.summary([result], trace=False)
    assert out["failed"] == out["attempted"] >= 1
    assert not out["correct"]


def test_benchmark_json_matches_what_the_driver_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_integer_velocities_match_the_model():
    import numpy as np

    from repro.lgca.fhp import FHP7_VELOCITIES

    scaled = np.column_stack([np.array(run._VX2) / 2, np.array(run._VY) * np.sqrt(3) / 2])
    assert np.allclose(scaled, FHP7_VELOCITIES)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-fhp6-1024", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
