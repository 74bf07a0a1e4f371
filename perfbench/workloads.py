"""The benchmark's workloads: three user paths, each chosen for a layer.

All three are periodic FHP gases at per-channel density 0.3 on the
``bitplane`` backend.  ``path`` names the CLI handler a workload walks:

``simulate``
    ``repro simulate`` with no engine: a direct
    :class:`~repro.lgca.automaton.LatticeGasAutomaton` run plus the
    float observables the command prints.
``supervised``
    ``repro run --supervised``: row shards in worker processes under
    :func:`~repro.runtime.supervisor.supervised_run`, with periodic
    checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["Workload", "WORKLOADS", "tiny"]

_CHANNELS = {"fhp6": 6, "fhp7": 7}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI path at a fixed lattice and length."""

    name: str
    why: str
    path: str
    model: str
    rows: int
    cols: int
    steps: int
    density: float = 0.3
    backend: str = "bitplane"
    workers: int = 0
    checkpoint_interval: int = 8

    @property
    def num_channels(self) -> int:
        return _CHANNELS[self.model]

    @property
    def site_updates(self) -> int:
        """Work of one run: the paper's unit for R."""
        return self.rows * self.cols * self.steps

    def cli_args(self, seed: int, checkpoint_dir: str) -> list[str]:
        """``python -m repro`` arguments that run this workload as a user would."""
        common = [
            "--model", self.model,
            "--rows", str(self.rows),
            "--cols", str(self.cols),
            "--density", repr(self.density),
            "--seed", str(seed),
            "--backend", self.backend,
        ]
        if self.path == "simulate":
            return ["simulate", *common, "--steps", str(self.steps)]
        return [
            "run", "--supervised", "--verify", *common,
            "--generations", str(self.steps),
            "--workers", str(self.workers),
            "--checkpoint-interval", str(self.checkpoint_interval),
            "--checkpoint-dir", checkpoint_dir,
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="simulate-fhp6-1024",
            why="the ROADMAP item-1 simulate command: imports, model build and "
            "observables dominate, and the kernel's planes fit in L2",
            path="simulate",
            model="fhp6",
            rows=1024,
            cols=1024,
            steps=64,
        ),
        Workload(
            name="stream-fhp7-2048",
            why="a direct fhp7 run whose 22 MiB of kernel planes overflow the 2 MiB "
            "L2 ten times: the paper's storage-versus-bandwidth regime, 28-minterm collide",
            path="simulate",
            model="fhp7",
            rows=2048,
            cols=2048,
            steps=32,
        ),
        Workload(
            name="supervised-fhp6-2048-w2",
            why="run --supervised with 2 worker processes and checkpoints: the only "
            "path through the supervisor, sharding and checkpoint layers",
            path="supervised",
            model="fhp6",
            rows=2048,
            cols=2048,
            steps=96,
            workers=2,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same path on a 16 x 64 lattice for 8 generations (the self-test)."""
    return replace(workload, rows=16, cols=64, steps=8)
