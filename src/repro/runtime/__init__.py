"""Supervised multi-process runtime for sharded lattice runs.

This package scales the in-process resilience story
(:mod:`repro.resilience`) up one level, to whole *processes*: the
lattice is split into row slabs (:mod:`repro.runtime.sharding`), each
slab evolves in its own worker process (:mod:`repro.runtime.worker`),
all on the run's one kernel backend, and a supervisor
(:mod:`repro.runtime.supervisor`) runs the halo-exchange barrier,
watches heartbeats, restarts dead or hung workers from durable
checkpoints, drops a worker that exhausts its restart budget (the run
degrades or fails), and reports everything in a schema-versioned
supervision report.

The headline invariant: a supervised run that loses no shard
permanently — however many workers crashed and restarted along the way —
produces a final lattice **bit-identical** to the unsupervised
single-process evolution.
"""

from repro.runtime.modelspec import MODEL_KINDS, ModelSpec
from repro.runtime.sharding import Shard, ShardRunner, block_stop, plan_shards
from repro.runtime.supervisor import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    RestartEvent,
    SupervisionReport,
    SupervisorConfig,
    supervised_run,
)
from repro.runtime.worker import InducedFault, WorkerConfig, worker_main

__all__ = [
    "InducedFault",
    "MODEL_KINDS",
    "ModelSpec",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "RestartEvent",
    "Shard",
    "ShardRunner",
    "SupervisionReport",
    "SupervisorConfig",
    "WorkerConfig",
    "block_stop",
    "plan_shards",
    "supervised_run",
    "worker_main",
]
