"""The four benchmark workloads and how one simulated cluster is built.

Every workload is the synthetic application (``SyntheticWorkload``) on
one simulated cluster, driven only through the public API.  The seed is
the cluster seed: it fixes every random choice of the programs and the
network, so the same seed gives the same inputs.  The program receives
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.workloads import SyntheticWorkload


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload shape.  ``rounds`` is the per-thread run length."""

    name: str
    why: str
    processes: int
    rounds: int
    interval: float
    params: dict[str, Any] = field(default_factory=dict)
    #: Fail-stop crashes as (pid, simulated time).
    crashes: tuple[tuple[int, float], ...] = ()
    #: Checkpoints go to an on-disk ``FileBackend`` in a fresh directory.
    durable: bool = False
    #: ``ClusterConfig(check=True)``: trace on, race detector and
    #: invariant checker attached.
    check: bool = False
    spare_nodes: int = 2

    @property
    def failure_free(self) -> bool:
        return not self.crashes

    def scaled(self, rounds: int, **changes: Any) -> "WorkloadSpec":
        """The same shape at another run length (tests use tiny ones)."""
        return replace(self, rounds=rounds, **changes)


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="scale_p256",
            why=("256 processes, one object each, 50/50 mix: every checkpoint "
                 "copies the whole object directory, so memory and checkpoint "
                 "work grow as p^2"),
            processes=256,
            rounds=8,
            interval=40.0,
            params={"objects": 256},
        ),
        WorkloadSpec(
            name="long_read_p16",
            why=("16 processes, 90% reads, 0.6 locality, long run: local "
                 "re-acquires and dummy entries; cost grows with run length, "
                 "not cluster size"),
            processes=16,
            rounds=520,
            interval=200.0,
            params={"objects": 16, "read_ratio": 0.9, "locality": 0.6},
        ),
        WorkloadSpec(
            name="durable_crash_p16",
            why=("16 processes, on-disk checkpoint store, four staggered "
                 "crashes: the only workload where storage encoding and "
                 "recovery/replay do work"),
            processes=16,
            rounds=200,
            interval=40.0,
            params={"objects": 16},
            crashes=((1, 100.0), (5, 400.0), (9, 700.0), (13, 1000.0)),
            durable=True,
            spare_nodes=4,
        ),
        WorkloadSpec(
            name="checked_p16",
            why=("16 processes with the inline race detector and invariant "
                 "checker: the only workload where the trace and verify run"),
            processes=16,
            rounds=200,
            interval=40.0,
            params={"objects": 16},
            check=True,
        ),
    )
}


def build(spec: WorkloadSpec, seed: int,
          store_dir: Optional[str] = None) -> tuple[DisomSystem, SyntheticWorkload]:
    """Config to ready cluster: build, declare objects, spawn, inject crashes.

    This is exactly the region ``setup_s`` times.
    """
    workload = SyntheticWorkload(rounds=spec.rounds, **spec.params)
    system = DisomSystem(
        ClusterConfig(
            processes=spec.processes,
            seed=seed,
            spare_nodes=spec.spare_nodes,
            store_dir=store_dir if spec.durable else None,
            # The durable workload measures the storage layer's encoding
            # and file writes; the host disk's flush latency varied by
            # seconds from run to run and is not the program's cost.
            storage_fsync=False,
            check=spec.check,
        ),
        CheckpointPolicy(interval=spec.interval),
    )
    workload.setup(system)
    for pid, at_time in spec.crashes:
        system.inject_crash(pid, at_time)
    return system, workload
