"""The benchmark's named workloads.

Each workload is one on-device learner configuration driven through the
public experiment API (``prepare_experiment`` + ``run_method``).  This
module imports neither numpy nor the repository package, so the entry
point can read a workload's thread count and pin the process's thread
pools before anything numeric is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "get_workload"]


@dataclass(frozen=True)
class Workload:
    """One stream configuration.

    Attributes
    ----------
    name:
        Workload name as given to ``--workload``.
    dataset:
        Registry dataset the stream is drawn from.
    method:
        ``run_method`` method (``"deco"`` or a selection baseline).
    ipc:
        Images per class of the on-device buffer.
    decode_factor:
        Factorized-storage factor of the condensed buffer (1 = raw pixels).
    threads:
        Intra-op thread count, set through ``REPRO_NUM_THREADS``.
    checkpoint_every:
        Mid-stream learner checkpoint interval in segments (``None`` = off).
    why:
        One line on what the workload exercises and what should stay flat.
    """

    name: str
    dataset: str
    method: str
    ipc: int
    decode_factor: int = 1
    threads: int = 1
    checkpoint_every: int | None = None
    why: str = ""


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="deco-imagenet10-f2", dataset="imagenet10", method="deco",
        ipc=2, decode_factor=2, checkpoint_every=10,
        why="DECO with f=2 factorized storage on 32 px ImageNet-10 STC "
            "stream, 1 thread, checkpoint every 10 segments: the only "
            "decode/encode_grad and persist path; compute-bound convs"),
    Workload(
        name="replay-herding-t2", dataset="core50", method="herding",
        ipc=10, threads=2,
        why="herding selection, IpC=10, 2 intra-op threads: the only "
            "workload where sharding engages; no condensation, so "
            "condensation changes should leave it flat"),
)}


def get_workload(name: str) -> Workload:
    """Look up a workload by name; raises ``KeyError`` listing the names."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; available: "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name]
