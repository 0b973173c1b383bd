"""PiP task spawning: which ranks share which address space.

``pip_spawn_node`` mirrors ``pip_spawn()`` from the PiP library: it
creates one :class:`AddressSpace` per node and registers every local
rank as a task inside it.  The same helper builds *non*-shared spaces
for classic MPI libraries, so all libraries go through an identical
bootstrap and differ only in the ``pip_enabled`` capability — keeping
the comparison honest.
"""

from __future__ import annotations

from typing import Dict, List

from ..machine import Cluster
from .address_space import AddressSpace


class PipTask:
    """One task (rank) loaded into a node's address space."""

    __slots__ = ("rank", "local_rank", "space")

    def __init__(self, rank: int, local_rank: int, space: AddressSpace) -> None:
        self.rank = rank
        self.local_rank = local_rank
        self.space = space

    @property
    def is_pip(self) -> bool:
        """True when this task shares its address space with peers."""
        return self.space.pip_enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "pip" if self.is_pip else "proc"
        return f"<PipTask rank={self.rank} local={self.local_rank} {kind}>"


def spawn_tasks(cluster: Cluster, pip_enabled: bool) -> Dict[int, PipTask]:
    """Create one task per rank, grouped into per-node address spaces.

    Returns a map from world rank to its :class:`PipTask`.
    """
    tasks: Dict[int, PipTask] = {}
    spaces: List[AddressSpace] = [
        AddressSpace(node_id, pip_enabled) for node_id in range(cluster.nodes)
    ]
    for rank in cluster.ranks():
        node, local = divmod(rank, cluster.ppn)  # block layout (Cluster)
        space = spaces[node]
        space.join(rank)
        tasks[rank] = PipTask(rank, local, space)
    return tasks
