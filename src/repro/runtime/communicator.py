"""Communicators: ordered rank groups with private matching contexts."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .errors import RankMismatchError


class Communicator:
    """An ordered group of world ranks with its own match space.

    All rank arguments to pt2pt/collective calls are ranks *within* a
    communicator; the runtime translates to world ranks for routing.
    """

    __slots__ = ("comm_id", "world_ranks", "_to_comm", "name")

    def __init__(self, comm_id: int, world_ranks: Sequence[int], name: str = "") -> None:
        ranks: Tuple[int, ...] = tuple(world_ranks)
        if len(set(ranks)) != len(ranks):
            raise RankMismatchError(f"duplicate ranks in communicator: {ranks}")
        if not ranks:
            raise RankMismatchError("a communicator needs at least one rank")
        self.comm_id = comm_id
        self.world_ranks = ranks
        self._to_comm: Dict[int, int] = {w: c for c, w in enumerate(ranks)}
        self.name = name or f"comm{comm_id}"

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.world_ranks)

    def to_world(self, comm_rank: int) -> int:
        """World rank of ``comm_rank``."""
        ranks = self.world_ranks
        if not 0 <= comm_rank < len(ranks):
            raise RankMismatchError(
                f"{self.name}: rank {comm_rank} out of range [0, {len(ranks)})"
            )
        return ranks[comm_rank]

    def to_comm(self, world_rank: int) -> int:
        """This communicator's rank for ``world_rank``."""
        try:
            return self._to_comm[world_rank]
        except KeyError:
            raise RankMismatchError(
                f"world rank {world_rank} is not a member of {self.name}"
            ) from None

    def contains(self, world_rank: int) -> bool:
        """True if ``world_rank`` belongs to this communicator."""
        return world_rank in self._to_comm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator {self.name} size={self.size}>"
