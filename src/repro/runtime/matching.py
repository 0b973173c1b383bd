"""MPI message matching: posted-receive and unexpected-message queues.

Matching follows MPI's rules: a receive matches the *oldest* message
whose envelope satisfies its ``(comm, src, tag)`` pattern, where source
and tag may be wildcards; messages between the same (src, dst, comm,
tag) are non-overtaking.

Implementation: exact-envelope traffic (all of this project's
collectives) goes through dict-keyed deques — O(1) per message.
Wildcard patterns fall back to ordered scans; global FIFO between the
two paths is kept via monotonically increasing sequence numbers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple, Union

from ..sim import Event, ParkSlot
from .message import ANY_SOURCE, ANY_TAG, Envelope, MessageDescriptor

_Key = Tuple[int, int, int]  # (comm_id, src, tag)


class PostedRecv(NamedTuple):
    """A receive waiting for its message.

    A (named) tuple because at paper scale one is allocated per
    message; the engine itself appends bare ``(seq, pattern, event)``
    tuples — same layout, cheapest possible allocation.
    """

    seq: int
    pattern: Envelope
    #: succeeds with the MessageDescriptor: an :class:`Event`, or the
    #: :class:`~repro.sim.ParkSlot` a fast-path receive parks on (its
    #: ``succeed`` takes the same queue position, without the Event)
    event: Union[Event, ParkSlot]


class MatchingEngine:
    """Per-rank matching state.

    Hash-bucketed: exact ``(comm, src, tag)`` traffic — everything the
    collectives generate — is one dict probe plus one deque operation
    per message on both the post and the deliver side, independent of
    how many receives are outstanding.  Wildcard receives keep the
    ordered-scan fallback; sequence numbers keep global FIFO between
    the two paths.
    """

    __slots__ = ("_seq", "_posted_exact", "_posted_wild",
                 "_unexpected_exact", "_unexpected_count")

    def __init__(self) -> None:
        self._seq = 0
        self._posted_exact: Dict[_Key, Deque[PostedRecv]] = {}
        self._posted_wild: List[PostedRecv] = []
        self._unexpected_exact: Dict[_Key, Deque[Tuple[int, MessageDescriptor]]] = {}
        self._unexpected_count = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- receive side ---------------------------------------------------
    def claim(self, pattern: Envelope) -> Optional[MessageDescriptor]:
        """Take the oldest unexpected message matching ``pattern``."""
        if not self._unexpected_count:
            return None
        if pattern.src != ANY_SOURCE and pattern.tag != ANY_TAG:
            queue = self._unexpected_exact.get(
                (pattern.comm_id, pattern.src, pattern.tag))
            if not queue:
                return None
            _seq, desc = queue.popleft()
            self._unexpected_count -= 1
            return desc
        # Wildcard: oldest matching across all exact queues.
        best_key: Optional[_Key] = None
        best_seq = None
        for key, queue in self._unexpected_exact.items():
            if not queue:
                continue
            seq, desc = queue[0]
            if desc.envelope.matches(pattern) and (best_seq is None or seq < best_seq):
                best_seq, best_key = seq, key
        if best_key is None:
            return None
        _seq, desc = self._unexpected_exact[best_key].popleft()
        self._unexpected_count -= 1
        return desc

    def peek(self, pattern: Envelope) -> Optional[MessageDescriptor]:
        """Like :meth:`claim` but leaves the message queued (probe)."""
        if not self._unexpected_count:
            return None
        if pattern.src != ANY_SOURCE and pattern.tag != ANY_TAG:
            queue = self._unexpected_exact.get(
                (pattern.comm_id, pattern.src, pattern.tag))
            return queue[0][1] if queue else None
        best = None
        best_seq = None
        for queue in self._unexpected_exact.values():
            if not queue:
                continue
            seq, desc = queue[0]
            if desc.envelope.matches(pattern) and (best_seq is None or seq < best_seq):
                best_seq, best = seq, desc
        return best

    def post(self, pattern: Envelope, event: Union[Event, ParkSlot]) -> None:
        """Register a posted receive (call :meth:`claim` first);
        delivery calls ``event.succeed(desc)``."""
        self._seq = seq = self._seq + 1
        entry = (seq, pattern, event)
        if pattern.src != ANY_SOURCE and pattern.tag != ANY_TAG:
            key = (pattern.comm_id, pattern.src, pattern.tag)
            queue = self._posted_exact.get(key)
            if queue is None:
                self._posted_exact[key] = deque((entry,))
            else:
                queue.append(entry)
        else:
            self._posted_wild.append(entry)

    # -- delivery side ----------------------------------------------------
    def deliver(self, desc: MessageDescriptor) -> None:
        """Hand an arriving message to the oldest matching posted recv,
        or queue it as unexpected."""
        env = desc.envelope
        key = (env.comm_id, env.src, env.tag)
        exact_queue = self._posted_exact.get(key)
        if exact_queue and not self._posted_wild:
            # Hot path: exact match, no wildcards outstanding — one
            # dict probe and one deque pop.
            exact_queue.popleft()[2].succeed(desc)
            return
        exact_head = exact_queue[0] if exact_queue else None
        wild_match = None
        for posted in self._posted_wild:
            if env.matches(posted[1]):
                wild_match = posted
                break
        chosen: Optional[PostedRecv] = None
        if exact_head and wild_match:
            chosen = exact_head if exact_head[0] < wild_match[0] else wild_match
        else:
            chosen = exact_head or wild_match
        if chosen is None:
            self._unexpected_exact.setdefault(key, deque()).append((self._next_seq(), desc))
            self._unexpected_count += 1
            return
        if chosen is exact_head:
            exact_queue.popleft()
        else:
            self._posted_wild.remove(chosen)
        chosen[2].succeed(desc)

    # -- probes -----------------------------------------------------------
    @property
    def unexpected_messages(self) -> int:
        """Currently queued unexpected messages (leak probe)."""
        return self._unexpected_count

    @property
    def pending_receives(self) -> int:
        """Currently posted, unmatched receives (leak probe)."""
        return sum(len(q) for q in self._posted_exact.values()) + len(self._posted_wild)

    def pending_patterns(self) -> List[Tuple[int, int]]:
        """(src, tag) of every posted, unmatched receive, in post
        order — the raw material of the deadlock blocked report
        (wildcards appear as -1)."""
        posted: List[PostedRecv] = [
            p for q in self._posted_exact.values() for p in q
        ]
        posted += self._posted_wild
        posted.sort(key=lambda p: p[0])
        return [(p[1].src, p[1].tag) for p in posted]

    def pending_details(self) -> List[Tuple[int, int, int]]:
        """(comm_id, src, tag) of every posted, unmatched receive, in
        post order — like :meth:`pending_patterns` but keeping the
        communicator, so callers can resolve comm ranks back to world
        ranks (the failure detector's probe targeting and the
        transitive wait-for graph both need that)."""
        posted: List[PostedRecv] = [
            p for q in self._posted_exact.values() for p in q
        ]
        posted += self._posted_wild
        posted.sort(key=lambda p: p[0])
        return [(p[1].comm_id, p[1].src, p[1].tag) for p in posted]

    # -- recovery ---------------------------------------------------------
    def purge(self, predicate) -> int:
        """Drop posted receives and unexpected messages whose envelope
        satisfies ``predicate`` (called with the :class:`Envelope`).

        The fault-tolerance layer uses this to retire the traffic of an
        abandoned collective attempt: posted receives that will never
        match (their sender died) and unexpected messages from a stale
        epoch.  Purged receives' events are simply abandoned — any
        process waiting on them must have been interrupted first.
        Returns how many entries were removed.
        """
        removed = 0
        for key in list(self._posted_exact):
            queue = self._posted_exact[key]
            kept = deque(e for e in queue if not predicate(e[1]))
            removed += len(queue) - len(kept)
            if kept:
                self._posted_exact[key] = kept
            else:
                del self._posted_exact[key]
        kept_wild = [e for e in self._posted_wild if not predicate(e[1])]
        removed += len(self._posted_wild) - len(kept_wild)
        self._posted_wild[:] = kept_wild
        for key in list(self._unexpected_exact):
            queue = self._unexpected_exact[key]
            kept = deque(e for e in queue if not predicate(e[1].envelope))
            dropped = len(queue) - len(kept)
            removed += dropped
            self._unexpected_count -= dropped
            if kept:
                self._unexpected_exact[key] = kept
            else:
                del self._unexpected_exact[key]
        return removed
