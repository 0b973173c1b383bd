"""Host-speed probe: a fixed pure-Python workload that measures how fast
this host runs interpreter-bound code right now.

The 2-vCPU sandboxes this benchmark runs on change speed from minute to
minute (neighbours on shared cores; CPU time tracks wall time, so the
process is not descheduled, it runs slower).  In two sets of ten fresh
runs of the same code, the median ``fig2_allgather`` op spread by 19 %
and 14 % (IQR/median), and this probe's median moved with it.  A run
therefore times :func:`probe` between its cells and scales each pass's
host times by ``REF_SECONDS / median(probe)`` over that pass, reporting
them at a fixed reference speed; scaled, the same runs spread by 8 %
and 6 %.

The probe is a miniature discrete-event loop — heap calendar, generator
processes, dict-keyed message matching, small-object allocation — the
same mix of interpreter work as the simulator, but frozen here in the
benchmark, so no change to the program under test changes it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

#: probe seconds at the reference speed; scaled times read as seconds
#: on a host where one probe takes this long
REF_SECONDS = 0.020

_PROCS = 64
_ROUNDS = 84
#: events one probe processes (checked, so the work cannot drift)
EVENTS = 2 * _PROCS * _ROUNDS + _PROCS


class _Msg:
    __slots__ = ("src", "dst", "tag", "t")

    def __init__(self, src: int, dst: int, tag: int) -> None:
        self.src, self.dst, self.tag, self.t = src, dst, tag, 0.0


def _rank(rank: int):
    for r in range(_ROUNDS):
        hop = 1 << (r % 6)
        yield ("send", _Msg(rank, (rank + hop) % _PROCS, r))
        yield ("recv", (rank - hop) % _PROCS, r)


def probe() -> float:
    """Run the fixed event loop once; returns its wall seconds."""
    t0 = time.perf_counter()
    calendar: list = []
    seq = events = 0
    procs = {rank: _rank(rank) for rank in range(_PROCS)}
    for rank in range(_PROCS):
        heapq.heappush(calendar, (0.0, seq, rank, None))
        seq += 1
    mailbox: dict = {}
    waiting: dict = {}
    while calendar:
        now, _, rank, value = heapq.heappop(calendar)
        events += 1
        try:
            op = procs[rank].send(value)
        except StopIteration:
            continue
        if op[0] == "send":
            msg = op[1]
            msg.t = now
            key = (msg.dst, msg.src, msg.tag)
            if key in waiting:
                heapq.heappush(calendar, (now + 1e-6, seq, waiting.pop(key), msg))
                seq += 1
            else:
                mailbox.setdefault(key, []).append(msg)
            heapq.heappush(calendar, (now + 4e-7, seq, rank, None))
        else:
            key = (rank, op[1], op[2])
            box = mailbox.get(key)
            if box:
                msg = box.pop(0)
                if not box:
                    del mailbox[key]
                heapq.heappush(calendar, (now + 3e-7, seq, rank, msg))
            else:
                waiting[key] = rank
                continue
        seq += 1
    if events != EVENTS:
        raise RuntimeError(f"host probe ran {events} events, want {EVENTS}")
    return time.perf_counter() - t0


class SpeedMeter:
    """Collects probe samples over a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def scale(self) -> float:
        """Factor that converts this run's host seconds to reference
        seconds: ``REF_SECONDS / median(probe)``."""
        return REF_SECONDS / statistics.median(self.samples)
