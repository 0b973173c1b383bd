"""The simulation engine: a deterministic event loop over virtual time.

Time is a ``float`` in **seconds** throughout the project (machine-model
parameters are expressed in seconds too; reports convert to µs).  Events
scheduled for the same timestamp are processed in schedule order, which
makes every simulation fully deterministic — a property the test suite
relies on heavily.

Two scheduler backends share that contract:

* ``queue="calendar"`` (default) — a classic calendar queue (Brown
  1988): a ring of day-buckets of fixed width plus an overflow heap for
  the far future.  Insert and pop are O(1) for the common case of
  near-future events, which is what a paper-scale run (2304 ranks,
  hundreds of thousands of sub-microsecond message events) produces.
* ``queue="heap"`` — the original binary heap, kept as the queue of
  ``engine="reference"`` (the oracle the differential tests compare
  the calendar engine against).

Both order strictly by ``(time, sequence)`` so a simulation is
bit-identical under either backend.

Besides full :class:`~repro.sim.events.Event` objects the queue accepts
two lightweight item kinds used by the macro-event fast path:

* a bare callable — invoked with no arguments when its time arrives;
* a ``(fn, arg)`` tuple — ``fn(arg)`` when its time arrives.

Neither allocates callback lists or participates in the event protocol,
which is what makes batched message completion cheap.  They are
scheduled via :meth:`Simulator.call_at` / :meth:`Simulator.call_in`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, List, Optional, Tuple

from .errors import StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import ProcGen, Process

_QueueItem = Tuple[float, int, Any]


class HeapQueue:
    """The reference scheduler: a binary heap of (time, seq, item)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[_QueueItem] = []

    def push(self, when: float, seq: int, item: Any) -> None:
        heapq.heappush(self._heap, (when, seq, item))

    def pop(self) -> Tuple[float, Any]:
        when, _seq, item = heapq.heappop(self._heap)
        return when, item

    def peek_time(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarQueue:
    """Calendar queue: O(1) insert/pop for near-future events.

    The ring covers ``nbuckets`` consecutive *days* of ``width`` seconds
    each, starting at the day of the most recent pop.  An entry whose
    day lies inside the ring goes into its day's bucket (kept sorted,
    newest-first, so the next entry pops from the list tail in O(1));
    entries beyond the ring horizon wait in an overflow heap and are
    migrated when the cursor approaches their day.

    Buckets store ``(-when, -seq, item)`` so :func:`bisect.insort`'s
    ascending order puts the *earliest* entry at the tail — push is one
    C-implemented insort into a short list, pop is ``list.pop()``.

    The queue resizes (doubling the ring, re-estimating the width from
    the live entries' span) when buckets get crowded, preserving
    amortised O(1) behaviour without tuning by the caller.
    """

    __slots__ = ("_buckets", "_nbuckets", "_mask", "_width", "_inv",
                 "_day", "_size", "_far", "_resize_at")

    def __init__(self, width: float = 2.0e-7, nbuckets: int = 64) -> None:
        if width <= 0.0:
            raise ValueError(f"bucket width must be > 0, got {width}")
        if nbuckets < 2 or nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two >= 2, got {nbuckets}")
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._width = width
        self._inv = 1.0 / width
        self._buckets: List[List[Tuple[float, int, Any]]] = [
            [] for _ in range(nbuckets)
        ]
        self._day = 0
        self._size = 0
        self._far: List[_QueueItem] = []
        self._resize_at = nbuckets * 4

    def push(self, when: float, seq: int, item: Any) -> None:
        day = int(when * self._inv)
        if day < self._day:
            # The cursor can run ahead of a new entry's nominal day
            # (after a resize re-anchors the ring, or through float
            # rounding at a day boundary).  Clamping into the cursor's
            # bucket is exact: buckets are kept sorted, so the entry
            # still pops in strict (time, seq) order.
            day = self._day
        elif day - self._day >= self._nbuckets:
            heapq.heappush(self._far, (when, seq, item))
            return
        insort(self._buckets[day & self._mask], (-when, -seq, item))
        self._size += 1
        if self._size > self._resize_at:
            self._grow()

    def pop(self) -> Tuple[float, Any]:
        if self._size:
            buckets, mask, day = self._buckets, self._mask, self._day
            bucket = buckets[day & mask]
            if bucket:
                self._size -= 1
                neg_when, _neg_seq, item = bucket.pop()
                return -neg_when, item
            # Advance the cursor to the next populated day, migrating
            # overflow entries whose day enters the ring as we go.
            far, horizon = self._far, self._nbuckets
            while True:
                day += 1
                while far and int(far[0][0] * self._inv) - day < horizon:
                    when, seq, item = heapq.heappop(far)
                    insort(buckets[int(when * self._inv) & mask],
                           (-when, -seq, item))
                    self._size += 1
                bucket = buckets[day & mask]
                if bucket:
                    self._day = day
                    self._size -= 1
                    neg_when, _neg_seq, item = bucket.pop()
                    return -neg_when, item
        if self._far:
            # Ring empty: jump straight to the overflow's first day.
            when, seq, item = heapq.heappop(self._far)
            self._day = int(when * self._inv)
            self._migrate()
            return when, item
        raise IndexError("pop from an empty CalendarQueue")

    def _migrate(self) -> None:
        """Pull overflow entries that now fall inside the ring window."""
        far, horizon, day = self._far, self._nbuckets, self._day
        while far and int(far[0][0] * self._inv) - day < horizon:
            when, seq, item = heapq.heappop(far)
            insort(self._buckets[int(when * self._inv) & self._mask],
                   (-when, -seq, item))
            self._size += 1

    def _grow(self) -> None:
        """Double the ring; re-estimate the width from live entries."""
        entries = [e for bucket in self._buckets for e in bucket]
        lo = -max(e[0] for e in entries)
        hi = -min(e[0] for e in entries)
        nbuckets = self._nbuckets * 2
        # Aim for a handful of entries per day across the live span;
        # keep the old width if the entries are all simultaneous.
        span = hi - lo
        if span > 0.0:
            self._width = max(span / max(len(entries) // 4, 1), 1e-12)
            self._inv = 1.0 / self._width
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._resize_at = nbuckets * 4
        self._buckets = [[] for _ in range(nbuckets)]
        self._day = int(lo * self._inv)
        for neg_when, neg_seq, item in entries:
            day = int(-neg_when * self._inv)
            if day - self._day >= nbuckets:
                heapq.heappush(self._far, (-neg_when, -neg_seq, item))
            else:
                insort(self._buckets[day & self._mask],
                       (neg_when, neg_seq, item))
        self._size = sum(len(b) for b in self._buckets)
        self._migrate()

    def peek_time(self) -> float:
        if self._size:
            bucket = self._buckets[self._day & self._mask]
            if bucket:
                return -bucket[-1][0]
            best = min(-b[-1][0] for b in self._buckets if b)
            if self._far and self._far[0][0] < best:
                return self._far[0][0]
            return best
        if self._far:
            return self._far[0][0]
        return float("inf")

    def __len__(self) -> int:
        return self._size + len(self._far)

    def __bool__(self) -> bool:
        return bool(self._size or self._far)


class Simulator:
    """Owns the event queue and the virtual clock.

    Typical use::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(hello(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    ``queue`` selects the scheduler backend (``"calendar"`` — the
    default — or ``"heap"``); simulations are bit-identical under both.
    """

    def __init__(self, queue: str = "calendar") -> None:
        self.now: float = 0.0
        if queue == "calendar":
            self._queue = CalendarQueue()
        elif queue == "heap":
            self._queue = HeapQueue()
        else:
            raise ValueError(f"unknown queue backend {queue!r}")
        self._seq: int = 0
        self._event_count: int = 0

    # -- factories -----------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def event_at(self, when: float, value: Any = None) -> Event:
        """An event firing at the absolute time ``when`` (``>= now``).

        The absolute-time sibling of :meth:`timeout`: a caller that
        already knows a completion instant exactly (a FIFO pipe
        reservation, say) schedules it without the ``now + (when -
        now)`` delta round-trip, which is not an identity in floating
        point and would let the two engine paths drift by a ULP.
        """
        if when < self.now:
            raise ValueError(f"event_at({when}) is in the past (now={self.now})")
        ev = Event(self)
        ev._ok = True
        ev._value = value
        self._seq += 1
        self._queue.push(when, self._seq, ev)
        return ev

    def process(self, generator: ProcGen, name: Optional[str] = None) -> Process:
        """Start a process driving ``generator``; returns its join event."""
        return Process(self, generator, name)

    def all_of(self, events) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event for processing ``delay`` from now."""
        self._seq += 1
        self._queue.push(self.now + delay, self._seq, event)

    def call_at(self, when: float, fn) -> None:
        """Run ``fn`` (a callable or a ``(fn, arg)`` tuple) at ``when``.

        The macro-event scheduling primitive: no :class:`Event` is
        allocated and no callback list exists — the queue item *is* the
        action.  ``when`` must not lie in the past.
        """
        if when < self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        self._seq += 1
        self._queue.push(when, self._seq, fn)

    def call_in(self, delay: float, fn) -> None:
        """Run ``fn`` ``delay`` seconds from now (see :meth:`call_at`)."""
        if delay < 0.0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        self._queue.push(self.now + delay, self._seq, fn)

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if the queue is empty."""
        return self._queue.peek_time()

    def _dispatch(self, item: Any) -> None:
        """Process one popped queue item (the clock is already set)."""
        self._event_count += 1
        cls = item.__class__
        if cls is tuple:
            fn, arg = item
            fn(arg)
            return
        if isinstance(item, Event):
            callbacks, item.callbacks = item.callbacks, None
            for callback in callbacks:
                callback(item)
            if not item.ok and not callbacks:
                # A failure nobody was waiting on: surface it rather
                # than silently dropping a crashed process.
                raise item.value
            return
        item()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        when, item = self._queue.pop()
        if when < self.now:  # pragma: no cover - guarded by _push
            raise StopSimulation(f"time went backwards: {when} < {self.now}")
        self.now = when
        self._dispatch(item)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until``
        (if the simulation got that far).
        """
        queue = self._queue
        if until is None:
            # The hot loop: inlined pop + dispatch of the three item
            # kinds, cheapest (and most common at scale) first.
            pop = queue.pop
            while queue:
                when, item = pop()
                self.now = when
                self._event_count += 1
                cls = item.__class__
                if cls is tuple:
                    fn, arg = item
                    fn(arg)
                elif isinstance(item, Event):
                    callbacks, item.callbacks = item.callbacks, None
                    for callback in callbacks:
                        callback(item)
                    if not item.ok and not callbacks:
                        raise item.value
                else:
                    item()
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while queue and queue.peek_time() <= until:
            self.step()
        self.now = until

    @property
    def event_count(self) -> int:
        """Number of events processed so far (a determinism/perf probe)."""
        return self._event_count
