"""The simulation engine: a deterministic event loop over virtual time.

Time is a ``float`` in **seconds** throughout the project (machine-model
parameters are expressed in seconds too; reports convert to µs).  Events
scheduled for the same timestamp are processed in schedule order, which
makes every simulation fully deterministic — a property the test suite
relies on heavily.

The scheduler is one binary heap of ``(time, seq, fn, arg)`` entries:
``seq`` is a global push counter, so entries order strictly by
``(time, seq)`` and the heap never compares past it.  Popping an entry
sets the clock to its time and calls ``fn(arg)`` — the only dispatch
there is.  Every push site (:meth:`Simulator._push`, :meth:`call_at`,
:meth:`call_in`, :meth:`event_at`, a process's kick-off, sleeps, hops
and interrupts, a parked receive's wake-up) calls :func:`heapq.heappush`
directly.  Both engines (``reference`` and ``calendar``, see
:mod:`repro.sim.spec`) run on this queue; they differ only in whether
the pt2pt fast path is armed.  (The ``calendar`` engine is named after
the calendar queue it used to run on; with the pushes and pops inlined
the heap costs less per event.)

Entry kinds:

* a triggered :class:`~repro.sim.events.Event` — ``fn`` is
  :func:`_fire`, which runs the event's callbacks;
* a bare ``(fn, arg)`` action scheduled with :meth:`Simulator.call_at`
  / :meth:`Simulator.call_in` — no Event, no callback list; the
  macro-event fast path batches message completion this way;
* a process resume — ``fn`` is the process's cached ``_send`` or
  ``_throw`` bound method.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from .errors import StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import ProcGen, Process

_QueueItem = Tuple[float, int, Callable[[Any], None], Any]


def _fire(event: Event) -> None:
    """Queue action of a triggered event: run its callbacks."""
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)
    if not event._ok and not callbacks:
        # A failure nobody was waiting on: surface it rather than
        # silently dropping a crashed process.
        raise event._value


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
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: the heap of ``(time, seq, fn, arg)`` entries
        self._queue: List[_QueueItem] = []
        #: entries ever pushed; every push increments it exactly once
        self._seq: int = 0

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
        heappush(self._queue, (when, self._seq, _fire, ev))
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
        heappush(self._queue, (self.now + delay, self._seq, _fire, event))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any) -> None:
        """Run ``fn(arg)`` at ``when``.

        The macro-event scheduling primitive: no :class:`Event` is
        allocated and no callback list exists — the queue entry *is*
        the action.  ``when`` must not lie in the past.
        """
        if when < self.now:
            raise ValueError(f"call_at({when}) is in the past (now={self.now})")
        self._seq += 1
        heappush(self._queue, (when, self._seq, fn, arg))

    def call_in(self, delay: float, fn: Callable[[Any], None],
                arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` seconds from now (see :meth:`call_at`)."""
        if delay < 0.0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        heappush(self._queue, (self.now + delay, self._seq, fn, arg))

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if the queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        when, _seq, fn, arg = heappop(self._queue)
        if when < self.now:  # pragma: no cover - guarded by the push sites
            raise StopSimulation(f"time went backwards: {when} < {self.now}")
        self.now = when
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until``
        (if the simulation got that far); entries scheduled later stay
        queued.
        """
        queue = self._queue
        if until is None:
            while queue:
                self.now, _seq, fn, arg = heappop(queue)
                fn(arg)
            return
        if until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while queue and queue[0][0] <= until:
            self.now, _seq, fn, arg = heappop(queue)
            fn(arg)
        self.now = until

    @property
    def event_count(self) -> int:
        """Number of events processed so far (a determinism/perf probe).

        Every push increments ``_seq`` once and only :meth:`run` and
        :meth:`step` pop, so the count is pushes minus what is still
        queued — the hot loop keeps no counter of its own.
        """
        return self._seq - len(self._queue)
