"""Generator-based processes for the simulation kernel.

A *process* wraps a Python generator that yields :class:`Event` objects.
Each time a yielded event is processed, the generator is resumed with the
event's value (or the event's exception is thrown into it, if the event
failed).  The process itself is an :class:`Event` that fires when the
generator returns; its value is the generator's return value, which lets
simulated MPI ranks ``return`` results and callers ``yield proc`` to join
them.

Fast-path waits
---------------
Two more things may be yielded, both the backbone of the macro-event
fast path:

* a bare ``float``: *sleep that many seconds*.  A float sleep pushes
  the process's cached resume callable directly on the queue — no
  :class:`~repro.sim.events.Timeout`, no callback list, no per-sleep
  allocation at all.  Ints are *not* accepted (``yield 42`` stays a
  bug, not a 42-second nap).
* a :class:`ParkSlot`: *wait until someone calls the slot's*
  ``succeed(value)``.  The process binds itself to the slot when it
  yields it; ``succeed`` pushes the cached resume callable with
  ``value`` at the current instant — the same ``(time, seq)`` position
  :meth:`Event.succeed <repro.sim.events.Event.succeed>` would take,
  without the Event, its callback list or the ``_resume`` frame.  A
  fast-path receive parks on one until its message is delivered.

A process in either wait cannot be interrupted (:meth:`Process.interrupt`
raises); code that needs interruptible waits yields a real Event.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from .errors import Interrupt
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

ProcGen = Generator[Event, Any, Any]

#: sentinel marking a process suspended in a float sleep
_SLEEPING = object()


class ParkSlot:
    """A one-shot wake-up point a process parks on (see module docs).

    Create one, hand it to whoever will complete the wait, and yield
    it; the yielding process binds itself as ``proc``.  ``succeed``
    must come after that yield (from a later queue entry).
    """

    __slots__ = ("proc",)

    def succeed(self, value: Any = None) -> None:
        """Resume the parked process with ``value`` at the current time."""
        proc = self.proc
        sim = proc.sim
        sim._seq += 1
        heappush(sim._queue, (sim.now, sim._seq, proc._send_cb, value))


class Process(Event):
    """A running simulated activity.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        The generator to drive.  Must yield :class:`Event` instances,
        floats (sleeps) or :class:`ParkSlot` instances.
    name:
        Optional label used in error messages and ``repr``.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_send_cb", "_throw_cb")

    def __init__(self, sim: "Simulator", generator: ProcGen, name: Optional[str] = None) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Any] = None
        # Bound methods are cached once so scheduling a resume never
        # allocates (these are pushed on the queue as bare callables).
        self._send_cb = self._send
        self._throw_cb = self._throw
        # Kick-start at the current time (starts the generator).
        sim._seq += 1
        heappush(sim._queue, (sim.now, sim._seq, self._send_cb, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached; if it fires
        later it is simply ignored by this process.  A process suspended
        in a fast-path float sleep or parked on a :class:`ParkSlot`
        cannot be interrupted.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already terminated")
        target = self._waiting_on
        if target is _SLEEPING:
            raise RuntimeError(
                f"{self!r} is in a fast-path sleep and cannot be interrupted; "
                "yield a Timeout event for interruptible waits"
            )
        if target.__class__ is ParkSlot:
            raise RuntimeError(
                f"{self!r} is parked on a fast-path slot and cannot be "
                "interrupted; wait on an Event for interruptible waits"
            )
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        sim = self.sim
        sim._seq += 1
        heappush(sim._queue, (sim.now, sim._seq, self._throw_cb, Interrupt(cause)))

    # -- internal ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Event callback: resume the generator with the event's outcome."""
        if event._ok:
            self._send(event._value)
        else:
            self._throw(event._value)

    def _send(self, value: Any) -> None:
        """Queue callable: resume (or start) with ``value``."""
        self._waiting_on = None
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        self._proceed(target)

    def _throw(self, exc: BaseException) -> None:
        """Queue callable: throw ``exc`` into the generator."""
        self._waiting_on = None
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as caught:
            self.fail(caught)
            return
        self._proceed(target)

    def _proceed(self, target: Any) -> None:
        """Suspend on whatever the generator yielded."""
        cls = target.__class__
        if cls is float:
            # Sleep: push the cached resume callable, nothing else.
            self._waiting_on = _SLEEPING
            sim = self.sim
            sim._seq += 1
            heappush(sim._queue, (sim.now + target, sim._seq, self._send_cb, None))
            return
        if cls is ParkSlot:
            # Park: whoever holds the slot pushes the resume.
            target.proc = self
            self._waiting_on = target
            return
        if isinstance(target, Event):
            if target.callbacks is None:
                # Already-processed event: resume at the same timestamp
                # via a lightweight hop (keeps FIFO fairness without
                # allocating an Event).
                sim = self.sim
                sim._seq += 1
                if target._ok:
                    heappush(sim._queue, (sim.now, sim._seq, self._send_cb,
                                          target._value))
                else:
                    heappush(sim._queue, (sim.now, sim._seq, self._throw_cb,
                                          target._value))
            else:
                self._waiting_on = target
                target.callbacks.append(self._resume)
            return
        err = TypeError(
            f"process {self.name!r} yielded {target!r}; processes "
            f"must yield Event objects, float sleeps or park slots"
        )
        self.generator.close()
        self.fail(err)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
