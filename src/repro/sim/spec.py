"""Engine selection: one resolved :class:`EngineSpec` per world.

Two engines sit behind ``engine=``:

``reference``
    Heap-queue scheduler, reference pt2pt choreography (no macro-event
    fast path).  The ground truth the default engine is differentially
    tested against.
``calendar``
    Calendar-queue scheduler with the macro-event fast path (the
    default).  Both engines produce bit-identical simulated times,
    records and counters.

Every entry point funnels through :func:`resolve_engine` — the *single*
place the downgrade rule lives.  Downgrades are explicit and
queryable: ``spec.downgrades`` names every rule that fired.

Downgrade rule
--------------
The calendar engine's fast path turns off when ``faults`` or a span
recorder (``obs``) is attached: those need the full per-message
choreography.  The calendar queue stays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

#: engine names accepted by ``engine=`` everywhere
ENGINE_NAMES = ("reference", "calendar")


@dataclass(frozen=True)
class EngineSpec:
    """A fully-resolved engine selection.

    Everything the runtime needs to build a simulator — plus the
    audit trail of what was requested and which downgrade rules fired.
    """

    #: resolved engine name (one of :data:`ENGINE_NAMES`)
    name: str
    #: scheduler backend: ``"calendar"`` or ``"heap"``
    queue: str
    #: macro-event pt2pt fast path armed?
    fastpath: bool
    #: the engine string originally requested (None = the default)
    requested: Optional[str] = None
    #: human-readable downgrade rules that fired, in order
    downgrades: Tuple[str, ...] = field(default=())

    def describe(self) -> str:
        """One-line summary for logs and ``repro info``."""
        bits = [self.name, f"queue={self.queue}",
                f"fastpath={'on' if self.fastpath else 'off'}"]
        if self.downgrades:
            bits.append("downgraded: " + "; ".join(self.downgrades))
        return " ".join(bits)


def resolve_engine(
    engine: "Union[str, EngineSpec, None]" = None,
    *,
    faults: bool = False,
    obs: bool = False,
) -> EngineSpec:
    """Resolve an engine request against the world's configuration.

    ``engine`` is an engine name, an already-resolved
    :class:`EngineSpec` (re-validated against this world's
    conditions), or ``None`` — the default, ``calendar``.

    The keyword flags describe what is attached to the world; they
    drive the downgrade rule documented in the module docstring.  This
    function is the *only* place that rule exists.
    """
    if isinstance(engine, EngineSpec):
        engine = engine.requested or engine.name
    requested = engine
    name = engine if engine is not None else "calendar"
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {name!r}; available: {', '.join(ENGINE_NAMES)}"
        )
    if name == "reference":
        return EngineSpec(name="reference", queue="heap", fastpath=False,
                          requested=requested)
    fast = not faults and not obs
    downgrades = () if fast else (_fast_off_reason(faults, obs),)
    return EngineSpec(name="calendar", queue="calendar", fastpath=fast,
                      requested=requested, downgrades=downgrades)


def _fast_off_reason(faults: bool, obs: bool) -> str:
    causes = [label for flag, label in (
        (faults, "faults"), (obs, "span recorder"),
    ) if flag]
    return "fast path off (" + ", ".join(causes) + " attached)"
