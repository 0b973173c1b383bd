"""Deterministic discrete-event simulation kernel (subsystem S1).

This is the substrate everything else runs on: simulated MPI ranks are
:class:`Process` generators scheduled by a :class:`Simulator`, network
and memory facilities are :class:`Resource`/:class:`RateLimiter`
instances, and mailboxes are :class:`Store` queues.
"""

from .engine import Simulator
from .errors import EventAlreadyTriggered, Interrupt, SimError, StopSimulation
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .process import ParkSlot, Process
from .resources import RateLimiter, Request, Resource
from .spec import ENGINE_NAMES, EngineSpec, resolve_engine
from .stores import FilterStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ENGINE_NAMES",
    "EngineSpec",
    "Event",
    "EventAlreadyTriggered",
    "FilterStore",
    "Interrupt",
    "ParkSlot",
    "Process",
    "RateLimiter",
    "Request",
    "Resource",
    "SimError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "resolve_engine",
]
