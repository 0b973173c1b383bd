"""MPI library models.

A library model = an intra-node transport choice + an algorithm
selection table + a per-call software overhead.  That triple is what
actually differs between the five stacks the paper benchmarks (plus
PiP-MColl itself); encoding it explicitly keeps the comparison honest
and auditable.

``algorithm(collective, nbytes, world_size)`` returns a generator
function with the standard signature for that collective family (see
:mod:`repro.collectives.base`), already selected for the message size
— mirroring the tuned decision tables real libraries ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..machine import MachineParams
from ..runtime import World

#: collectives every library must provide (benchmarkable surface)
COLLECTIVES = (
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "allreduce",
    "reduce",
    "alltoall",
    "reduce_scatter",
    "barrier",
)

#: vector variants (variable per-rank counts); also selectable via
#: :meth:`MpiLibrary.algorithm`
V_COLLECTIVES = ("gatherv", "scatterv", "allgatherv", "alltoallv")

#: prefix reductions; also selectable via :meth:`MpiLibrary.algorithm`
SCAN_COLLECTIVES = ("scan", "exscan")


@dataclass(frozen=True)
class LibraryProfile:
    """Static facts about one library model."""

    name: str
    intra: str  # transport registry name
    call_overhead: float  # software stack depth per collective call (s)
    description: str


class MpiLibrary:
    """Base library model.  Subclasses fill in the selection table."""

    profile: LibraryProfile

    #: failure unit of the library's runtime: ``"rank"`` — one process
    #: per rank dies alone; ``"node"`` — ranks are objects inside one
    #: process-in-process address space, so a crash takes out the whole
    #: node's worth of them (the fault-tolerance layer widens agreed
    #: exclusions accordingly)
    ft_crash_scope = "rank"

    def degraded_algorithm(self, collective: str, nbytes: int,
                           size: int) -> Callable:
        """The algorithm a *recovered* (shrunken/degraded) communicator
        runs: flat, geometry-agnostic point-to-point.

        After a failure the node-structured fast paths are off the
        table — a survivor set has holes in its node geometry, and an
        interrupted attempt may have poisoned node-barrier and
        shared-staging state that only the flat algorithms are immune
        to.  Same selection the library uses for arbitrary split
        communicators.
        """
        return flat_algorithm(collective, nbytes, size)

    def make_world(self, params: MachineParams, functional: bool = True,
                   **world_kwargs) -> World:
        """A fresh world wired with this library's transport.

        Extra keyword arguments go straight to :class:`World` — how
        chaos runs thread ``faults=`` / ``reliable=`` through the
        benchmark harness without per-library plumbing.
        """
        return World(params, intra=self.profile.intra, functional=functional,
                     **world_kwargs)

    # -- selection table -------------------------------------------------
    def algorithm(self, collective: str, nbytes: int, world_size: int) -> Callable:
        """The algorithm this library runs for ``collective`` at
        ``nbytes`` per-process bytes on ``world_size`` ranks."""
        if (collective not in COLLECTIVES and collective not in V_COLLECTIVES
                and collective not in SCAN_COLLECTIVES):
            raise KeyError(
                f"unknown collective {collective!r}; available: "
                f"{COLLECTIVES + V_COLLECTIVES + SCAN_COLLECTIVES}"
            )
        picker: Optional[Callable] = getattr(self, f"_pick_{collective}", None)
        if picker is None:
            raise NotImplementedError(
                f"{self.profile.name} does not implement {collective}"
            )
        return picker(nbytes, world_size)

    def subcomm_algorithm(self, collective: str, nbytes: int,
                          comm_size: int) -> Callable:
        """The algorithm to run for ``collective`` on a **split**
        communicator of ``comm_size`` ranks.

        The tuned tables above may select algorithms that exploit
        COMM_WORLD's node structure (PiP-MColl's multi-object schedules,
        the hierarchical leader variants) — structure an arbitrary
        ``comm_split`` group does not have.  Real libraries fall back to
        flat, geometry-agnostic algorithms there; so do we.
        """
        return flat_algorithm(collective, nbytes, comm_size)

    def wrapped(self, collective: str, nbytes: int, world_size: int,
                subcomm: bool = False) -> Callable:
        """Like :meth:`algorithm` but with the library's per-call
        software overhead charged at entry (what benchmarks run).

        With an attached :class:`~repro.obs.SpanRecorder` the whole
        call is wrapped in a ``collective`` span carrying the library,
        algorithm and payload size.  ``subcomm=True`` selects via
        :meth:`subcomm_algorithm` (split-communicator calls).
        """
        if subcomm:
            algo = self.subcomm_algorithm(collective, nbytes, world_size)
        else:
            algo = self.algorithm(collective, nbytes, world_size)
        overhead = self.profile.call_overhead
        library = self.profile.name

        def with_overhead(ctx, *args, **kwargs):
            obs = ctx.world.obs
            if obs is None:
                yield ctx.sim.timeout(overhead)
                yield from algo(ctx, *args, **kwargs)
                return
            with obs.span(ctx.rank, collective, cat="collective",
                          library=library, algorithm=algo.__name__,
                          nbytes=nbytes):
                yield ctx.sim.timeout(overhead)
                yield from algo(ctx, *args, **kwargs)

        with_overhead.__name__ = f"{self.profile.name}:{collective}"
        return with_overhead

    # -- vector collectives: production libraries all use linear /
    # ring / pairwise here (trees can't split unknown counts), so the
    # defaults live in the base class; PiP-MColl overrides what the
    # paper's design generalises to.
    def _pick_gatherv(self, nbytes, size):
        from ..collectives import gatherv_linear

        return gatherv_linear

    def _pick_scatterv(self, nbytes, size):
        from ..collectives import scatterv_linear

        return scatterv_linear

    def _pick_allgatherv(self, nbytes, size):
        from ..collectives import allgatherv_ring

        return allgatherv_ring

    def _pick_alltoallv(self, nbytes, size):
        from ..collectives import alltoallv_pairwise

        return alltoallv_pairwise

    def _pick_scan(self, nbytes, size):
        from ..collectives import scan_recursive_doubling

        return scan_recursive_doubling

    def _pick_exscan(self, nbytes, size):
        from ..collectives import exscan_linear

        return exscan_linear

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiLibrary {self.profile.name}>"


def is_pow2(n: int) -> bool:
    """True for powers of two (algorithm selection guard)."""
    return n > 0 and (n & (n - 1)) == 0


def flat_algorithm(collective: str, nbytes: int, size: int) -> Callable:
    """Geometry-agnostic selection for arbitrary communicators.

    Every algorithm here honours the ``comm=`` argument and assumes
    nothing about node placement, so it is safe on any
    ``MPI_Comm_split`` result.  Message-size tuning is deliberately
    coarse — split communicators are control plane, not the hot path.
    """
    from .. import collectives as C

    if collective == "bcast":
        return C.bcast_binomial
    if collective == "gather":
        return C.gather_binomial
    if collective == "scatter":
        return C.scatter_binomial
    if collective == "allgather":
        return (C.allgather_recursive_doubling if is_pow2(size)
                else C.allgather_bruck)
    if collective == "allreduce":
        return C.allreduce_recursive_doubling
    if collective == "reduce":
        return C.reduce_binomial
    if collective == "alltoall":
        return C.alltoall_bruck
    if collective == "reduce_scatter":
        return (C.reduce_scatter_recursive_halving if is_pow2(size)
                else C.reduce_scatter_reduce_then_scatter)
    if collective == "barrier":
        return C.barrier_dissemination
    if collective == "scan":
        return C.scan_recursive_doubling
    if collective == "exscan":
        return C.exscan_linear
    if collective == "gatherv":
        return C.gatherv_linear
    if collective == "scatterv":
        return C.scatterv_linear
    if collective == "allgatherv":
        return C.allgatherv_ring
    if collective == "alltoallv":
        return C.alltoallv_pairwise
    raise KeyError(
        f"no split-communicator algorithm for {collective!r}"
    )
