"""LogGP attribution: components sum to the measured window exactly,
model diffs are sane, and critical-path hops name the resource they
waited on.

The headline invariant (ISSUE acceptance): for every collective ×
library of the pinned differential geometry, the per-component
decomposition sums to the measured sim time within 1 µs — in fact the
sequential-min allocation makes it exact, and ``Attribution.check``
asserts the tighter bound.
"""

from __future__ import annotations

import pytest

from repro.bench.breakdown import measure_attribution
from repro.machine import broadwell_opa
from repro.mpilibs import COLLECTIVES, PAPER_LINEUP
from repro.obs import COMPONENTS, SpanRecorder, attribute, critical_path
from repro.obs.attribution import RESOURCE_OF


# ---------------------------------------------------------------------------
# Exactness across the pinned matrix (collectives × libraries, 2×2)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("library", PAPER_LINEUP)
@pytest.mark.parametrize("collective", COLLECTIVES)
def test_attribution_sums_to_measured(collective, library):
    params = broadwell_opa(nodes=2, ppn=2)
    att = measure_attribution(library, collective, 64, params,
                              functional=True)
    att.check(tolerance=1e-6)  # the ±1 µs acceptance bound
    # Exact by construction: residual is floating-point noise only.
    assert abs(att.residual()) < 1e-12
    # Every component is non-negative and known.
    for name, value in att.terms.items():
        assert name in COMPONENTS
        assert value >= -1e-15, (name, value)
    # A dominant term is named and maps to a resource.
    assert att.dominant in COMPONENTS
    assert att.dominant_resource == RESOURCE_OF[att.dominant]


def test_rounds_partition_the_network_time():
    """Round-level terms sum to the round's measured share."""
    params = broadwell_opa(nodes=4, ppn=4)
    att = measure_attribution("PiP-MColl", "allgather", 64, params,
                              functional=True)
    assert att.rounds, "multi-round collective must expose rounds"
    for rnd in att.rounds:
        assert abs(sum(rnd.terms.values()) - rnd.measured) < 1e-12
        assert rnd.dominant in COMPONENTS


def test_model_diff_reports_all_components():
    params = broadwell_opa(nodes=2, ppn=2)
    att = measure_attribution("MPICH", "allgather", 256, params,
                              functional=True)
    diff = att.diff()
    assert set(diff) == set(COMPONENTS)
    # Measured L can never exceed the unclipped model prediction by
    # construction of the sequential-min allocation.
    assert att.terms["L"] <= att.model["L"] + 1e-12


def test_as_dict_round_trips_the_headline_numbers():
    params = broadwell_opa(nodes=2, ppn=2)
    att = measure_attribution("OpenMPI", "bcast", 64, params,
                              functional=True)
    d = att.as_dict()
    assert d["collective"] == "bcast"
    assert d["measured_s"] == pytest.approx(att.measured)
    assert d["dominant"] == att.dominant
    assert sum(d["terms_s"].values()) == pytest.approx(att.measured)


# ---------------------------------------------------------------------------
# Critical-path resource annotation
# ---------------------------------------------------------------------------
def _traced_tree(library, collective, nbytes, params):
    from repro.bench.harness import _buffers, _invoke
    from repro.mpilibs import make_library

    lib = make_library(library)
    recorder = SpanRecorder()
    world = lib.make_world(params, functional=True, obs=recorder)
    size = world.comm_world.size
    algo = lib.wrapped(collective, nbytes, size)

    def program(ctx):
        bufs = _buffers(ctx, collective, nbytes, size, 0)
        yield from _invoke(algo, ctx, bufs, collective, 0)

    world.run(program)
    return recorder.tree()


def test_critical_path_hops_name_waited_resource():
    params = broadwell_opa(nodes=2, ppn=2)
    tree = _traced_tree("PiP-MColl", "allgather", 64, params)
    path = critical_path(tree, collective="allgather", params=params)
    assert path.hops
    for hop in path.hops:
        assert hop.waited_on in set(RESOURCE_OF.values()), hop
    assert "waited on" in path.describe()


def test_critical_path_unannotated_without_params():
    params = broadwell_opa(nodes=2, ppn=2)
    tree = _traced_tree("MPICH", "allgather", 64, params)
    path = critical_path(tree, collective="allgather")
    assert all(hop.waited_on is None for hop in path.hops)


def test_attribute_uses_the_critical_path_window():
    params = broadwell_opa(nodes=2, ppn=2)
    tree = _traced_tree("MPICH", "allgather", 64, params)
    att = attribute(tree, "allgather", params)
    att.check(tolerance=1e-6)
    assert att.path is not None
    assert att.end_time >= att.start_time
