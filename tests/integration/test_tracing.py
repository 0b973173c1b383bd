"""Trace-based verification: message counts and transport usage.

An independent correctness axis: for each algorithm we know exactly
how many messages must cross which transport.  A span recorder counts
them (one ``cat="message"`` span per delivered message), so an
algorithm silently doing extra (or missing) communication cannot pass
even if its bytes come out right.

Self-sends are delivered inline and do not appear as message spans.
"""

import math

from repro.collectives import (
    allgather_bruck,
    barrier_dissemination,
    bcast_binomial,
    gather_binomial,
    scatter_binomial,
)
from repro.core import mcoll_allgather, mcoll_scatter
from repro.core.multiobject import bruck_schedule
from repro.machine import small_test
from repro.obs import SpanRecorder
from repro.runtime import World
from repro.validate.checker import check_allgather, check_barrier, check_bcast, check_gather, check_scatter


def traced_world(nodes, ppn, intra="posix_shmem"):
    recorder = SpanRecorder()
    return World(small_test(nodes=nodes, ppn=ppn), intra=intra,
                 obs=recorder), recorder


def messages(recorder):
    return [s for s in recorder.spans if s.cat == "message"]


def test_binomial_bcast_message_count():
    world, recorder = traced_world(3, 2)
    check_bcast(world, bcast_binomial, 64)
    assert len(messages(recorder)) == world.comm_world.size - 1


def test_binomial_gather_message_count():
    world, recorder = traced_world(3, 2)
    check_gather(world, gather_binomial, 64)
    assert len(messages(recorder)) == world.comm_world.size - 1


def test_binomial_scatter_message_count():
    world, recorder = traced_world(2, 3)
    check_scatter(world, scatter_binomial, 64)
    assert len(messages(recorder)) == world.comm_world.size - 1


def test_bruck_allgather_message_count():
    world, recorder = traced_world(2, 2)
    check_allgather(world, allgather_bruck, 16)
    size = world.comm_world.size
    assert len(messages(recorder)) == size * math.ceil(math.log2(size))


def test_dissemination_barrier_message_count():
    world, recorder = traced_world(2, 3)
    check_barrier(world, barrier_dissemination)
    size = world.comm_world.size
    assert len(messages(recorder)) == size * math.ceil(math.log2(size))


def test_mcoll_allgather_message_count_and_transports():
    """The paper's core property, verified structurally: the
    multi-object allgather sends exactly the scheduled inter-node
    messages and *zero* intra-node messages (all local movement is
    direct shared-address-space copies)."""
    nodes, ppn = 5, 3
    world, recorder = traced_world(nodes, ppn, intra="pip")
    check_allgather(world, mcoll_allgather, 16)
    msgs = messages(recorder)
    expected = nodes * sum(
        len(bruck_schedule(nodes, ppn, rl)) for rl in range(ppn)
    )
    assert len(msgs) == expected
    assert all(m.attrs["transport"] == "network" for m in msgs)


def test_mcoll_scatter_transports():
    nodes, ppn = 3, 2
    world, recorder = traced_world(nodes, ppn, intra="pip")
    check_scatter(world, mcoll_scatter, 16)
    msgs = messages(recorder)
    # One slab per remote node, nothing else.
    assert len(msgs) == nodes - 1
    assert all(m.attrs["transport"] == "network" for m in msgs)
    assert all(m.attrs["nbytes"] == 16 * ppn for m in msgs)


def test_baseline_uses_intra_transport():
    world, recorder = traced_world(1, 4, intra="posix_shmem")
    check_bcast(world, bcast_binomial, 64)
    assert all(m.attrs["transport"] == "posix_shmem" for m in messages(recorder))


def test_world_stats_counters():
    from repro.collectives import allgather_bruck
    from repro.validate.checker import check_allgather

    world, _recorder = traced_world(2, 2)
    check_allgather(world, allgather_bruck, 64)
    stats = world.stats()
    # Bruck over 2x2: 6 of the 8 messages cross the network.
    assert stats["rx_messages"] == stats["tx_messages"] > 0
    assert stats["tx_busy_s"] > 0
    assert stats["membus_busy_s"] > 0
    assert stats["sim_time_s"] > 0
    assert stats["sim_events"] > 50
    assert "interpod_bytes" not in stats  # no fabric attached


def test_world_stats_with_fabric():
    from repro.collectives import allgather_bruck
    from repro.machine import FabricParams, small_test
    from repro.runtime import World
    from repro.validate.checker import check_allgather

    world = World(small_test(nodes=4, ppn=1),
                  fabric=FabricParams(pod_size=2))
    check_allgather(world, allgather_bruck, 64)
    assert world.stats()["interpod_bytes"] > 0



def test_chrome_trace_export():
    import json

    from repro.obs import to_perfetto

    world, recorder = traced_world(2, 2)
    check_bcast(world, bcast_binomial, 64)
    events = to_perfetto(recorder.tree(), world.node_of())["traceEvents"]
    msg_events = [e for e in events if e.get("cat") == "message"]
    assert len(msg_events) == world.comm_world.size - 1
    for e in msg_events:
        assert e["ph"] == "X"
        assert e["ts"] >= 0
        assert "nbytes" in e["args"]
    json.dumps(events)  # must be serialisable as-is
