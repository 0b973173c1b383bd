"""Tests for the fat-tree fabric model."""

import pytest

from repro.collectives import allgather_bruck
from repro.machine import FabricParams, small_test
from repro.machine.fabric import Fabric
from repro.runtime import World
from repro.sim import Simulator
from repro.validate.checker import check_allgather


def test_fabric_params_validation():
    with pytest.raises(ValueError):
        FabricParams(pod_size=0)
    with pytest.raises(ValueError):
        FabricParams(oversubscription=0.5)
    with pytest.raises(ValueError):
        FabricParams(leaf_latency=-1.0)


def test_pod_arithmetic():
    params = small_test(nodes=5, ppn=1)
    fabric = Fabric(Simulator(), params, FabricParams(pod_size=2))
    assert fabric.n_pods == 3
    assert fabric.pod_of(0) == 0 and fabric.pod_of(3) == 1 and fabric.pod_of(4) == 2


def test_uplink_capacity_scales_with_pod_size():
    params = small_test(nodes=4, ppn=1)
    nonblocking = Fabric(Simulator(), params, FabricParams(pod_size=4))
    oversubscribed = Fabric(
        Simulator(), params, FabricParams(pod_size=4, oversubscription=4.0))
    assert oversubscribed.uplink_time(4096) == pytest.approx(
        4 * nonblocking.uplink_time(4096))


def test_intra_pod_cheaper_than_inter_pod():
    """Same payload, same machine: crossing the spine costs more."""
    fp = FabricParams(pod_size=2)
    world = World(small_test(nodes=4, ppn=1), fabric=fp, functional=False)

    def program(ctx):
        buf = ctx.alloc(512)
        t0 = ctx.now
        if ctx.rank == 0:
            yield from ctx.send(buf.view(), dst=1, tag=0)  # same pod
            yield from ctx.send(buf.view(), dst=2, tag=1)  # other pod
        elif ctx.rank == 1:
            yield from ctx.recv(buf.view(), src=0, tag=0)
            return ctx.now - t0
        elif ctx.rank == 2:
            yield from ctx.recv(buf.view(), src=0, tag=1)
            return ctx.now - t0
        return None

    results = world.run(program)
    assert results[2] > results[1]
    assert world.fabric.total_interpod_bytes() == 512


def test_oversubscription_throttles_aggregate_bandwidth():
    """Many simultaneous inter-pod streams: an 8:1 fabric is uplink-
    bound while a non-blocking one stays NIC-bound."""
    times = {}
    nbytes = 16384
    streams = 8
    for oversub in (1.0, 8.0):
        fp = FabricParams(pod_size=8, oversubscription=oversub)
        world = World(small_test(nodes=16, ppn=1), fabric=fp, functional=False)

        def program(ctx):
            buf = ctx.alloc(nbytes)
            yield from ctx.hard_sync()
            t0 = ctx.now
            if ctx.rank < streams:  # pod 0 blasts pod 1
                yield from ctx.send(buf.view(), dst=ctx.rank + streams, tag=0)
                return None
            yield from ctx.recv(buf.view(), src=ctx.rank - streams, tag=0)
            return ctx.now - t0

        times[oversub] = max(t for t in world.run(program) if t is not None)
    # Extra uplink serialisation ≈ streams × per-message uplink-time
    # difference (coarse: arrival staggering shifts it slightly).
    delta = times[8.0] - times[1.0]
    expected = streams * nbytes * 8e-11 * (1 - 1.0 / 8)
    assert delta == pytest.approx(expected, rel=0.3)
    assert times[8.0] > 1.5 * times[1.0]


def test_collectives_still_correct_over_fabric():
    fp = FabricParams(pod_size=2, oversubscription=2.0)
    world = World(small_test(nodes=4, ppn=2), fabric=fp)
    check_allgather(world, allgather_bruck, 32)


def test_mcoll_still_correct_over_fabric():
    from repro.core import mcoll_allgather

    fp = FabricParams(pod_size=2, oversubscription=2.0)
    world = World(small_test(nodes=5, ppn=3), intra="pip", fabric=fp)
    check_allgather(world, mcoll_allgather, 32)


def test_fabric_generator_path_matches_callback_path():
    """delivery_steps (reference) and schedule_delivery (fast) agree."""
    from repro.machine import ClusterHardware
    from repro.transport import WireDescriptor
    from repro.transport.fabric_network import FabricNetworkTransport

    params = small_test(nodes=4, ppn=1)
    fp = FabricParams(pod_size=2)
    desc = WireDescriptor(src=0, dst=2, nbytes=4096)

    def timed(use_callback):
        sim = Simulator()
        hw = ClusterHardware(sim, params)
        net = FabricNetworkTransport(Fabric(sim, params, fp))
        out = {}
        if use_callback:
            net.schedule_delivery(hw[0], hw[2], desc,
                                  lambda: out.setdefault("t", sim.now))
        else:
            def driver(sim):
                yield from net.delivery_steps(hw[0], hw[2], desc)
                out["t"] = sim.now

            sim.process(driver(sim))
        sim.run()
        return out["t"]

    assert timed(True) == pytest.approx(timed(False))
