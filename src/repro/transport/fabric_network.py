"""Inter-node transport routed through a fat-tree fabric.

Same endpoint behaviour as :class:`NetworkTransport` (eager/rendezvous,
NIC pipes, injection overheads); the transit between NICs additionally
crosses the fabric: leaf hop for intra-pod traffic, leaf → uplink →
spine → downlink → leaf for inter-pod traffic, with the uplink pipes
enforcing the pod's (possibly oversubscribed) aggregate bandwidth.
"""

from __future__ import annotations

from ..machine.fabric import Fabric
from ..machine.hardware import NodeHardware
from .base import WireDescriptor
from .network import NetworkTransport, _eager_arrive


def _fabric_at_spine(arg):
    """Fast-path hop: pod downlink → destination leaf → NIC arrival."""
    _up, down, fp, up_time, world, arrive_arg = arg
    at_leaf = down.down.reserve(up_time) + fp.leaf_latency
    world.sim.call_at(at_leaf, _eager_arrive, arrive_arg)


def _fabric_at_leaf(arg):
    """Fast-path hop: source leaf → pod uplink → spine."""
    up, _down, fp, up_time, world, _arrive_arg = arg
    at_spine = up.up.reserve(up_time) + fp.spine_latency
    world.sim.call_at(at_spine, _fabric_at_spine, arg)


class FabricNetworkTransport(NetworkTransport):
    """LogGP endpoints + fat-tree transit."""

    name = "fabric_network"

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric

    def schedule_delivery(self, src_node: NodeHardware, dst_node: NodeHardware,
                          desc: WireDescriptor, on_delivered):
        nic = src_node.params.nic
        fabric = self.fabric
        lead = 0.0
        if not self._is_eager(src_node, desc):
            lead = nic.rendezvous_overhead + 2.0 * nic.latency
        wire = nic.wire_time(desc.nbytes)
        src_pod = fabric.pod_of(src_node.node_id)
        dst_pod = fabric.pod_of(dst_node.node_id)
        src_node.tx_messages += 1

        if src_pod == dst_pod:
            # NIC → leaf → NIC.
            on_wire = src_node.tx.occupy(
                wire, lead_delay=lead, tail_delay=fabric.fp.leaf_latency)

            def _arrived(_ev):
                dst_node.rx_messages += 1
                done = dst_node.rx.occupy(wire)
                done.callbacks.append(lambda _e: on_delivered())

            on_wire.callbacks.append(_arrived)
            return on_wire

        # NIC → leaf → uplink → spine → downlink → leaf → NIC.
        up = fabric.uplinks[src_pod]
        down = fabric.uplinks[dst_pod]
        up.bytes_up += desc.nbytes
        down.bytes_down += desc.nbytes
        up_time = fabric.uplink_time(desc.nbytes)
        on_wire = src_node.tx.occupy(
            wire, lead_delay=lead, tail_delay=fabric.fp.leaf_latency)

        def _at_leaf(_ev):
            crossed_up = up.up.occupy(up_time, tail_delay=fabric.fp.spine_latency)

            def _at_spine(_ev2):
                crossed_down = down.down.occupy(
                    up_time, tail_delay=fabric.fp.leaf_latency)

                def _at_dst_leaf(_ev3):
                    dst_node.rx_messages += 1
                    done = dst_node.rx.occupy(wire)
                    done.callbacks.append(lambda _e: on_delivered())

                crossed_down.callbacks.append(_at_dst_leaf)

            crossed_up.callbacks.append(_at_spine)

        on_wire.callbacks.append(_at_leaf)
        return on_wire

    def schedule_delivery_fast(self, src_node, dst_node, desc, world) -> bool:
        """Batched eager completion across the fat tree.

        Pod-local traffic costs two bare queue items (NIC arrival +
        RX drain), inter-pod traffic two more for the uplink/downlink
        hops — each hop's pipe reservation still happens at the exact
        instant the reference closure chain would make it, so fabric
        contention is priced identically.
        """
        wire_desc = desc.wire
        nic = src_node.params.nic
        if wire_desc.nbytes > nic.eager_limit:
            return False
        fabric = self.fabric
        fp = fabric.fp
        src_pod = fabric.pod_of(src_node.node_id)
        dst_pod = fabric.pod_of(dst_node.node_id)
        src_node.tx_messages += 1
        wire = nic.wire_time(wire_desc.nbytes)
        at_leaf = src_node.tx.reserve(wire) + fp.leaf_latency
        arrive_arg = (dst_node, wire, desc, world)
        if src_pod == dst_pod:
            world.sim.call_at(at_leaf, _eager_arrive, arrive_arg)
            return True
        up = fabric.uplinks[src_pod]
        down = fabric.uplinks[dst_pod]
        up.bytes_up += wire_desc.nbytes
        down.bytes_down += wire_desc.nbytes
        up_time = fabric.uplink_time(wire_desc.nbytes)
        world.sim.call_at(at_leaf, _fabric_at_leaf,
                          (up, down, fp, up_time, world, arrive_arg))
        return True

    def delivery_steps(self, src_node: NodeHardware, dst_node: NodeHardware,
                       desc: WireDescriptor):
        """Generator fallback (kept equivalent for the reference path)."""
        sim = src_node.sim
        nic = src_node.params.nic
        fabric = self.fabric
        if not self._is_eager(src_node, desc):
            yield sim.timeout(nic.rendezvous_overhead + 2.0 * nic.latency)
        yield src_node.inject(desc.nbytes)
        src_pod = fabric.pod_of(src_node.node_id)
        dst_pod = fabric.pod_of(dst_node.node_id)
        if src_pod == dst_pod:
            yield sim.timeout(fabric.fp.leaf_latency)
        else:
            up = fabric.uplinks[src_pod]
            down = fabric.uplinks[dst_pod]
            up.bytes_up += desc.nbytes
            down.bytes_down += desc.nbytes
            up_time = fabric.uplink_time(desc.nbytes)
            yield sim.timeout(fabric.fp.leaf_latency)
            yield up.up.occupy(up_time)
            yield sim.timeout(fabric.fp.spine_latency)
            yield down.down.occupy(up_time)
            yield sim.timeout(fabric.fp.leaf_latency)
        yield dst_node.extract(desc.nbytes)

    def describe(self) -> str:
        fp = self.fabric.fp
        return (f"fabric_network: fat-tree pods of {fp.pod_size}, "
                f"{fp.oversubscription:g}:1 oversubscription")
