"""Event-count regression guards.

The simulator's wall-clock cost is proportional to processed events,
and event counts are deterministic — so these tests pin them
*exactly*.  An accidental choreography change (say, a per-chunk event
loop creeping back in) fails here at once; an intentional one updates
the golden in the same change and says why in CHANGES.md.
"""

from repro.bench.harness import _buffers, _invoke
from repro.machine import broadwell_opa, small_test
from repro.mpilibs import make_library


def events_for(lib_name, collective, nbytes, params):
    lib = make_library(lib_name)
    world = lib.make_world(params, functional=False)
    size = world.comm_world.size
    algo = lib.wrapped(collective, nbytes, size)

    def program(ctx):
        bufs = _buffers(ctx, collective, nbytes, size, 0)
        yield from _invoke(algo, ctx, bufs, collective, 0)

    world.run(program)
    return world.sim.event_count, size


def test_eager_message_event_budget():
    world = make_library("MPICH").make_world(small_test(nodes=2, ppn=1),
                                             functional=False)

    def program(ctx):
        buf = ctx.alloc(64)
        if ctx.rank == 0:
            yield from ctx.send(buf.view(), dst=1, tag=0)
        else:
            yield from ctx.recv(buf.view(), src=0, tag=0)

    world.run(program)
    # One eager message: two process kick-offs, the send dispatch, NIC
    # arrival, RX drain (delivery), the recv dispatch, the match and
    # the receiver-side copy-out, plus the two join events.
    assert world.sim.event_count == 10, world.sim.event_count


def test_flat_bruck_event_budget_per_message():
    events, size = events_for("MPICH", "allgather", 64,
                              broadwell_opa(nodes=16, ppn=6))
    import math

    messages = size * math.ceil(math.log2(size))
    assert messages == 672
    # 6.57 events per Bruck message.
    assert events == 4416, f"{events / messages:.2f} events per message"


def test_mcoll_allgather_event_budget():
    events, size = events_for("PiP-MColl", "allgather", 64,
                              broadwell_opa(nodes=16, ppn=6))
    # 2 rounds × 96 messages + barriers + copies: 14.7 events per rank.
    assert events == 1408, f"{events} events for {size} ranks"


def test_full_scale_mcoll_stays_under_a_million_events():
    """The paper-scale PiP-MColl allgather must stay cheap to simulate
    (it is the point that gets re-run hundreds of times)."""
    events, size = events_for("PiP-MColl", "allgather", 64, broadwell_opa())
    assert size == 2304
    assert events == 31232, events
