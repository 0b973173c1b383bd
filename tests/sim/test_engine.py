"""Unit tests for the simulation engine and event primitives."""

import pytest

from repro.sim import (
    EventAlreadyTriggered,
    Interrupt,
    ParkSlot,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_at_fires_at_exact_absolute_time():
    sim = Simulator()
    seen = []

    def waiter(sim):
        ev = yield sim.event_at(0.3, value="hi")
        seen.append((sim.now, ev))

    sim.process(waiter(sim))
    sim.run()
    # 0.3 exactly — not 0.0 + (0.3 - 0.0) recomputed through a delta,
    # which is the ULP drift event_at exists to avoid.
    assert seen == [(0.3, "hi")]


def test_event_at_rejects_the_past():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.event_at(1.0)


def test_run_until_deadline_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(10.0)
    sim.run(until=5.0)
    assert sim.now == 5.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_process_returns_value():
    sim = Simulator()

    def job(sim):
        yield sim.timeout(1.0)
        return 42

    proc = sim.process(job(sim))
    sim.run()
    assert proc.triggered and proc.ok
    assert proc.value == 42
    assert sim.now == 1.0


def test_process_join_via_yield():
    sim = Simulator()
    order = []

    def child(sim):
        yield sim.timeout(2.0)
        order.append("child")
        return "payload"

    def parent(sim):
        value = yield sim.process(child(sim))
        order.append("parent")
        return value

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == "payload"
    assert order == ["child", "parent"]


def test_same_timestamp_events_fifo():
    sim = Simulator()
    order = []

    def job(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        sim.process(job(sim, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("boom"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim):
        try:
            yield ev
        except RuntimeError as exc:
            seen.append(str(exc))

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.process(waiter(sim))
    sim.process(failer(sim))
    sim.run()
    assert seen == ["boom"]


def test_unhandled_process_crash_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("crashed")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="crashed"):
        sim.run()


def test_crash_propagates_to_joiner_not_engine():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("crashed")

    def joiner(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(joiner(sim))
    sim.run()
    assert caught == ["crashed"]


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(TypeError, match="must yield Event"):
        sim.run()


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    assert ev.processed

    times = []

    def job(sim):
        yield sim.timeout(3.0)
        value = yield ev
        times.append((sim.now, value))

    sim.process(job(sim))
    sim.run()
    assert times == [(3.0, "x")]


def test_all_of_collects_values():
    sim = Simulator()
    results = []

    def job(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        got = yield t1 & t2
        results.append((sim.now, sorted(got.values())))

    sim.process(job(sim))
    sim.run()
    assert results == [(2.0, ["a", "b"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    results = []

    def job(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        got = yield t1 | t2
        results.append((sim.now, list(got.values())))

    sim.process(job(sim))
    sim.run()
    assert results == [(1.0, ["fast"])]
    assert sim.now == 5.0  # the slow timeout still drains


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    cond = sim.all_of([])
    assert cond.triggered
    assert cond.ok


def test_interrupt_detaches_from_waited_event():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield sim.timeout(1.0)
        log.append(("done", sim.now))

    proc = sim.process(sleeper(sim))

    def killer(sim):
        yield sim.timeout(2.0)
        proc.interrupt(cause="hurry")

    sim.process(killer(sim))
    sim.run()
    assert ("interrupted", 2.0, "hurry") in log
    assert ("done", 3.0) in log


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.5)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_event_count_increments():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.event_count == 2


def test_mixed_simulator_condition_rejected():
    sim1, sim2 = Simulator(), Simulator()
    e1, e2 = sim1.event(), sim2.event()
    with pytest.raises(ValueError):
        sim1.all_of([e1, e2])


# -- the heap scheduler ------------------------------------------------------


def test_same_instant_fifo_across_push_kinds():
    # Every push site takes the next sequence number, so entries due at
    # the same instant run in push order whatever their kind.
    sim = Simulator()
    order = []

    def proc(sim):
        order.append("kick-off")
        yield 1.0

    sim.timeout(1.0)  # move the clock so every push below lands at t=1
    sim.run()
    sim.call_at(1.0, order.append, "call_at")
    sim.event_at(1.0).callbacks.append(lambda _ev: order.append("event_at"))
    ev = sim.event()
    ev.callbacks.append(lambda _ev: order.append("succeed"))
    ev.succeed()
    sim.process(proc(sim))
    sim.call_in(0.0, order.append, "call_in")
    sim.run()
    assert order == ["call_at", "event_at", "succeed", "kick-off", "call_in"]
    assert sim.now == 2.0


def test_run_until_keeps_later_entries_queued():
    sim = Simulator()
    fired = []
    for when in (1.0, 2.0, 7.0):
        sim.call_at(when, fired.append, when)
    sim.run(until=5.0)
    assert fired == [1.0, 2.0] and sim.now == 5.0
    assert sim.peek() == 7.0 and sim.event_count == 2
    # An entry due exactly at ``until`` runs.
    sim.run(until=7.0)
    assert fired == [1.0, 2.0, 7.0] and sim.now == 7.0


def test_peek_on_a_drained_queue_is_inf():
    sim = Simulator()
    fired = []
    sim.call_in(0.5, fired.append, "x")
    assert sim.peek() == 0.5
    sim.run()
    assert fired == ["x"]
    assert sim.peek() == float("inf") and sim.event_count == 1


def test_call_at_rejects_the_past():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, [].append, "x")
    with pytest.raises(ValueError):
        sim.call_in(-1.0, [].append, "x")


# -- receive parking ---------------------------------------------------------


def test_park_slot_resumes_with_the_delivered_value():
    sim = Simulator()
    slot = ParkSlot()
    got = []

    def waiter(sim):
        got.append((yield slot))
        got.append(sim.now)

    sim.process(waiter(sim))
    sim.call_at(3.0, slot.succeed, "payload")
    sim.run()
    assert got == ["payload", 3.0]


def test_interrupting_a_parked_process_raises():
    # A parked process cannot be interrupted, like a float sleep: the
    # slot's holder (a matching engine) still owns the wake-up.  The
    # fast path that parks receives is off whenever faults are bound,
    # and only the fault-tolerance layer interrupts ranks.
    sim = Simulator()
    slot = ParkSlot()

    def waiter(sim):
        yield slot

    proc = sim.process(waiter(sim))
    sim.run()
    with pytest.raises(RuntimeError, match="parked on a fast-path slot"):
        proc.interrupt()
    slot.succeed()
    sim.run()
    assert proc.triggered


def _exchange(engine, offset, kind):
    """Per-rank timestamps of one two-rank exchange, and the receive
    regime rank 1 saw on ``engine``.

    Rank 1 starts ``offset`` seconds after rank 0.  ``kind`` is
    ``"eager"`` (rank 0 sends, rank 1 receives) or ``"sendrecv"``
    (both exchange on one intra-node pair).
    """
    from repro.machine import small_test
    from repro.runtime import World

    nodes, ppn = (2, 1) if kind == "eager" else (1, 2)
    world = World(small_test(nodes=nodes, ppn=ppn), engine=engine)
    delivered = {}
    forward = world.deliver

    def spy(desc):
        delivered[desc.dst_world] = world.sim.now
        forward(desc)

    world.deliver = spy
    d = world.params.cpu.dispatch_overhead

    def program(ctx):
        stamps = []
        buf = ctx.alloc(64)
        if ctx.rank == 1 and offset:
            yield from ctx.compute(offset)
        stamps.append(ctx.now)
        if kind == "eager":
            if ctx.rank == 0:
                yield from ctx.send(buf.view(), dst=1, tag=3)
            else:
                yield from ctx.recv(buf.view(), src=0, tag=3)
        else:
            peer = 1 - ctx.rank
            yield from ctx.sendrecv(buf.view(), peer, 3, ctx.alloc(64).view(),
                                    peer, 3)
        stamps.append(ctx.now)
        return stamps

    stamps = world.run(program)
    arrival, posted = delivered[1], offset + d
    flag = world.params.memory.flag_latency
    if arrival <= posted:
        regime = "claimed"
    elif kind == "sendrecv" and arrival < delivered[0] - flag:
        # Before rank 1 finished dispatching its own send, which
        # reaches rank 0 one flag hop after that.
        regime = "early"
    else:
        regime = "late"
    return stamps, regime, world.sim.event_count


@pytest.mark.parametrize("kind,grain", [("eager", 5e-8), ("sendrecv", 1e-8)])
def test_parked_receive_matches_the_reference_engine(kind, grain):
    # Sweep rank 1's head start across every regime its receive can
    # meet: the message already queued (claimed), arriving while the
    # rank still dispatches its own send (early), or after (late).
    regimes = set()
    for step in range(0, 80):
        offset = step * grain
        fast, regime, fast_events = _exchange("calendar", offset, kind)
        ref, _regime, _events = _exchange("reference", offset, kind)
        assert fast == ref, (kind, offset, regime)
        regimes.add(regime)
        if kind == "eager":
            # Ten events for one parked eager message (see
            # test_perf_budget); a claimed receive skips the wake-up,
            # rank 1's head start adds one.
            want_events = 10 - (regime == "claimed") + (offset > 0)
            assert fast_events == want_events, (offset, regime)
    want = {"claimed", "late"} | ({"early"} if kind == "sendrecv" else set())
    assert regimes == want
