"""The dormant FT runtime is free: ``ft=True`` with no fault plan must
be **byte- and timestamp-identical** to ``ft=False`` — on both engine
paths.  Arming only happens when a fault plan exists; without one, not
a single control message, timeout, or extra generator frame may leak
into the simulation.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.machine import small_test

PARAMS = small_test(nodes=2, ppn=2)


def _app(comm):
    send = np.full(8, float(comm.rank + 1), dtype=np.float64)
    recv = np.empty_like(send)
    yield from comm.Allreduce(send, recv)
    gath = np.zeros(8 * comm.size, dtype=np.float64)
    yield from comm.Allgather(send, gath)
    yield from comm.Barrier()
    return comm.now, recv.copy(), gath.copy()


def _run(ft, fast):
    # fast: the default calendar engine (fast path on); else the
    # reference engine.
    session = Session(library="PiP-MColl", params=PARAMS, trace=False,
                      ft=ft, engine="calendar" if fast else "reference")
    result = session.run(_app)
    return result


@pytest.mark.parametrize("fast", [True, False])
def test_dormant_ft_is_timestamp_identical(fast):
    off = _run(False, fast)
    on = _run(True, fast)
    assert on.elapsed == off.elapsed
    for (t_on, r_on, g_on), (t_off, r_off, g_off) in zip(on.values,
                                                         off.values):
        assert t_on == t_off  # per-rank finish instants, exactly
        assert np.array_equal(r_on, r_off)
        assert np.array_equal(g_on, g_off)


def test_dormant_ft_identical_across_engine_paths():
    fast = _run(True, True)
    slow = _run(True, False)
    assert fast.elapsed == slow.elapsed
    for (t_f, r_f, g_f), (t_s, r_s, g_s) in zip(fast.values, slow.values):
        assert t_f == t_s
        assert np.array_equal(r_f, r_s)


def test_dormant_ft_spawns_nothing():
    result = _run(True, True)
    ft = result.world.ft
    assert ft is not None and not ft.armed
    assert not ft.recoveries and not ft.delivery_errors
    assert not ft._started  # no responders, no pings, no epochs
    assert not ft._epoch_comms


def test_armed_but_clean_run_commits_nothing():
    """With a plan whose crash never fires in-window, the FT machinery
    is live (responders, final drain) but records no recoveries and
    the results stay byte-identical to the unarmed run."""
    from repro.faults import FaultPlan

    plan = FaultPlan(seed=1).crash(3, at_time=1e9)
    armed = Session(library="PiP-MColl", params=PARAMS, trace=False,
                    ft=True, faults=plan, reliable=True).run(_app)
    off = _run(False, True)
    assert not armed.world.ft.recoveries
    for (t_a, r_a, g_a), (t_o, r_o, g_o) in zip(armed.values, off.values):
        assert np.array_equal(r_a, r_o)
        assert np.array_equal(g_a, g_o)
