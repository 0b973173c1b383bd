"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q

Fast: nothing here runs a simulation.
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
from layers import layer_of, layer_shares  # noqa: E402
from shim_apps import TimedComm, mesh_shape  # noqa: E402
from stats import (MIN_BEYOND, Tally, nearest_rank, pass_orders,  # noqa: E402
                   spread, tail_ready)
from workloads import WORKLOADS, cross_check, load_expected  # noqa: E402


# -- the tail percentile ------------------------------------------------------
def test_p90_of_100_samples_rests_on_ten_beyond_it():
    value, beyond = nearest_rank(range(1, 101), 0.9)
    assert (value, beyond) == (90, 10)
    assert tail_ready(100, 0.9)


def test_p90_of_99_samples_has_too_thin_a_tail():
    _, beyond = nearest_rank(range(1, 100), 0.9)
    assert beyond == 9 < MIN_BEYOND
    assert not tail_ready(99, 0.9)
    assert not tail_ready(0, 0.9)


def test_nearest_rank_median_and_order_independence():
    assert nearest_rank([5, 1, 3], 0.5) == (3, 1)
    assert nearest_rank([7.0], 0.9) == (7.0, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.4, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    got = spread(values)
    assert got == {"median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med}


# -- failed / attempted -------------------------------------------------------
def test_tally_counts_every_op_of_a_bad_cell_as_failed():
    tally = Tally()
    tally.record(1, True)
    tally.record(12, False, "kmeans: rank output differs")
    tally.record(3, True)
    assert (tally.attempted, tally.failed) == (16, 12)
    assert tally.reasons == ["kmeans: rank output differs"]
    assert not tally.correct


def test_tally_needs_an_op_to_be_correct():
    tally = Tally()
    assert not tally.correct
    tally.record(5, True)
    assert tally.correct
    with pytest.raises(ValueError):
        tally.record(0, True)


# -- seed-driven cell order ---------------------------------------------------
def _take(orders, n):
    return [next(orders) for _ in range(n)]


def test_same_seed_same_order_and_every_pass_is_a_permutation():
    cells = [f"c{i}" for i in range(18)]
    first = _take(pass_orders(cells, 7), 4)
    assert first == _take(pass_orders(cells, 7), 4)
    for order in first:
        assert sorted(order) == sorted(cells)
    assert len({tuple(o) for o in first}) > 1  # passes differ


def test_seed_changes_order_not_content():
    cells = list(range(24))
    a = next(pass_orders(cells, 1))
    b = next(pass_orders(cells, 2))
    assert a != b and sorted(a) == sorted(b) == cells


# -- layer attribution --------------------------------------------------------
@pytest.mark.parametrize("filename,layer", [
    ("/x/src/repro/sim/engine.py", "sim"),
    ("/x/src/repro/core/multiobject.py", "collectives_core"),
    ("/x/src/repro/collectives/bcast.py", "collectives_core"),
    ("/x/src/repro/api.py", "api"),
    ("/x/src/repro/cli.py", "repro_other"),
    ("/x/src/repro/service/cache.py", "repro_other"),
    ("/x/perfbench/shim_apps.py", "app"),
    ("/x/examples/mpi4py_kmeans.py", "app"),
    ("/usr/lib/python3.11/heapq.py", None),
    ("~", None),
])
def test_layer_of(filename, layer):
    assert layer_of(filename) == layer


class _FakeStats:
    """The ``pstats.Stats.stats`` shape: func -> (cc, nc, tt, ct, callers)."""

    def __init__(self, stats):
        self.stats = stats


def test_library_self_time_is_charged_to_its_callers():
    sim = ("/r/repro/sim/engine.py", 1, "run")
    rt = ("/r/repro/runtime/context.py", 1, "send")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3.11/queue.py", 1, "put")
    stats = _FakeStats({
        sim: (1, 1, 4.0, 10.0, {}),
        rt: (1, 1, 2.0, 3.0, {sim: (1, 1, 2.0, 3.0)}),
        # 3 s of heappush: 2 s called from sim, 1 s from runtime
        heap: (3, 3, 3.0, 3.0, {sim: (2, 2, 2.0, 2.0),
                                rt: (1, 1, 1.0, 1.0)}),
        # library code called only by library code called by runtime
        helper: (1, 1, 1.0, 1.0, {heap: (1, 1, 1.0, 1.0)}),
    })
    shares = layer_shares(stats)
    # helper's 1 s follows heappush's callers' split: 2/3 sim, 1/3 runtime
    assert shares["sim"] == pytest.approx((4 + 2 + 2 / 3) / 10)
    assert shares["runtime"] == pytest.approx((2 + 1 + 1 / 3) / 10)
    assert sum(shares.values()) == pytest.approx(1.0)


# -- the shim call wrapper ----------------------------------------------------
class _Comm:
    size = 4

    def Get_rank(self):
        return 3

    def bcast(self, value, root=0):
        return value


def test_timed_comm_times_only_mpi_calls_on_the_timed_rank():
    sink = []
    comm = TimedComm(_Comm(), sink)
    assert comm.Get_rank() == 3 and comm.size == 4
    assert comm.bcast({"a": 1}) == {"a": 1}
    assert [name for name, _ in sink] == ["bcast"]
    assert sink[0][1] >= 0.0
    quiet = TimedComm(_Comm(), None)
    assert quiet.bcast(5) == 5


@pytest.mark.parametrize("size,shape", [(144, (12, 12)), (16, (4, 4)),
                                        (18, (3, 6)), (7, (1, 7))])
def test_mesh_shape(size, shape):
    assert mesh_shape(size) == shape


# -- expected values ----------------------------------------------------------
def test_expected_values_cover_every_cell_and_match_the_repo_records():
    expected = load_expected()
    for cls in WORKLOADS.values():
        assert set(cls().cells) <= set(expected), cls.name
    assert cross_check(expected) == []


def test_cross_check_flags_a_drifted_fig1_value():
    expected = {"PiP-MColl/scatter/256B@128x18":
                {"counters": {"latency_us": 51.3}}}
    assert len(cross_check(expected)) == 1


# -- host-speed probe ---------------------------------------------------------
def test_probe_runs_its_fixed_event_count_and_scales_by_the_median():
    assert hostspeed.probe() > 0.0  # raises if the event count drifted
    meter = hostspeed.SpeedMeter()
    meter.samples = [0.04, 0.01, 0.02]
    assert meter.scale() == pytest.approx(hostspeed.REF_SECONDS / 0.02)
