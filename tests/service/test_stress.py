"""Concurrency stress: N processes hammer one cache directory.

Four fork-context processes release from a barrier simultaneously and
each runs the same sweep grid against one shared ``ResultCache``.
Races across *processes* are benign by design (the simulator is
deterministic, so concurrent writers of a key write the same bytes,
and ``os.replace`` keeps every read old-or-new, never torn) — but
within each process the dedup window must hold, every process must
come home with the complete, byte-identical result set, and the cache
must end up fully intact.

On under-provisioned runners (below ``GATE_CORES`` cores) the
four-process stress gate skips, with the reason recorded in the skip
message, instead of pretending single-core interleaving stresses
anything.  A two-process companion runs everywhere, so the same
invariants are asserted on any core count.
"""

import json
import multiprocessing
import os

import pytest

from repro.machine import small_test
from repro.service import ResultCache, SweepJobQueue, SweepRequest

PARAMS = small_test()

#: processes hammering the shared cache directory
HAMMERS = 4
#: below this many cores, concurrency is theatre
GATE_CORES = 4

LIBRARIES = ["MPICH", "PiP-MColl"]
SIZES = [16, 64, 256]

needs_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < GATE_CORES,
    reason=f"stress gate needs >= {GATE_CORES} cores to run "
           f"{HAMMERS} hammer processes side by side",
)


def _grid():
    return [SweepRequest(library=lib, collective="allgather", nbytes=n,
                         params=PARAMS)
            for lib in LIBRARIES for n in SIZES]


def _hammer(cache_dir, barrier, out, idx):
    barrier.wait()  # maximise overlap: everyone starts together
    queue = SweepJobQueue(cache=cache_dir)
    points = queue.run(_grid())
    out.put((idx, queue.stats.computed_keys,
             [json.dumps(p.to_record().as_dict(), sort_keys=True)
              for p in points]))


def _assert_stampede_invariants(tmp_path, hammers):
    """``hammers`` processes run the grid against one cache directory
    at once; every invariant of the module docstring must hold."""
    ctx = multiprocessing.get_context("fork")
    cache_dir = tmp_path / "shared"
    barrier = ctx.Barrier(hammers)
    out = ctx.Queue()
    procs = [ctx.Process(target=_hammer,
                         args=(cache_dir, barrier, out, i))
             for i in range(hammers)]
    for p in procs:
        p.start()
    results = {}
    for _ in range(hammers):
        idx, computed_keys, records = out.get(timeout=120)
        results[idx] = (computed_keys, records)
    for p in procs:
        p.join(timeout=30)
        assert p.exitcode == 0

    grid = _grid()
    # -- complete, byte-identical result sets --------------------------
    assert set(results) == set(range(hammers))
    reference = results[0][1]
    assert len(reference) == len(grid)
    for idx in range(1, hammers):
        assert results[idx][1] == reference

    # -- dedup window held inside every process ------------------------
    for computed_keys, _ in results.values():
        assert None not in computed_keys  # every cell was addressable
        assert len(computed_keys) == len(set(computed_keys))
        assert len(computed_keys) <= len(grid)

    # -- the shared cache is complete and nothing is torn --------------
    cache = ResultCache(cache_dir)
    keys = list(cache.keys())
    assert len(keys) == len(grid)
    for key in keys:
        assert cache.get(key) is not None
    assert cache.stats.hits == len(grid)
    assert cache.stats.corrupt == 0
    assert cache.stats.stale == 0
    # no stray temp files survived the races
    stray = [p for p in cache.dir.rglob("*") if p.suffix == ".tmp"]
    assert stray == []


@needs_cores
def test_hammering_one_cache_dir(tmp_path):
    _assert_stampede_invariants(tmp_path, HAMMERS)


def test_two_hammers_on_any_core_count(tmp_path):
    # The ungated companion: two processes still race on every key,
    # so the invariants are checked even where the gate above skips.
    _assert_stampede_invariants(tmp_path, 2)


@needs_cores
def test_warm_cache_after_the_stampede_is_all_hits(tmp_path):
    ctx = multiprocessing.get_context("fork")
    cache_dir = tmp_path / "shared"
    barrier = ctx.Barrier(2)
    out = ctx.Queue()
    procs = [ctx.Process(target=_hammer, args=(cache_dir, barrier, out, i))
             for i in range(2)]
    for p in procs:
        p.start()
    for _ in range(2):
        out.get(timeout=120)
    for p in procs:
        p.join(timeout=30)
    queue = SweepJobQueue(cache=cache_dir)
    queue.run(_grid())
    assert queue.stats.hits == len(_grid())
    assert queue.stats.computed == 0
