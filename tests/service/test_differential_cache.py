"""Differential contract: the cache path IS the direct path, in bytes.

A pinned matrix (paper-lineup subset × Fig.2-style sizes) runs through
``run_sweep`` three ways — direct, cold-cache, warm-cache — plus a
mixed run where half the grid is pre-warmed and half is cold, on both
the calendar and reference engines.  Every BenchRecord must be
byte-identical to the direct run's; a cache that changes a single bit
of a result is worse than no cache.
"""

import json

import pytest

from repro.bench import run_sweep
from repro.machine import small_test
from repro.service import ResultCache, SweepJobQueue, SweepRequest

PARAMS = small_test()

#: pinned differential matrix — changing it invalidates recorded
#: expectations, so keep it boring and small
LIBRARIES = ["MPICH", "OpenMPI", "PiP-MColl"]
SIZES = [16, 64, 256]
COLLECTIVE = "allgather"

ENGINES = [None, "reference"]


def _records(sweep):
    return {
        key: json.dumps(point.to_record().as_dict(), sort_keys=True)
        for key, point in sweep.points.items()
    }


def _direct(engine):
    return _records(run_sweep(COLLECTIVE, SIZES, PARAMS,
                              libraries=LIBRARIES, engine=engine))


@pytest.mark.parametrize("engine", ENGINES,
                         ids=["calendar", "reference"])
def test_cold_then_warm_match_direct(tmp_path, engine):
    want = _direct(engine)
    cache = ResultCache(tmp_path / "c")

    cold = run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=LIBRARIES,
                     engine=engine, cache=cache)
    assert _records(cold) == want
    assert cache.stats.hits == 0
    assert cache.stats.writes == len(want)

    warm = run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=LIBRARIES,
                     engine=engine, cache=cache)
    assert _records(warm) == want
    assert cache.stats.hits == len(want)
    assert cache.stats.writes == len(want)  # nothing rewritten


@pytest.mark.parametrize("engine", ENGINES,
                         ids=["calendar", "reference"])
def test_mixed_cold_warm_concurrent_matches_direct(tmp_path, engine):
    want = _direct(engine)
    cache = ResultCache(tmp_path / "c")
    # Pre-warm half the grid (one library's row) ...
    SweepJobQueue(cache=cache).run([
        SweepRequest(library=LIBRARIES[0], collective=COLLECTIVE,
                     nbytes=n, params=PARAMS, engine=engine)
        for n in SIZES
    ])
    warmed = cache.stats.writes
    # ... then sweep the full grid with forked workers: hits and
    # misses interleave and the cold cells execute concurrently.
    mixed = run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=LIBRARIES,
                      engine=engine, cache=cache, workers=2)
    assert _records(mixed) == want
    assert cache.stats.hits == warmed
    assert cache.stats.writes == len(want)


def test_engines_never_share_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    run_sweep(COLLECTIVE, [64], PARAMS, libraries=["MPICH"],
              engine=None, cache=cache)
    run_sweep(COLLECTIVE, [64], PARAMS, libraries=["MPICH"],
              engine="reference", cache=cache)
    # byte-identical results, but separate entries: a cached calendar
    # record must never mask a reference-engine regression
    assert len(cache) == 2


def test_tuned_library_round_trips_through_the_cache(tmp_path):
    from pathlib import Path

    db = (Path(__file__).parent.parent / "tuner" / "fixtures" /
          "small_test_allgather.tunedb.json")
    spec = f"tuned:{db}"
    want = _records(run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=[spec]))
    cache = ResultCache(tmp_path / "c")
    run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=[spec], cache=cache)
    warm = run_sweep(COLLECTIVE, SIZES, PARAMS, libraries=[spec],
                     cache=cache)
    assert _records(warm) == want
    assert cache.stats.hits == len(SIZES)
