"""EngineSpec resolution: the two engine names, the one downgrade rule,
and the removed selectors.

The heavyweight byte-exactness gate (reference vs calendar) lives in
``tests/validate/test_differential.py``; here we pin the resolution
contract directly.
"""

import pytest

from repro.bench import bench_collective
from repro.machine import small_test
from repro.mpilibs import make_library
from repro.runtime import World
from repro.sim.spec import ENGINE_NAMES, EngineSpec, resolve_engine


def test_engine_names_resolve():
    assert resolve_engine("reference").name == "reference"
    assert resolve_engine("reference").queue == "heap"
    assert not resolve_engine("reference").fastpath

    cal = resolve_engine("calendar")
    assert cal.name == "calendar" and cal.queue == "calendar" and cal.fastpath
    assert cal.requested == "calendar" and cal.downgrades == ()


def test_unknown_engine_and_bad_suffix_raise():
    # The spellings of the removed sharded/analytic engines are unknown
    # names like any other, and the error names what is available.
    for text in ("warpdrive", "calendar:4", "sharded", "sharded:8x2",
                 "analytic"):
        with pytest.raises(ValueError, match="unknown engine") as err:
            resolve_engine(text)
        assert "available: reference, calendar" in str(err.value), text


def test_legacy_kwargs_are_rejected():
    # engine= is the only way to pick an engine, on every entry point.
    params = small_test()
    with pytest.raises(TypeError):
        resolve_engine("calendar", queue="heap")
    with pytest.raises(TypeError):
        World(params, fastpath=False)
    with pytest.raises(TypeError):
        World(params, queue="heap")
    with pytest.raises(TypeError):
        make_library("MPICH").make_world(params, fastpath=False)
    with pytest.raises(TypeError):
        bench_collective("MPICH", "allgather", 16, params, fastpath=False)


def test_default_engine_and_fast_path_downgrade():
    spec = resolve_engine(None)
    assert (spec.name, spec.queue, spec.fastpath) == ("calendar",
                                                      "calendar", True)
    assert spec.requested is None

    for flag, needle in (("faults", "faults"), ("tracer", "tracer"),
                         ("obs", "span recorder")):
        slow = resolve_engine(None, **{flag: True})
        assert slow.name == "calendar" and slow.queue == "calendar"
        assert not slow.fastpath, flag
        assert slow.downgrades == (f"fast path off ({needle} attached)",)

    # The reference engine has no fast path to turn off.
    ref = resolve_engine("reference", faults=True, obs=True)
    assert ref.downgrades == ()


def test_spec_reresolution_preserves_request():
    first = resolve_engine("calendar")
    # Re-resolving the resolved spec against harsher conditions applies
    # the downgrade rule to the *original* request.
    again = resolve_engine(first, faults=True)
    assert again.name == "calendar" and not again.fastpath
    assert again.requested == "calendar"
    # ... and against friendly conditions reproduces the original.
    assert resolve_engine(first) == first
    ref = resolve_engine("reference")
    assert resolve_engine(ref, tracer=True) == ref


def test_describe_mentions_downgrades():
    spec = resolve_engine("calendar", tracer=True)
    text = spec.describe()
    assert "downgraded" in text and "fast path off" in text
    assert ENGINE_NAMES == ("reference", "calendar")
    assert isinstance(spec, EngineSpec)

