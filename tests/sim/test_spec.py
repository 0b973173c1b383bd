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

    for flag, needle in (("faults", "faults"), ("obs", "span recorder")):
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
    assert resolve_engine(ref, obs=True) == ref


def test_describe_mentions_downgrades():
    spec = resolve_engine("calendar", obs=True)
    text = spec.describe()
    assert "downgraded" in text and "fast path off" in text
    assert ENGINE_NAMES == ("reference", "calendar")
    assert isinstance(spec, EngineSpec)



# -- a span recorder reaches a world only through its constructor ---------


def _world_with_recorder(way, engine):
    """A world that ran with a span recorder, attached the given way."""
    from repro import shim
    from repro.api import Session
    from repro.obs import SpanRecorder
    from repro.shim import MPI

    def app(comm):
        yield from comm.Barrier()

    if way == "World(obs=)":
        return World(small_test(nodes=2, ppn=2), obs=SpanRecorder(),
                     engine=engine)
    if way == "make_world(obs=)":
        return make_library("MPICH").make_world(
            small_test(nodes=2, ppn=2), obs=SpanRecorder(), engine=engine)
    if way == "Session(trace=True)":
        session = Session(nodes=2, ppn=2, trace=True, engine=engine)
        return session.run(app).world
    return shim.run(lambda: MPI.COMM_WORLD.Barrier(), nodes=2, ppn=2,
                    trace=True, engine=engine).world


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("way", ["World(obs=)", "make_world(obs=)",
                                 "Session(trace=True)",
                                 "shim.run(trace=True)"])
def test_world_engine_reports_the_path_it_runs(way, engine):
    world = _world_with_recorder(way, engine)
    assert world.obs is not None
    assert world.engine.fastpath == world._fast
    assert not world._fast
    if engine == "calendar":
        assert world.engine.downgrades == (
            "fast path off (span recorder attached)",)
    else:
        assert world.engine.downgrades == ()


def test_kernel_tracer_and_attach_obs_are_gone():
    with pytest.raises(TypeError):
        World(small_test(), tracer=object())
    with pytest.raises(TypeError):
        resolve_engine("calendar", tracer=True)
    # a recorder reaches a world only through World(obs=...)
    assert [name for name in dir(World) if name.startswith("attach")] \
        == ["attach_resources"]
    with pytest.raises(ImportError):
        import repro.sim.trace  # noqa: F401
