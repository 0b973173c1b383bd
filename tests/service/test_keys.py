"""Cache-key canonicalisation properties (service.keys).

The content address must be *injective* over everything that changes a
result and *stable* over everything that doesn't: spec aliases, engine
spellings, dict key order, and the machine's display name.  Hypothesis
drives both directions over the real key derivation — no mocked
hashes.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import small_test
from repro.mpilibs import COLLECTIVES, make_library
from repro.mpilibs.base import MpiLibrary
from repro.service import (
    CacheKeyError,
    cell_key,
    engine_fingerprint,
    key_payload,
    library_fingerprint,
    machine_fingerprint,
)

PARAMS = small_test()

FIXTURE_DB = (Path(__file__).parent.parent / "tuner" / "fixtures" /
              "small_test_allgather.tunedb.json")

#: the result-determining call-shape dimensions one cell key covers
TUPLES = st.tuples(
    st.sampled_from(["MPICH", "PiP-MColl", "OpenMPI"]),   # library
    st.sampled_from(sorted(COLLECTIVES)),                  # collective
    st.sampled_from([0, 16, 64, 4096]),                    # nbytes
    st.integers(0, 2),                                     # warmup
    st.integers(1, 3),                                     # iters
    st.booleans(),                                         # functional
    st.integers(0, 3),                                     # root
    st.sampled_from(["calendar", "reference"]),            # engine
    st.booleans(),                                         # resources
)


def _key(t, params=PARAMS):
    lib, coll, nbytes, warmup, iters, functional, root, engine, res = t
    return cell_key(lib, coll, nbytes, params, warmup=warmup, iters=iters,
                    functional=functional, root=root, engine=engine,
                    resources=res)


# -- injectivity --------------------------------------------------------

@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(TUPLES, min_size=2, max_size=8, unique=True))
def test_distinct_tuples_get_distinct_keys(tuples):
    keys = [_key(t) for t in tuples]
    assert len(set(keys)) == len(tuples)


def test_geometry_is_part_of_the_address():
    assert _key(("MPICH", "allgather", 64, 1, 3, False, 0, "calendar", False),
                params=small_test(nodes=2, ppn=2)) != \
           _key(("MPICH", "allgather", 64, 1, 3, False, 0, "calendar", False),
                params=small_test(nodes=4, ppn=2))


def test_cost_model_is_part_of_the_address():
    bumped = dataclasses.replace(
        PARAMS, nic=dataclasses.replace(PARAMS.nic,
                                        eager_limit=PARAMS.nic.eager_limit + 1))
    t = ("MPICH", "allgather", 64, 1, 3, False, 0, "calendar", False)
    assert _key(t) != _key(t, params=bumped)


# -- stability ----------------------------------------------------------

@settings(max_examples=50, deadline=None, derandomize=True)
@given(TUPLES)
def test_key_is_deterministic(t):
    assert _key(t) == _key(t)


def test_library_spec_aliases_collapse():
    for name in ("MPICH", "PiP-MColl"):
        assert (cell_key(name, "allgather", 64, PARAMS)
                == cell_key(make_library(name), "allgather", 64, PARAMS))


def test_tuned_spec_aliases_collapse_and_db_content_matters():
    spec = f"tuned:{FIXTURE_DB}"
    assert (cell_key(spec, "allgather", 64, PARAMS)
            == cell_key(make_library(spec), "allgather", 64, PARAMS))
    # ...and the tuned fingerprint is the DB content, not the base name
    fp = library_fingerprint(spec)
    assert "tunedb" in fp
    assert fp != library_fingerprint(make_library(spec).base)


def test_engine_aliases_collapse():
    base = cell_key("MPICH", "allgather", 64, PARAMS, engine=None)
    assert cell_key("MPICH", "allgather", 64, PARAMS,
                    engine="calendar") == base
    reference = cell_key("MPICH", "allgather", 64, PARAMS,
                         engine="reference")
    assert base != reference  # entries stay engine-segregated


def test_machine_display_name_never_matters():
    renamed = dataclasses.replace(PARAMS, name="totally-different-box")
    t = ("MPICH", "allgather", 64, 1, 3, False, 0, "calendar", False)
    assert _key(t) == _key(t, params=renamed)
    assert machine_fingerprint(PARAMS) == machine_fingerprint(renamed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.permutations([("zeta", 1), ("alpha", 2), ("mid", [3, "x"])]))
def test_extra_dict_key_order_never_matters(items):
    key = cell_key("MPICH", "allgather", 64, PARAMS, extra=dict(items))
    assert key == cell_key("MPICH", "allgather", 64, PARAMS,
                           extra={"zeta": 1, "alpha": 2, "mid": [3, "x"]})


# -- refusal ------------------------------------------------------------

class _AdHoc(MpiLibrary):
    def __init__(self):
        self.profile = make_library("MPICH").profile

    def algorithm(self, collective, nbytes, world_size):  # pragma: no cover
        raise NotImplementedError

    def subcomm_algorithm(self, collective, nbytes, comm_size):  # pragma: no cover
        raise NotImplementedError


def test_unaddressable_library_raises():
    with pytest.raises(CacheKeyError):
        library_fingerprint(_AdHoc())
    with pytest.raises(CacheKeyError):
        cell_key(_AdHoc(), "allgather", 64, PARAMS)


def test_library_id_override_rescues_unaddressable():
    key = cell_key(_AdHoc(), "allgather", 64, PARAMS,
                   library_id={"name": "adhoc", "v": 1})
    assert key != cell_key("MPICH", "allgather", 64, PARAMS)


def test_unknown_engine_raises():
    for name in ("warpdrive", "sharded", "sharded:8x2", "analytic"):
        with pytest.raises(CacheKeyError):
            engine_fingerprint(name)


def test_payload_shape_is_documented():
    payload = key_payload("MPICH", "allgather", 64, PARAMS)
    assert payload["schema"] == 1
    assert payload["library"] == {"name": "MPICH"}
    assert payload["engine"] == "calendar"
    assert set(payload["machine"]) == {"cost", "nodes", "ppn"}
