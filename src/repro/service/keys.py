"""Content-addressed cache keys for benchmark cells.

One sweep cell — a ``bench_collective`` call — is addressed by a
canonical SHA-256 over everything that determines its result:

* the **machine fingerprint**: the cost-parameter hash the tuner's
  provenance already uses (:func:`repro.tuner.db.machine_hash` —
  changing the cost model changes the hash, which is the real
  "measurements are stale" event) plus the geometry (nodes × ppn),
  which that hash deliberately excludes;
* the **library fingerprint**: the profile name for built-in models,
  the profile name *plus the tuning-DB content hash* for compiled
  :class:`~repro.tuner.compile.TunedLibrary` instances (two DBs with
  different tables must never share entries);
* the call shape: collective, message size, warmup/iters, functional
  buffers, root, seed, and the telemetry flags (``resources`` /
  ``attribution`` change what the record carries);
* the **engine name** — engines are byte-identical by the differential
  contract, but cache entries stay engine-segregated so a cached
  calendar result can never mask a reference-engine regression;
* an optional ``extra`` payload for callers whose cell identity has
  more dimensions (the tuner stores the candidate config here).

Canonicalisation rules (property-tested in
``tests/service/test_keys.py``):

* spec aliases collapse — ``"MPICH"`` and ``make_library("MPICH")``
  hash identically, as do ``tuned:<path>`` and its compiled instance;
* engine aliases collapse — ``None``/``"calendar"`` agree;
* dict key order never matters (``sort_keys`` canonical JSON);
* the machine's display ``name`` never matters (content, not label).

Libraries whose behaviour is not reconstructable from content — ad-hoc
:class:`~repro.mpilibs.MpiLibrary` subclasses, registered test doubles
— raise :class:`CacheKeyError`; callers fall back to direct
computation rather than caching something unaddressable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Union

from ..machine import MachineParams
from ..mpilibs import MpiLibrary, make_library
from ..mpilibs.registry import _LIBRARIES
from ..sim.spec import ENGINE_NAMES, EngineSpec
from ..tuner.db import machine_hash

#: bump on any change to the key payload shape — old entries become
#: unreachable (their keys are never derived again), which is the
#: cheapest possible invalidation
CACHE_KEY_SCHEMA = 1


class CacheKeyError(ValueError):
    """A cell that cannot be content-addressed (so must be computed)."""


def machine_fingerprint(params: MachineParams) -> Dict[str, Any]:
    """Cost hash + geometry; the display name is deliberately absent."""
    return {
        "cost": machine_hash(params),
        "nodes": params.nodes,
        "ppn": params.ppn,
    }


def library_fingerprint(library: Union[str, MpiLibrary]) -> Dict[str, Any]:
    """Canonical identity of a library spec or instance.

    Raises :class:`CacheKeyError` for libraries whose algorithm tables
    are not derivable from content (anonymous subclasses, registered
    test doubles): caching those would serve results for code the key
    cannot see.
    """
    lib = make_library(library)
    db = getattr(lib, "db", None)
    if db is not None and hasattr(db, "dumps"):
        digest = hashlib.sha256(db.dumps().encode()).hexdigest()[:16]
        return {"name": lib.profile.name, "tunedb": digest}
    cls = _LIBRARIES.get(lib.profile.name)
    if cls is not None and type(lib) is cls:
        return {"name": lib.profile.name}
    raise CacheKeyError(
        f"library {lib.profile.name!r} ({type(lib).__name__}) is not "
        "content-addressable; pass library_id= or compute directly"
    )


def engine_fingerprint(engine: Union[str, EngineSpec, None]) -> str:
    """Resolved engine *name* (``None`` means the default, ``calendar``;
    see :mod:`repro.sim.spec`)."""
    if engine is None:
        return "calendar"
    if isinstance(engine, EngineSpec):
        return engine.name
    name = str(engine)
    if name not in ENGINE_NAMES:
        raise CacheKeyError(
            f"unknown engine {engine!r}; available: {', '.join(ENGINE_NAMES)}"
        )
    return name


def key_payload(
    library: Union[str, MpiLibrary],
    collective: str,
    nbytes: int,
    params: MachineParams,
    *,
    warmup: int = 1,
    iters: int = 3,
    functional: bool = False,
    root: int = 0,
    seed: Optional[int] = None,
    engine: Union[str, EngineSpec, None] = None,
    resources: bool = False,
    attribution: bool = False,
    library_id: Optional[Dict[str, Any]] = None,
    extra: Any = None,
) -> Dict[str, Any]:
    """The canonical (pre-hash) key payload — exposed for docs/tests."""
    return {
        "schema": CACHE_KEY_SCHEMA,
        "machine": machine_fingerprint(params),
        "library": (library_id if library_id is not None
                    else library_fingerprint(library)),
        "collective": str(collective),
        "nbytes": int(nbytes),
        "warmup": int(warmup),
        "iters": int(iters),
        "functional": bool(functional),
        "root": int(root),
        "seed": seed,
        "engine": engine_fingerprint(engine),
        "resources": bool(resources),
        "attribution": bool(attribution),
        "extra": extra,
    }


def cell_key(
    library: Union[str, MpiLibrary],
    collective: str,
    nbytes: int,
    params: MachineParams,
    **kwargs: Any,
) -> str:
    """SHA-256 hex digest of the canonical key payload."""
    payload = key_payload(library, collective, nbytes, params, **kwargs)
    try:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CacheKeyError(f"key payload is not canonical JSON: {exc}") from exc
    return hashlib.sha256(blob.encode()).hexdigest()
