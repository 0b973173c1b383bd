"""Small statistics helpers shared by the benchmark and its self-tests.

Everything here is pure stdlib and deterministic, so the self-tests in
``test_perfbench.py`` can pin the exact behaviour the run relies on.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: a tail percentile is only reported when at least this many samples
#: lie strictly beyond it
MIN_BEYOND = 10


def _rank_index(n: int, q: float) -> int:
    """Index of the nearest-rank ``q``-quantile among ``n`` sorted samples."""
    return max(math.ceil(q * n) - 1, 0)


def nearest_rank(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile of ``samples`` (0 < q <= 1).

    Returns ``(value, beyond)`` where ``beyond`` counts the samples that
    sit after the chosen one in sorted order, i.e. how many samples the
    percentile's tail rests on.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    idx = _rank_index(len(ordered), q)
    return ordered[idx], len(ordered) - 1 - idx


def tail_ready(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when ``n`` samples leave at least ``min_beyond`` beyond the
    nearest-rank ``q``-quantile."""
    return n >= 1 and n - 1 - _rank_index(n, q) >= min_beyond


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and quartile spread (IQR over median).

    Quartiles are ``statistics.quantiles(values, n=4)`` — the default
    exclusive method — so the figure matches what an external checker
    computes from the same values.
    """
    if len(values) < 2:
        raise ValueError("need at least two values for quartiles")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf}


def pass_orders(cells: Sequence[T], seed: int) -> Iterator[List[T]]:
    """The cell order of each successive pass: one seeded shuffle each.

    The seed only permutes; every pass holds every cell exactly once,
    so the work measured per pass does not depend on the seed.
    """
    rng = random.Random(seed)
    while True:
        yield rng.sample(list(cells), len(cells))


@dataclass
class Tally:
    """Failed/attempted op counting, plus the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ops: int, ok: bool, reason: str = "") -> None:
        """Count ``ops`` attempted ops; all of them fail when not ``ok``
        (a wrong output spoils every op that produced it)."""
        if ops < 1:
            raise ValueError("an attempt covers at least one op")
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.reasons.append(reason or "unspecified failure")

    @property
    def correct(self) -> bool:
        """True when at least one op ran and none failed."""
        return self.attempted > 0 and self.failed == 0
