"""The benchmark's own arithmetic: percentiles, failure counting, self time.

Kept free of any ``repro`` import so its tests run without the simulator.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A failed adaptation's latency sample: it misses every latency limit.
FAILED = math.inf

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank.
MIN_TAIL = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile *q* in *n* sorted samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q!r} outside (0, 1]")
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q * n - 1e-9))


def tail_count(q: float, n: int) -> int:
    """How many of *n* samples lie beyond the *q* nearest rank."""
    return n - rank(q, n)


def min_samples(q: float) -> int:
    """The fewest samples that leave :data:`MIN_TAIL` beyond quantile *q*."""
    n = 1
    while tail_count(q, n) < MIN_TAIL:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q* percentile of *samples*, failures included.

    Failed adaptations enter as :data:`FAILED` (+inf), so they sort last
    and push the percentile up.  Returns ``None`` when fewer than
    :data:`MIN_TAIL` samples lie beyond the rank, or when the rank lands on
    a failure (the percentile missed its limit and has no finite value).
    """
    n = len(samples)
    if n == 0 or tail_count(q, n) < MIN_TAIL:
        return None
    value = sorted(samples)[rank(q, n) - 1]
    return None if math.isinf(value) else value


class Tally:
    """Attempted/failed adaptations and the latency sample of each."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.failures: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ok(self, seconds: float) -> None:
        self.samples.append(seconds)

    def fail(self, why: str) -> None:
        """Count one failed adaptation: it misses both percentiles."""
        self.samples.append(FAILED)
        self.failures.append(why)

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of *interval* covered by the union of *children*.

    Children may nest, overlap each other or stick out of the interval;
    each point of the interval counts once.
    """
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children
                     if min(hi, e) > max(lo, s))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Self time of every span: duration minus the part its children cover.

    ``parents[i]`` is the index of span *i*'s parent, or -1 for a root.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        span = (starts[i], ends[i])
        kids = children.get(i)
        out.append(span[1] - span[0] - (covered(span, kids) if kids else 0.0))
    return out
