"""Streaming latency digests: P² quantile estimation with exact small-N mode.

The serving engine keeps no per-connection records: every completed
connection's latency and queue wait go into a **digest**, the engine's
only record of them, so host memory stays bounded at 100k+
connections.  The digest has two modes:

* **exact** — below :data:`EXACT_CUTOFF` observations the raw values
  are kept and percentiles are computed nearest-rank, equal to
  :func:`repro.bench.serving.percentile` over the same values.  Small
  runs (the committed ``BENCH_serving.json`` scenarios) therefore
  report exact figures.
* **streaming** — past the cutoff the raw values are dropped and the
  P² algorithm (Jain & Chlamtac, CACM 1985) maintains five markers per
  tracked quantile in O(1) memory.  Marker updates are plain float
  arithmetic on the observation stream, so two identical runs produce
  bit-identical digest state — the property the servebench determinism
  gate compares.

The P² estimators are fed lazily: exact mode already holds every
value, so the estimators stay unfed until the flip past the cutoff
(or a :meth:`LatencyDigest.state` call), which replays the retained
values in arrival order.  Their state is therefore exactly what eager
feeding would have produced.

Nothing here consults wall time or unseeded randomness.
"""

from __future__ import annotations

import bisect
import math

#: Observation count up to which digests stay exact (nearest-rank on
#: retained values).  Past it, memory goes O(1) and percentiles become
#: P² estimates.  The committed small-scale serving scenarios (64
#: connections) sit far below this, so their reported numbers are
#: reproduced bit for bit.
EXACT_CUTOFF = 4096


class P2Quantile:
    """One quantile tracked by the P² algorithm (five markers).

    Feed observations with :meth:`add`; read the running estimate with
    :meth:`value`.  With five or fewer observations the estimate is the
    nearest-rank percentile of the sorted buffer.
    """

    __slots__ = ("q", "n", "_h", "_pos")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1): {q}")
        self.q = q
        self.n = 0
        self._h: list[float] = []      # marker heights
        self._pos: list[int] = [1, 2, 3, 4, 5]

    def add(self, x: float) -> None:
        self.n += 1
        if self.n <= 5:
            bisect.insort(self._h, x)
            return
        h, pos, q = self._h, self._pos, self.q
        # Locate the cell k (0..3) the observation falls into, growing
        # the extreme markers when it lands outside them.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        elif x < h[1]:
            k = 0
        elif x < h[2]:
            k = 1
        elif x < h[3]:
            k = 2
        else:
            k = 3
        for i in range(k + 1, 5):
            pos[i] += 1
        # Desired positions are a pure function of n (no incremental
        # drift): 1, 1+(n-1)q/2, 1+(n-1)q, 1+(n-1)(1+q)/2, n.
        n1 = self.n - 1
        desired = (1.0, 1.0 + n1 * q / 2.0, 1.0 + n1 * q,
                   1.0 + n1 * (1.0 + q) / 2.0, float(self.n))
        for i in (1, 2, 3):
            d = desired[i] - pos[i]
            if ((d >= 1.0 and pos[i + 1] - pos[i] > 1)
                    or (d <= -1.0 and pos[i - 1] - pos[i] < -1)):
                step = 1 if d >= 0 else -1
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        h, pos = self._h, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1]))

    def _linear(self, i: int, d: int) -> float:
        h, pos = self._h, self._pos
        return h[i] + d * (h[i + d] - h[i]) / (pos[i + d] - pos[i])

    def value(self) -> float:
        if self.n == 0:
            raise ValueError("P2Quantile has no observations")
        if self.n <= 5:
            rank = max(1, math.ceil(self.q * self.n))
            return self._h[rank - 1]
        return self._h[2]

    def state(self) -> tuple:
        """Deterministic marker state (for bit-identity comparisons)."""
        return (self.n, tuple(self._h), tuple(self._pos))


class LatencyDigest:
    """Bounded-memory distribution summary for one latency-like stream.

    Tracks count/total/min/max plus the quantiles in ``quantiles``
    (fractions).  Exact below ``exact_cutoff`` observations, P² past it
    — see the module docstring for the contract.
    """

    __slots__ = ("count", "total", "minimum", "maximum",
                 "exact_cutoff", "_exact", "_estimators")

    #: Quantiles tracked by default — the serving report's p50/p95/p99.
    QUANTILES = (0.50, 0.95, 0.99)

    def __init__(self, quantiles: tuple[float, ...] = QUANTILES,
                 exact_cutoff: int = EXACT_CUTOFF) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.exact_cutoff = exact_cutoff
        self._exact: list[float] | None = []
        # Unfed while exact; see the module docstring.
        self._estimators = {q: P2Quantile(q) for q in quantiles}

    @property
    def exact(self) -> bool:
        """True while the digest still retains the raw values."""
        return self._exact is not None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        exact = self._exact
        if exact is None:
            for estimator in self._estimators.values():
                estimator.add(value)
            return
        exact.append(value)
        if self.count > self.exact_cutoff:
            # Flip to streaming: O(1) memory from here.
            self._estimators = self._replay(exact)
            self._exact = None

    def _replay(self, values: list[float]) -> dict[float, P2Quantile]:
        """Fresh estimators for the tracked quantiles, fed ``values``
        in order."""
        estimators = {q: P2Quantile(q) for q in self._estimators}
        for value in values:
            for estimator in estimators.values():
                estimator.add(value)
        return estimators

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (exact mode) or P² estimate.

        ``p`` is in (0, 100]; in streaming mode only the tracked
        quantiles are available.
        """
        if self.count == 0:
            raise ValueError("percentile of an empty digest")
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100]: {p}")
        if self._exact is not None:
            ordered = sorted(self._exact)
            rank = math.ceil(p / 100.0 * len(ordered))
            return ordered[rank - 1]
        estimator = self._estimators.get(p / 100.0)
        if estimator is None:
            raise ValueError(
                f"p{p:g} is not tracked by this digest "
                f"(streaming mode tracks "
                f"{sorted(q * 100 for q in self._estimators)})")
        return estimator.value()

    def state(self) -> tuple:
        """The digest's full deterministic state.

        Two identical observation streams produce equal states — the
        servebench determinism gate compares these.
        """
        if self._exact is None:
            exact, estimators = None, self._estimators
        else:
            exact, estimators = tuple(self._exact), \
                self._replay(self._exact)
        return (self.count, self.total, self.minimum, self.maximum,
                exact,
                tuple(estimators[q].state() for q in sorted(estimators)))

    def summary(self) -> dict:
        """JSON-safe digest summary (no infinities)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mode": "exact" if self.exact else "p2",
            "mean": self.mean,
            "minimum": None if empty else self.minimum,
            "maximum": None if empty else self.maximum,
        }
