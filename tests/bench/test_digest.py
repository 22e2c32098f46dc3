"""Streaming percentile digests: P² accuracy, exact-mode parity, and
bit-identical state."""

import math
import random

import pytest

from repro.bench.digest import EXACT_CUTOFF, LatencyDigest, P2Quantile
from repro.bench.serving import percentile


def _streams():
    """Seeded observation streams over several distribution shapes —
    plain ``random.Random`` so the suite needs no extra dependencies."""
    for seed in (1, 7, 42):
        rng = random.Random(seed)
        yield (f"uniform-{seed}",
               [rng.uniform(0.0, 1000.0) for _ in range(6000)])
        rng = random.Random(seed + 100)
        yield (f"exponential-{seed}",
               [rng.expovariate(1.0 / 250.0) for _ in range(6000)])
        rng = random.Random(seed + 200)
        yield (f"bimodal-{seed}",
               [rng.gauss(100.0, 10.0) if rng.random() < 0.9
                else rng.gauss(900.0, 50.0) for _ in range(6000)])


class TestP2Quantile:
    def test_small_n_is_nearest_rank(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.add(x)
        assert est.value() == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    @pytest.mark.parametrize("p", [50, 95, 99])
    def test_tracks_exact_percentiles(self, p):
        """Property check: over seeded streams from several
        distribution shapes, the streaming estimate lands within a
        ±1-percentile-rank band of the exact nearest-rank answer."""
        for name, values in _streams():
            est = P2Quantile(p / 100.0)
            for x in values:
                est.add(x)
            lo = percentile(values, max(p - 1, 1))
            hi = percentile(values, min(p + 1, 100))
            assert lo <= est.value() <= hi, (
                f"{name}: p{p} estimate {est.value()} outside "
                f"[{lo}, {hi}]")

    def test_state_is_deterministic(self):
        def build():
            rng = random.Random(99)
            est = P2Quantile(0.95)
            for _ in range(1000):
                est.add(rng.expovariate(0.01))
            return est.state()

        assert build() == build()


class TestLatencyDigest:
    def test_exact_mode_matches_nearest_rank_bit_for_bit(self):
        """Below the cutoff the digest IS nearest-rank on the retained
        values — the property that keeps the committed small-scale
        BENCH_serving.json numbers unchanged."""
        rng = random.Random(3)
        values = [rng.uniform(0.0, 1e6) for _ in range(64)]
        digest = LatencyDigest()
        for x in values:
            digest.add(x)
        assert digest.exact
        for p in (50, 95, 99, 100):
            assert digest.percentile(p) == percentile(values, p)
        assert digest.mean == sum(values) / len(values)

    def test_exact_mode_is_order_independent(self):
        values = [float(x) for x in range(100)]
        forward, backward = LatencyDigest(), LatencyDigest()
        for x in values:
            forward.add(x)
        for x in reversed(values):
            backward.add(x)
        for p in (50, 95, 99):
            assert forward.percentile(p) == backward.percentile(p)

    def test_flips_to_streaming_past_cutoff(self):
        digest = LatencyDigest(exact_cutoff=10)
        for x in range(10):
            digest.add(float(x))
        assert digest.exact          # at the cutoff: still exact
        digest.add(10.0)
        assert not digest.exact      # past it: raw values dropped
        assert digest.count == 11
        digest.percentile(95)        # tracked quantile still answers
        with pytest.raises(ValueError, match="not tracked"):
            digest.percentile(42)

    def test_default_cutoff_exceeds_smoke_scale(self):
        assert EXACT_CUTOFF >= 4096

    def test_streaming_accuracy(self):
        """Past the cutoff, digest percentiles stay within the same
        ±1-rank band as the raw P² estimators."""
        for name, values in _streams():
            digest = LatencyDigest(exact_cutoff=100)
            for x in values:
                digest.add(x)
            assert not digest.exact
            for p in (50, 95, 99):
                lo = percentile(values, max(p - 1, 1))
                hi = percentile(values, min(p + 1, 100))
                assert lo <= digest.percentile(p) <= hi, (
                    f"{name}: p{p}")

    def test_state_bit_identical_across_runs(self):
        def build():
            rng = random.Random(17)
            digest = LatencyDigest(exact_cutoff=50)
            for _ in range(500):
                digest.add(rng.expovariate(1e-4))
            return digest.state()

        assert build() == build()

    def test_empty_summary_is_json_safe(self):
        summary = LatencyDigest().summary()
        assert summary["count"] == 0
        assert summary["minimum"] is None
        assert summary["maximum"] is None
        assert summary["mean"] == 0.0
        assert not any(isinstance(v, float) and math.isinf(v)
                       for v in summary.values())


class TestLazyEstimators:
    """Exact mode leaves the P² estimators unfed and replays the
    retained values at the flip and in ``state()``; every observable
    must equal a digest whose estimators were fed eagerly."""

    CUTOFF = 8

    @staticmethod
    def _eager_reference(values, cutoff):
        estimators = {q: P2Quantile(q) for q in LatencyDigest.QUANTILES}
        total, low, high = 0.0, math.inf, -math.inf
        for x in values:
            total += x
            low, high = min(low, x), max(high, x)
            for estimator in estimators.values():
                estimator.add(x)
        exact = tuple(values) if len(values) <= cutoff else None
        state = (len(values), total, low, high, exact,
                 tuple(estimators[q].state() for q in sorted(estimators)))
        return state, estimators

    def test_matches_eager_feeding_at_every_checkpoint(self):
        cutoff = self.CUTOFF
        rng = random.Random(11)
        values = [rng.expovariate(1e-3) for _ in range(3 * cutoff)]
        digest = LatencyDigest(exact_cutoff=cutoff)
        fed = 0
        for n in (0, 1, 5, cutoff, cutoff + 1, 3 * cutoff):
            for x in values[fed:n]:
                digest.add(x)
            fed = n
            state, estimators = self._eager_reference(values[:n], cutoff)
            # state() replays into copies, so calling it at every
            # checkpoint must not disturb the digest itself.
            assert digest.state() == state, n
            assert digest.exact == (n <= cutoff), n
            for p in (50, 95, 99):
                if n == 0:
                    with pytest.raises(ValueError):
                        digest.percentile(p)
                elif digest.exact:
                    assert digest.percentile(p) == percentile(
                        values[:n], p), (n, p)
                else:
                    assert digest.percentile(p) == \
                        estimators[p / 100.0].value(), (n, p)
