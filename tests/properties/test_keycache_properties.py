"""Property-based tests for the vkey→pkey cache."""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.keycache import EVICTION_POLICIES, KeyCache
from repro.errors import MpkKeyExhaustion

HW_KEYS = [1, 2, 3, 4, 5]


class KeyCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = KeyCache(list(HW_KEYS), evict_rate=1.0)
        self.bound: dict[int, int] = {}   # vkey -> pkey (shadow)
        self.reserved: set[int] = set()
        self.next_vkey = 100

    @rule()
    def assign_new_vkey(self):
        vkey = self.next_vkey
        self.next_vkey += 1
        pkey = self.cache.assign_free(vkey)
        if pkey is None:
            assert len(self.bound) + len(self.reserved) == len(HW_KEYS)
        else:
            self.bound[vkey] = pkey

    @precondition(lambda self: self.bound)
    @rule(data=st.data())
    def lookup_hit(self, data):
        vkey = data.draw(st.sampled_from(sorted(self.bound)))
        assert self.cache.lookup(vkey) == self.bound[vkey]

    @rule(vkey=st.integers(10_000, 10_050))
    def lookup_miss(self, vkey):
        assert self.cache.lookup(vkey) is None

    @precondition(lambda self: self.bound)
    @rule()
    def evict_and_rebind(self):
        victim = self.cache.choose_victim(lambda v: True)
        pkey = self.cache.evict(victim)
        assert self.bound.pop(victim) == pkey
        vkey = self.next_vkey
        self.next_vkey += 1
        self.cache.bind(vkey, pkey)
        self.bound[vkey] = pkey

    @precondition(lambda self: self.bound)
    @rule(data=st.data())
    def release(self, data):
        vkey = data.draw(st.sampled_from(sorted(self.bound)))
        self.cache.release(vkey)
        del self.bound[vkey]

    @rule()
    def reserve(self):
        try:
            pkey = self.cache.reserve_free_key()
        except MpkKeyExhaustion:
            assert len(self.bound) + len(self.reserved) == len(HW_KEYS)
            return
        self.reserved.add(pkey)

    @precondition(lambda self: self.reserved)
    @rule(data=st.data())
    def unreserve(self, data):
        pkey = data.draw(st.sampled_from(sorted(self.reserved)))
        self.cache.unreserve(pkey)
        self.reserved.remove(pkey)

    # ------------------------------------------------------------------

    @invariant()
    def mapping_is_injective(self):
        pkeys = list(self.bound.values())
        assert len(pkeys) == len(set(pkeys))

    @invariant()
    def matches_shadow(self):
        assert self.cache.in_use == len(self.bound)
        for vkey, pkey in self.bound.items():
            assert self.cache.peek(vkey) == pkey

    @invariant()
    def reserved_keys_never_bound(self):
        assert not (set(self.bound.values())
                    & set(self.cache.reserved_keys))
        assert set(self.cache.reserved_keys) == self.reserved

    @invariant()
    def never_exceeds_hardware(self):
        assert (self.cache.in_use + len(self.reserved)) <= len(HW_KEYS)


TestKeyCache = KeyCacheMachine.TestCase
TestKeyCache.settings = settings(max_examples=40,
                                 stateful_step_count=40,
                                 deadline=None)


def _policy_machine(policy_name: str):
    """A per-policy state machine: random interleavings of the full
    cache op set, with pinned-vkey vetoes, checking that *every*
    registered policy preserves the partition invariant and never
    evicts a pinned vkey or a reserved key."""

    class PolicyPartitionMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.cache = KeyCache(list(HW_KEYS), evict_rate=1.0,
                                  policy=policy_name, seed=11)
            if policy_name == "cost-aware":
                # Deterministic synthetic pricing so the cost path
                # (CostAwarePolicy.choose_victim_cost) runs in the sweep.
                self.cache.victim_cost = lambda cands: [
                    float((v * 2654435761) % 97) for v in cands]
            self.bound: dict[int, int] = {}   # vkey -> pkey (shadow)
            self.reserved: set[int] = set()
            self.pinned: set[int] = set()
            self.next_vkey = 100

        @rule()
        def assign_new_vkey(self):
            vkey = self.next_vkey
            self.next_vkey += 1
            pkey = self.cache.assign_free(vkey)
            if pkey is None:
                assert (len(self.bound) + len(self.reserved)
                        == len(HW_KEYS))
            else:
                self.bound[vkey] = pkey

        @precondition(lambda self: self.bound)
        @rule(data=st.data())
        def lookup_hit(self, data):
            vkey = data.draw(st.sampled_from(sorted(self.bound)))
            assert self.cache.lookup(vkey) == self.bound[vkey]

        @rule(vkey=st.integers(10_000, 10_050))
        def lookup_miss(self, vkey):
            assert self.cache.lookup(vkey) is None

        @precondition(lambda self: self.bound)
        @rule(data=st.data())
        def pin(self, data):
            self.pinned.add(
                data.draw(st.sampled_from(sorted(self.bound))))

        @precondition(lambda self: self.pinned)
        @rule(data=st.data())
        def unpin(self, data):
            self.pinned.discard(
                data.draw(st.sampled_from(sorted(self.pinned))))

        @precondition(lambda self: self.bound)
        @rule()
        def evict_and_rebind(self):
            try:
                victim = self.cache.choose_victim(
                    lambda v: v not in self.pinned)
            except MpkKeyExhaustion:
                assert all(v in self.pinned for v in self.bound)
                return
            assert victim not in self.pinned
            pkey = self.cache.evict(victim)
            assert pkey not in self.cache.reserved_keys
            assert self.bound.pop(victim) == pkey
            vkey = self.next_vkey
            self.next_vkey += 1
            self.cache.bind(vkey, pkey)
            self.bound[vkey] = pkey

        @precondition(lambda self: set(self.bound) - self.pinned)
        @rule(data=st.data())
        def release(self, data):
            vkey = data.draw(st.sampled_from(
                sorted(set(self.bound) - self.pinned)))
            self.cache.release(vkey)
            del self.bound[vkey]

        @rule()
        def reserve(self):
            try:
                pkey = self.cache.reserve_free_key()
            except MpkKeyExhaustion:
                assert (len(self.bound) + len(self.reserved)
                        == len(HW_KEYS))
                return
            self.reserved.add(pkey)

        @precondition(lambda self: self.reserved)
        @rule(data=st.data())
        def unreserve(self, data):
            pkey = data.draw(st.sampled_from(sorted(self.reserved)))
            self.cache.unreserve(pkey)
            self.reserved.remove(pkey)

        # --------------------------------------------------------------

        @invariant()
        def partition_holds(self):
            assert self.cache.check_partition() is None

        @invariant()
        def counters_hold(self):
            assert self.cache.check_counters() is None

        @invariant()
        def matches_shadow(self):
            assert self.cache.in_use == len(self.bound)
            for vkey, pkey in self.bound.items():
                assert self.cache.peek(vkey) == pkey

        @invariant()
        def reserved_keys_never_bound(self):
            assert not (set(self.bound.values())
                        & set(self.cache.reserved_keys))
            assert set(self.cache.reserved_keys) == self.reserved

    PolicyPartitionMachine.__name__ = (
        f"PolicyPartitionMachine_{policy_name}")
    case = PolicyPartitionMachine.TestCase
    case.settings = settings(max_examples=25, stateful_step_count=40,
                             deadline=None)
    return case


for _policy in EVICTION_POLICIES:
    globals()[f"TestPolicyPartition_{_policy.replace('-', '_')}"] = (
        _policy_machine(_policy))
del _policy


def test_eviction_rate_long_run_frequency():
    """Over N misses, the number of evict decisions is floor(N*rate)."""
    for rate in (0.0, 0.1, 1 / 3, 0.5, 0.75, 1.0):
        cache = KeyCache([1], evict_rate=rate)
        decisions = sum(cache.should_evict_on_miss()
                        for _ in range(1000))
        assert decisions == int(1000 * rate) or \
            abs(decisions - 1000 * rate) < 1
