"""Protection-key virtualization: the vkey→pkey cache (§4.2, Figure 6).

libmpk hides hardware keys behind virtual keys and schedules the 15
usable hardware keys across an unbounded number of page groups like a
cache:

* **hit** — the virtual key already holds a hardware key; permission
  changes cost only a WRPKRU plus bookkeeping.
* **miss** — either *evict* the least-recently-used unpinned key and
  hand it over, or skip eviction and fall back to ``mprotect`` on the
  group's pages.  Which of the two happens is governed by the
  *eviction rate* configured in ``mpk_init``.

The eviction-rate decision is deterministic here (an error-diffusion
counter rather than a random draw) so tests and benchmarks are exactly
reproducible: a rate of 0.5 evicts on every second miss, 1.0 on every
miss, 0.0 never.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import OrderedDict

from repro.errors import MpkError, MpkKeyExhaustion


class EvictionPolicy:
    """Pluggable victim-selection strategy for the key cache.

    The cache delegates its policy-sensitive decisions here: whether a
    lookup hit refreshes recency, and which candidate vkey loses its
    hardware key under pressure.  The cache hands strategies its
    recency structure and seeded RNG, so the default remains
    bit-identical to the historical inline LRU code.  Most built-in
    policies are stateless and may be shared between caches; "clock"
    keeps per-cache reference bits, so pass its *name* (the registry
    instantiates a fresh object per cache) rather than one instance.

    Subclass and pass an instance as ``KeyCache(policy=...)`` to ablate
    new strategies (the ROADMAP's eviction-policy shootout) without
    touching the cache itself.
    """

    #: Registry name (``KeyCache(policy="lru")`` resolves through
    #: :data:`EVICTION_POLICIES`).
    name = "base"

    #: True when the policy wants per-candidate costs: while a
    #: ``victim_cost`` hook is installed, the cache then calls the
    #: policy's ``choose_victim_cost(candidates, rng, costs)`` (which
    #: such a policy must define; ``costs[i]`` prices evicting
    #: ``candidates[i]``, +inf for a key parked waiters sleep on)
    #: instead of :meth:`choose_victim`.
    uses_cost = False

    def on_hit(self, lru: "OrderedDict[int, int]", vkey: int) -> None:
        """A lookup hit on ``vkey`` — refresh recency if the policy
        tracks it.  The base policy does not."""

    def on_evict(self, vkey: int) -> None:
        """``vkey`` left the cache (eviction or release) — drop any
        per-vkey policy state.  The base policy keeps none."""

    def choose_victim(self, candidates: list[int],
                      rng: random.Random) -> int:
        """Pick the vkey to evict from the non-empty, LRU-ordered
        (oldest-first) ``candidates``."""
        return candidates[0]


class LruPolicy(EvictionPolicy):
    """The paper's policy: hits refresh recency, oldest entry evicted."""

    name = "lru"

    def on_hit(self, lru: "OrderedDict[int, int]", vkey: int) -> None:
        lru.move_to_end(vkey)


class FifoPolicy(EvictionPolicy):
    """Bind-order eviction: hits do not refresh, oldest bind evicted."""

    name = "fifo"


class RandomPolicy(EvictionPolicy):
    """Uniform victim among the candidates — drawn from the *injected*
    RNG only (``KeyCache``'s ``random.Random(seed)``), never the
    module-global ``random`` state, so two runs with the same seed
    produce the same victim sequence no matter what other code does to
    the global generator in between."""

    name = "random"

    def choose_victim(self, candidates: list[int],
                      rng: random.Random) -> int:
        return rng.choice(candidates)


class ClockPolicy(EvictionPolicy):
    """Second-chance (clock): a hit sets the vkey's reference bit; the
    hand sweeps the oldest-first candidate ring, clearing bits, and
    the first unreferenced entry loses its key.  When every candidate
    was referenced the sweep has cleared them all and the entry under
    the hand is evicted.

    Stateful (per-cache reference bits and hand position): select it
    by *name* so the registry builds a fresh instance per cache;
    sharing one object between caches would mix their reference bits.
    """

    name = "clock"

    def __init__(self) -> None:
        self._referenced: set[int] = set()
        self._hand = 0

    def on_hit(self, lru: "OrderedDict[int, int]", vkey: int) -> None:
        self._referenced.add(vkey)

    def on_evict(self, vkey: int) -> None:
        self._referenced.discard(vkey)

    def choose_victim(self, candidates: list[int],
                      rng: random.Random) -> int:
        n = len(candidates)
        start = self._hand % n
        for offset in range(n):
            i = (start + offset) % n
            vkey = candidates[i]
            if vkey not in self._referenced:
                self._hand = i + 1
                return vkey
            self._referenced.discard(vkey)  # second chance spent
        # Full sweep: every bit was set and is now cleared; the entry
        # the hand started on loses.
        self._hand = start + 1
        return candidates[start]


class CostAwarePolicy(EvictionPolicy):
    """Recency-primary, cost-refined victim choice.

    The cache's ``victim_cost`` hook prices each candidate (libmpk
    feeds it per-vkey mean reload cycles from the obs cost table, with
    +inf for any key a parked waiter wants — see
    ``Libmpk._victim_costs``).  Candidates arrive oldest-first; the
    policy restricts itself to the *oldest half* (the cohort LRU deems
    unlikely to be reused) and evicts the cheapest-to-reload key in it,
    ties falling to the oldest.  A +inf price is a contention veto: a
    demanded key is skipped — widening to the full candidate list, and
    only when *every* candidate is vetoed does the choice fall back to
    the plain oldest (someone must go).  Evicting recency-blind by raw
    cost measurably loses to LRU at scale (hot keys are exactly the
    ones reloaded), so cost only refines *within* the old cohort.
    Hits refresh recency; with no cost hook installed the policy
    degenerates to exact LRU.
    """

    name = "cost-aware"
    uses_cost = True

    def on_hit(self, lru: "OrderedDict[int, int]", vkey: int) -> None:
        lru.move_to_end(vkey)

    def choose_victim_cost(self, candidates: list[int],
                           rng: random.Random,
                           costs: list[float]) -> int:
        window = max(1, (len(candidates) + 1) // 2)
        best = None
        for i in range(window):
            if math.isinf(costs[i]):
                continue
            if best is None or costs[i] < costs[best]:
                best = i
        if best is None:
            # The whole old cohort is demanded: widen to every
            # candidate before giving up on the veto entirely.
            for i in range(window, len(candidates)):
                if math.isinf(costs[i]):
                    continue
                if best is None or costs[i] < costs[best]:
                    best = i
        if best is None:
            best = 0
        return candidates[best]


#: Name -> strategy class.  The paper uses LRU; the others exist for
#: the eviction-policy shootout (``benchmarks/`` and
#: ``python -m repro keyscale``).
EVICTION_POLICIES: dict[str, type[EvictionPolicy]] = {
    cls.name: cls for cls in (LruPolicy, FifoPolicy, RandomPolicy,
                              ClockPolicy, CostAwarePolicy)
}

#: Historical tuple of the built-in policy names (kept for callers that
#: enumerate the ablation space).
POLICIES = tuple(EVICTION_POLICIES)


class KeyCache:
    """Scheduler for the mappings between virtual and hardware keys."""

    def __init__(self, hardware_keys: list[int], evict_rate: float,
                 policy: str | EvictionPolicy = "lru",
                 seed: int = 42) -> None:
        if not hardware_keys:
            raise MpkError("key cache needs at least one hardware key")
        if not 0.0 <= evict_rate <= 1.0:
            raise MpkError(f"eviction rate must be in [0, 1]: {evict_rate}")
        if isinstance(policy, EvictionPolicy):
            self._policy = policy
        elif policy in EVICTION_POLICIES:
            self._policy = EVICTION_POLICIES[policy]()
        else:
            raise MpkError(f"unknown eviction policy: {policy!r}")
        self._free: list[int] = sorted(hardware_keys, reverse=True)
        self._all = frozenset(hardware_keys)
        # Insertion/refresh order doubles as LRU order: oldest first.
        # Under the FIFO policy lookups do not refresh, so the same
        # structure yields bind order instead.
        self._lru: OrderedDict[int, int] = OrderedDict()  # vkey -> pkey
        self.evict_rate = evict_rate
        # Exposed as the *name* so procfs/report serialization stays a
        # plain string whether a name or a strategy object was passed.
        self.policy = self._policy.name
        # A policy that keeps the base choose_victim takes the oldest
        # candidate, so choose_victim can stop at the first evictable
        # entry instead of listing them all.
        self._takes_oldest = (type(self._policy).choose_victim
                              is EvictionPolicy.choose_victim)
        self._rng = random.Random(seed)
        self._reserved: set[int] = set()
        # Optional victim-pricing hook: ``victim_cost(candidates)``
        # returns one float per candidate vkey.  Consulted only when
        # the policy opts in (``uses_cost``); libmpk installs its
        # reload-cost/waiter-demand pricer here at mpk_init.
        self.victim_cost = None
        # True when the most recent lookup() missed and its eviction
        # decision is still outstanding — lets should_evict_on_miss()
        # avoid double-counting that miss (see the method docstring).
        self._decision_pending = False
        self.stats_hits = 0
        self.stats_misses = 0
        self.stats_lookups = 0
        self.stats_evictions = 0
        self.stats_fallbacks = 0

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return len(self._all)

    @property
    def in_use(self) -> int:
        return len(self._lru)

    def lookup(self, vkey: int) -> int | None:
        """Return the cached hardware key for ``vkey`` (refreshing LRU
        recency), or None on a miss."""
        self.stats_lookups += 1
        pkey = self._lru.get(vkey)
        if pkey is None:
            self.stats_misses += 1
            self._decision_pending = True
            return None
        self._policy.on_hit(self._lru, vkey)
        self.stats_hits += 1
        self._decision_pending = False
        return pkey

    def peek(self, vkey: int) -> int | None:
        """lookup() without touching recency or statistics."""
        return self._lru.get(vkey)

    def cached_vkeys(self) -> list[int]:
        return list(self._lru)

    def bindings(self) -> dict[int, int]:
        """A snapshot of every vkey→pkey binding (audit use)."""
        return dict(self._lru)

    @property
    def free_keys(self) -> tuple[int, ...]:
        """The currently free hardware keys (audit use)."""
        return tuple(self._free)

    # ------------------------------------------------------------------
    # Assignment and eviction.
    # ------------------------------------------------------------------

    def assign_free(self, vkey: int) -> int | None:
        """Bind ``vkey`` to a free hardware key if one exists."""
        if vkey in self._lru:
            raise MpkError(f"vkey {vkey} is already cached")
        if not self._free:
            return None
        pkey = self._free.pop()
        self._lru[vkey] = pkey
        return pkey

    def choose_victim(self, is_evictable) -> int:
        """LRU-order scan for the first vkey whose key may be evicted.

        ``is_evictable(vkey)`` lets the caller veto pinned groups and
        the reserved execute-only key.  Raises
        :class:`MpkKeyExhaustion` when nothing can be evicted — the
        situation where the paper says ``mpk_begin`` raises and lets the
        thread decide (e.g. sleep until a key frees).
        """
        evictable = (vkey for vkey, pkey in self._lru.items()
                     if pkey not in self._reserved and is_evictable(vkey))
        uses_cost = self._policy.uses_cost and self.victim_cost is not None
        if self._takes_oldest and not uses_cost:
            # "lru" and "fifo" both take the oldest entry (they differ
            # in whether lookup() refreshed recency above): the scan
            # stops there.
            candidates = list(itertools.islice(evictable, 1))
        else:
            candidates = list(evictable)
        if not candidates:
            raise MpkKeyExhaustion(
                "all hardware protection keys are pinned or reserved")
        # "random" draws from the cache's seeded RNG so runs stay
        # reproducible.  A cost-using policy gets the victim_cost
        # hook's per-candidate prices; without a hook it falls back to
        # the cost-free path.
        if uses_cost:
            costs = list(self.victim_cost(candidates))
            if len(costs) != len(candidates):
                raise MpkError(
                    f"victim_cost hook returned {len(costs)} costs for "
                    f"{len(candidates)} candidates")
            return self._policy.choose_victim_cost(candidates, self._rng,
                                                   costs)
        return self._policy.choose_victim(candidates, self._rng)

    def evict(self, vkey: int) -> int:
        """Remove ``vkey``'s binding; its key becomes immediately
        reassignable by the caller (not returned to the free list)."""
        try:
            pkey = self._lru.pop(vkey)
        except KeyError:
            raise MpkError(f"vkey {vkey} is not cached") from None
        self.stats_evictions += 1
        self._policy.on_evict(vkey)
        return pkey

    def bind(self, vkey: int, pkey: int) -> None:
        """Bind ``vkey`` to a key obtained from :meth:`evict`.

        Only a *limbo* key (evicted, not yet rebound) may be bound:
        binding a free, reserved, or already-bound key would put it in
        two pools at once and silently break the partition invariant —
        each is rejected loudly instead.
        """
        if pkey not in self._all:
            raise MpkError(f"pkey {pkey} is not managed by this cache")
        if vkey in self._lru:
            raise MpkError(f"vkey {vkey} is already cached")
        if pkey in self._free:
            raise MpkError(
                f"pkey {pkey} is free — claim it via assign_free, "
                f"not bind")
        if pkey in self._reserved:
            raise MpkError(f"pkey {pkey} is reserved")
        if pkey in self._lru.values():
            raise MpkError(f"pkey {pkey} is already bound")
        self._lru[vkey] = pkey

    def refund(self, pkey: int) -> None:
        """Return a key obtained from :meth:`evict` to the free pool
        *without* binding it (crash-recovery path: the eviction's page
        work completed but the new tenant's load failed)."""
        if pkey not in self._all:
            raise MpkError(f"pkey {pkey} is not managed by this cache")
        if pkey in self._reserved:
            # Refunding a reserved key would land it in both the
            # reserved and free pools; unreserve() is the only exit.
            raise MpkError(f"pkey {pkey} is reserved, not in limbo")
        if pkey in self._lru.values() or pkey in self._free:
            raise MpkError(f"pkey {pkey} is not in limbo")
        self._free.append(pkey)

    def release(self, vkey: int) -> int:
        """Unbind ``vkey`` and return its key to the free pool
        (mpk_munmap path)."""
        pkey = self.evict(vkey)
        self.stats_evictions -= 1  # not a capacity eviction
        self._free.append(pkey)
        return pkey

    def check_partition(self) -> str | None:
        """The key-partition invariant (obs audit hook): the bound,
        free, and reserved pools are disjoint and together cover every
        hardware key exactly once.  A key in limbo between
        :meth:`evict` and :meth:`bind` is a transient inside a single
        libmpk call (refunded or rebound before control returns), so
        an audit never legitimately observes one.  Returns None when
        consistent, else a description.
        """
        bound = list(self._lru.values())
        if len(bound) != len(set(bound)):
            return (f"hardware key double-booked: bindings "
                    f"{dict(self._lru)}")
        counted = len(bound) + len(self._free) + len(self._reserved)
        covered = set(bound) | set(self._free) | self._reserved
        if counted != len(self._all) or covered != self._all:
            return (f"key partition broken: {len(bound)} bound + "
                    f"{len(self._free)} free + {len(self._reserved)} "
                    f"reserved != capacity {len(self._all)} "
                    f"(bound={sorted(bound)} free={sorted(self._free)} "
                    f"reserved={sorted(self._reserved)})")
        return None

    # ------------------------------------------------------------------
    # Eviction-rate policy.
    # ------------------------------------------------------------------

    def should_evict_on_miss(self) -> bool:
        """Deterministic eviction-rate gate for mpk_mprotect misses.

        The error-diffusion counter is the *unified* miss counter
        ``stats_misses``: a miss recorded by :meth:`lookup` leaves its
        decision pending and is consumed here, while a standalone call
        (policy unit tests exercise the gate without a cache) counts
        as its own miss.  Historically a private ``_miss_count`` only
        saw mprotect-miss decisions, so it drifted from ``stats_misses``
        whenever ``mpk_begin`` paths missed — the diffusion pattern then
        depended on which API observed the miss instead of on the global
        miss ordinal.
        """
        if self._decision_pending:
            self._decision_pending = False
        else:
            self.stats_misses += 1
        n = self.stats_misses
        before = math.floor((n - 1) * self.evict_rate)
        after = math.floor(n * self.evict_rate)
        decided = after > before
        if not decided:
            self.stats_fallbacks += 1
        return decided

    def check_counters(self) -> str | None:
        """The ``hits + misses == lookups`` invariant (obs audit hook).

        Returns None when consistent, else a description.  Misses
        synthesized by standalone :meth:`should_evict_on_miss` calls
        (no preceding lookup) are legal for policy unit tests but break
        the identity, which is exactly what the audit should flag in
        production use.
        """
        if self.stats_hits + self.stats_misses == self.stats_lookups:
            return None
        return (f"keycache counters drifted: hits={self.stats_hits} + "
                f"misses={self.stats_misses} != lookups="
                f"{self.stats_lookups}")

    # ------------------------------------------------------------------
    # Reservation (execute-only key, §4.2).
    # ------------------------------------------------------------------

    def reserve_free_key(self) -> int:
        """Permanently reserve a free hardware key (never evicted)."""
        if not self._free:
            raise MpkKeyExhaustion("no free hardware key to reserve")
        pkey = self._free.pop()
        self._reserved.add(pkey)
        return pkey

    def reserve_key(self, pkey: int) -> None:
        """Mark a key obtained via :meth:`evict` as reserved."""
        if pkey not in self._all:
            raise MpkError(f"pkey {pkey} is not managed by this cache")
        if pkey in self._reserved:
            raise MpkError(f"pkey {pkey} is already reserved")
        self._reserved.add(pkey)

    def unreserve(self, pkey: int) -> None:
        """Return a reserved key to the pool (all exec-only pages gone)."""
        if pkey not in self._reserved:
            raise MpkError(f"pkey {pkey} is not reserved")
        self._reserved.remove(pkey)
        self._free.append(pkey)

    @property
    def reserved_keys(self) -> frozenset[int]:
        return frozenset(self._reserved)
