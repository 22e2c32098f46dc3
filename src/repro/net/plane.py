"""The deterministic network plane: links, messages, timers.

One :class:`NetworkPlane` connects every endpoint in a simulated
cluster through one :class:`Link` cost model.  It owns a single event
heap of ``(time, seq, message, callback)`` tuples — message deliveries
and timers — on the same global virtual-time axis
the serving engines' per-core timelines advance on, so the cluster
driver can interleave "node X executes its next slice" with "the
response from node Y arrives" by comparing plain floats.

Determinism contract
--------------------
* **Ordering** — events pop in ``(time, seq)`` order; ``seq`` is the
  plane-wide creation ordinal, so two events at the same instant
  resolve by who was scheduled first (``seq`` is unique, so heap
  comparisons never reach the payload).  Per-link delivery is FIFO: a
  message never overtakes an earlier message on the same ``(src,
  dst)`` link (its delivery time is clamped to the link's previous
  delivery).
* **Charges** — sending charges the *sender's* clock
  ``per_message + size_bytes * cycles_per_byte`` at ``net.link.tx``;
  delivering charges the *receiver's* clock ``rx_cycles`` at
  ``net.link.rx``.  Propagation latency is pure virtual-time delay —
  wires carry bits, they do not execute cycles — so each machine's
  conservation audit (``sum(per-site) == clock.now``) keeps holding.
* **Partitions** — a partitioned link *drops at send time* (charged,
  counted in :meth:`NetworkPlane.stats`); recovery is the
  application's problem (timeouts, retries, failover), exactly the
  failure mode the fleet client's RPC state machine exists for.
  Sends to an endpoint whose machine is down drop the same way.

Nothing here consults wall time or unseeded randomness; a plane
driven by a deterministic caller replays bit-identically.
"""

from __future__ import annotations

import heapq
import typing
from dataclasses import dataclass


@dataclass(frozen=True)
class Link:
    """The cost model every directed edge of the plane shares."""

    latency_cycles: float = 30_000.0   # propagation delay
    cycles_per_byte: float = 0.5       # serialization / bandwidth
    per_message_cycles: float = 2_000.0  # syscall + NIC doorbell (tx)
    rx_cycles: float = 1_500.0         # interrupt + protocol rx


@dataclass
class Message:
    """One datagram in flight (or delivered)."""

    src: str
    dst: str
    kind: str
    payload: dict
    size_bytes: int
    sent_at: float
    deliver_at: float
    seq: int


@dataclass
class _Endpoint:
    name: str
    tx_site: typing.Any = None   # the machine clock's net.link.tx slot
    rx_site: typing.Any = None   # ... and its net.link.rx slot
    handler: typing.Callable | None = None    # handler(msg, now)
    up: bool = True


class NetworkPlane:
    """Deterministic message fabric for a simulated cluster."""

    def __init__(self, default_link: Link | None = None) -> None:
        self.default_link = default_link or Link()
        self._endpoints: dict[str, _Endpoint] = {}
        self._partitioned: set[frozenset] = set()
        self._link_last: dict[tuple[str, str], float] = {}
        # (time, seq, message, callback): a delivery carries a message,
        # a timer a callback.
        self._heap: list[tuple] = []
        self._seq = 0
        self.now = 0.0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology -------------------------------------------------------

    def add_endpoint(self, name: str, clock=None,
                     handler: typing.Callable | None = None) -> None:
        """Register (or re-register, across node restarts) an endpoint.
        ``clock`` takes this endpoint's tx/rx charges; ``handler(msg,
        now)`` runs at each delivery."""
        tx_site = rx_site = None
        if clock is not None:
            tx_site = clock.site("net.link.tx")
            rx_site = clock.site("net.link.rx")
        self._endpoints[name] = _Endpoint(name=name, tx_site=tx_site,
                                          rx_site=rx_site, handler=handler)

    def set_up(self, name: str, up: bool) -> None:
        """Mark an endpoint's machine up/down (down endpoints neither
        send nor receive; in-flight messages to them drop on arrival)."""
        self._endpoints[name].up = up

    def is_up(self, name: str) -> bool:
        """Whether an endpoint is registered and its machine is up
        (the hint-drain scheduler consults this before burning a drain
        attempt on a peer that cannot possibly receive)."""
        endpoint = self._endpoints.get(name)
        return endpoint is not None and endpoint.up

    # -- partitions -----------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the (bidirectional) link between ``a`` and ``b``."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitioned

    # -- sending --------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: dict,
             size_bytes: int, now: float) -> Message | None:
        """Transmit one message at virtual time ``now``.

        Charges the sender, then either enqueues the delivery (FIFO
        per link) or — when the link is partitioned or either endpoint
        is down — drops it.  Returns the in-flight message, or None
        when dropped: the *sender* cannot tell the difference (it paid
        either way); only a response or a timeout reveals the loss.
        """
        sender = self._endpoints[src]
        link = self.default_link
        if sender.tx_site is not None:
            sender.tx_site.charge(
                link.per_message_cycles + size_bytes * link.cycles_per_byte)
        self.sent += 1
        receiver = self._endpoints.get(dst)
        if (self.partitioned(src, dst) or not sender.up
                or receiver is None or not receiver.up):
            self.dropped += 1
            return None
        deliver = now + link.latency_cycles \
            + size_bytes * link.cycles_per_byte
        # Per-link FIFO: never overtake the previous delivery.
        last = self._link_last.get((src, dst))
        if last is not None and deliver < last:
            deliver = last
        self._link_last[(src, dst)] = deliver
        self._seq += 1
        seq = self._seq
        message = Message(src=src, dst=dst, kind=kind, payload=payload,
                          size_bytes=size_bytes, sent_at=now,
                          deliver_at=deliver, seq=seq)
        heapq.heappush(self._heap, (deliver, seq, message, None))
        return message

    def at(self, time: float, callback: typing.Callable) -> None:
        """Schedule ``callback(now)`` at virtual time ``time`` (RPC
        timeouts, partition heals, node restarts).  Cancellation is by
        convention: the callback checks its own state and no-ops."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, None, callback))

    # -- the event loop face --------------------------------------------

    def next_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Process the earliest event; False when the heap is empty.
        ``now`` never runs backwards even if a stale entry tries."""
        if not self._heap:
            return False
        time, _, message, callback = heapq.heappop(self._heap)
        if time > self.now:
            self.now = time
        if callback is not None:
            callback(self.now)
            return True
        receiver = self._endpoints.get(message.dst)
        if receiver is None or not receiver.up:
            self.dropped += 1     # died while the message was in flight
            return True
        if receiver.rx_site is not None:
            receiver.rx_site.charge(self.default_link.rx_cycles)
        self.delivered += 1
        if receiver.handler is not None:
            receiver.handler(message, self.now)
        return True

    def stats(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "pending": len(self._heap),
            "partitions": sorted(
                tuple(sorted(pair)) for pair in self._partitioned),
        }
