"""The network plane: ordering, FIFO links, charges, partitions."""

import pytest

from repro import Machine
from repro.net.plane import Link, NetworkPlane


@pytest.fixture
def plane():
    plane = NetworkPlane(Link(latency_cycles=1000.0, cycles_per_byte=1.0,
                              per_message_cycles=100.0, rx_cycles=50.0))
    plane.add_endpoint("a")
    plane.add_endpoint("b")
    return plane


def drain(plane):
    while plane.step():
        pass


class TestDelivery:
    def test_messages_deliver_in_time_then_seq_order(self, plane):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append(
            (m.payload["n"], now)))
        plane.send("a", "c", "x", {"n": 1}, size_bytes=0, now=500.0)
        plane.send("b", "c", "x", {"n": 2}, size_bytes=0, now=0.0)
        drain(plane)
        # b's message left earlier, so it lands earlier.
        assert got == [(2, 1000.0), (1, 1500.0)]

    def test_same_instant_resolves_by_send_order(self, plane):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append(
            m.payload["n"]))
        plane.send("a", "c", "x", {"n": 1}, size_bytes=0, now=0.0)
        plane.send("b", "c", "x", {"n": 2}, size_bytes=0, now=0.0)
        drain(plane)
        assert got == [1, 2]

    def test_per_link_fifo_no_overtaking(self, plane):
        # A big message followed by a small one on the same link: the
        # small one's natural delivery time is earlier, but FIFO clamps
        # it behind the big one.
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append(
            (m.payload["n"], now)))
        plane.send("a", "c", "x", {"n": 1}, size_bytes=5000, now=0.0)
        plane.send("a", "c", "x", {"n": 2}, size_bytes=0, now=1.0)
        drain(plane)
        assert [n for n, _ in got] == [1, 2]
        assert got[1][1] >= got[0][1]

    def test_timers_interleave_with_deliveries(self, plane):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append("msg"))
        plane.at(500.0, lambda now: got.append("timer"))
        plane.send("a", "c", "x", {}, size_bytes=0, now=0.0)  # lands 1000
        drain(plane)
        assert got == ["timer", "msg"]
        assert plane.now == 1000.0

    @pytest.mark.parametrize("timer_first", [True, False])
    def test_timer_and_message_at_one_instant_pop_by_creation(
            self, plane, timer_first):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append("msg"))

        def timer():
            plane.at(1000.0, lambda now: got.append("timer"))

        def message():
            plane.send("a", "c", "x", {}, size_bytes=0, now=0.0)

        first, second = (timer, message) if timer_first \
            else (message, timer)
        first()
        second()
        drain(plane)
        assert got == (["timer", "msg"] if timer_first
                       else ["msg", "timer"])


class TestCharges:
    def test_tx_and_rx_charged_to_the_right_clocks(self):
        sender = Machine(num_cores=1, name="s")
        receiver = Machine(num_cores=1, name="r")
        plane = NetworkPlane(Link(latency_cycles=1000.0,
                                  cycles_per_byte=1.0,
                                  per_message_cycles=100.0,
                                  rx_cycles=50.0))
        plane.add_endpoint("s", clock=sender.clock)
        plane.add_endpoint("r", clock=receiver.clock,
                           handler=lambda m, now: None)
        plane.send("s", "r", "x", {}, size_bytes=10, now=0.0)
        drain(plane)
        assert sender.obs.aggregator.cycles["net.link.tx"] == 110.0
        assert receiver.obs.aggregator.cycles["net.link.rx"] == 50.0
        # Propagation is pure virtual-time delay: conservation holds on
        # both machines with no phantom "wire cycles" anywhere.
        assert sender.obs.audit()[0] and receiver.obs.audit()[0]


class TestFailures:
    def test_partitioned_link_drops_at_send(self, plane):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append(m))
        plane.partition("a", "c")
        assert plane.send("a", "c", "x", {}, size_bytes=0, now=0.0) is None
        drain(plane)
        assert got == [] and plane.dropped == 1
        plane.heal("a", "c")
        assert plane.send("a", "c", "x", {}, size_bytes=0, now=0.0)
        drain(plane)
        assert len(got) == 1

    def test_partition_is_bidirectional(self, plane):
        plane.partition("a", "b")
        assert plane.partitioned("b", "a")

    def test_down_receiver_drops_in_flight_messages(self, plane):
        got = []
        plane.add_endpoint("c", handler=lambda m, now: got.append(m))
        plane.send("a", "c", "x", {}, size_bytes=0, now=0.0)
        plane.set_up("c", False)           # dies mid-flight
        drain(plane)
        assert got == [] and plane.dropped == 1

    def test_down_sender_cannot_transmit(self, plane):
        plane.set_up("a", False)
        assert plane.send("a", "b", "x", {}, size_bytes=0, now=0.0) is None
        assert plane.dropped == 1
