"""Domain-level fault injection: crashes, partitions, the bus contract."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.errors import FederationError, ValidationError
from repro.federation.faults import DomainChaos, PartitionWindow
from repro.xmlmsg.envelope import Envelope


def make_chaos(now=lambda: 0.0) -> DomainChaos:
    def domain_of(endpoint: str):
        if ":" in endpoint:
            return endpoint.rsplit(":", 1)[1]
        return None
    return DomainChaos(now, domain_of=domain_of)


def envelope(sender: str, recipient: str) -> Envelope:
    return Envelope(sender=sender, recipient=recipient,
                    action="fed_heartbeat", body=ET.Element("Ping"))


class TestCrashSchedule:
    def test_crash_and_restore(self):
        chaos = make_chaos()
        chaos.crash("d2")
        assert chaos.is_crashed("d2")
        assert chaos.crashed == ["d2"]
        chaos.restore("d2")
        assert not chaos.is_crashed("d2")
        assert chaos.crashed == []

    def test_double_crash_raises(self):
        chaos = make_chaos()
        chaos.crash("d2")
        with pytest.raises(FederationError):
            chaos.crash("d2")

    def test_restore_of_live_domain_raises(self):
        with pytest.raises(FederationError):
            make_chaos().restore("d1")

    def test_crashed_is_name_ordered(self):
        chaos = make_chaos()
        chaos.crash("d3")
        chaos.crash("d1")
        assert chaos.crashed == ["d1", "d3"]


class TestPartitionWindow:
    def test_severs_only_across_the_boundary_inside_the_window(self):
        window = PartitionWindow(frozenset({"d1"}), 10.0, 20.0)
        assert window.severs("d1", "d2", 10.0)
        assert window.severs("d2", "d1", 15.0)
        assert not window.severs("d2", "d3", 15.0)   # both outside
        assert not window.severs("d1", "d1", 15.0)   # same side
        assert not window.severs("d1", "d2", 9.9)    # before
        assert not window.severs("d1", "d2", 20.0)   # half-open end

    def test_backwards_window_raises(self):
        with pytest.raises(FederationError):
            make_chaos().partition({"d1"}, 20.0, 10.0)


class TestBusContract:
    def test_crashed_domain_drops_both_directions(self):
        chaos = make_chaos()
        chaos.crash("d2")
        assert chaos.decide(envelope("fed:d1", "fed:d2"), "request").drop
        assert chaos.decide(envelope("fed:d2", "fed:d1"), "request").drop
        assert not chaos.decide(envelope("fed:d1", "fed:d3"),
                                "request").drop

    def test_partition_drops_cross_group_traffic_in_window(self):
        clock = [0.0]
        chaos = make_chaos(now=lambda: clock[0])
        chaos.partition({"d1"}, 10.0, 20.0)
        assert not chaos.decide(envelope("fed:d1", "fed:d2"),
                                "request").drop
        clock[0] = 15.0
        assert chaos.decide(envelope("fed:d1", "fed:d2"), "request").drop
        assert not chaos.decide(envelope("fed:d2", "fed:d3"),
                                "request").drop
        clock[0] = 25.0
        assert not chaos.decide(envelope("fed:d1", "fed:d2"),
                                "request").drop

    def test_client_endpoints_are_outside_every_domain(self):
        chaos = make_chaos()
        chaos.crash("d1")
        # An endpoint with no domain suffix never matches a crash.
        assert not chaos.decide(envelope("client", "uddie"),
                                "request").drop

    def test_stats_count_decisions_and_drops(self):
        chaos = make_chaos()
        chaos.crash("d2")
        chaos.decide(envelope("fed:d1", "fed:d2"), "request")
        chaos.decide(envelope("fed:d1", "fed:d3"), "request")
        assert chaos.stats.decisions == 2
        assert chaos.stats.dropped == 1

    def test_unknown_leg_raises(self):
        with pytest.raises(ValidationError):
            make_chaos().decide(envelope("fed:d1", "fed:d2"), "sideways")
