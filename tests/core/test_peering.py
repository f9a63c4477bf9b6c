"""Tests for AQoS-to-AQoS request forwarding (Figure 1 peering).

Cross-domain forwarding runs through the federation plane: a request
the home broker refuses is delegated to a peer domain that bids for it.
"""

from __future__ import annotations

from repro.federation.plane import FederatedControlPlane
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest


def compute_request(client, cpu, end=100.0):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, cpu))
    return ServiceRequest(client=client,
                          service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=0.0, end=end)


class TestForwarding:
    def test_no_loop_when_everyone_is_full(self):
        pair = FederatedControlPlane(domains=2, seed=0)
        for i in range(4):  # 28 > 15+15 committed across both domains
            assert pair.request_service(compute_request(f"fill{i}", 7),
                                        home="d1").accepted
        outcome = pair.request_service(compute_request("extra", 7),
                                       home="d1")
        assert not outcome.accepted  # refused everywhere, no recursion
        assert outcome.domain is None
        assert pair.stats["rejected"] == 1

    def test_forwarding_traced(self):
        pair = FederatedControlPlane(domains=2, seed=0)
        for i in range(3):
            pair.request_service(compute_request(f"c{i}", 7), home="d1")
        rows = pair.trace.filter(category="message",
                                 contains="fed_delegate")
        assert rows

    def test_standalone_broker_still_refuses(self, testbed):
        first = testbed.broker.request_service(
            compute_request("a", 10))
        second = testbed.broker.request_service(
            compute_request("b", 10))
        assert first.accepted
        assert not second.accepted
