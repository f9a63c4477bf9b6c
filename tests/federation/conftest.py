"""Shared helpers for the federation suite.

Every test here drives a real multi-domain control plane: N fully
wired testbeds on one bus, the superscheduling protocol between them,
and (in the crash tests) the PR-5 journal machinery underneath. The
shared fixture shapes one deliberately lopsided federation — ``d1``
under-provisioned so big guaranteed requests *must* delegate — because
the cross-domain paths are what this suite exists to exercise.
"""

from __future__ import annotations

import pytest

from repro.federation.plane import FederatedControlPlane
from repro.federation.sweep import SMALL_DOMAIN
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest


def guaranteed_request(client: str, cpu: int, start: float = 0.0,
                       duration: float = 60.0) -> ServiceRequest:
    """A guaranteed-class request sized by ``cpu``."""
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 1024))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=start, end=start + duration)


def best_effort_request(client: str, cpu: int, start: float = 0.0,
                        duration: float = 50.0) -> ServiceRequest:
    """A best-effort request for ``cpu`` processors."""
    return ServiceRequest(
        client=client, service_name="*",
        service_class=ServiceClass.BEST_EFFORT,
        specification=QoSSpecification.of(
            exact_parameter(Dimension.CPU, cpu)),
        start=start, end=start + duration)


@pytest.fixture
def plane() -> FederatedControlPlane:
    """Three domains; ``d1`` too small to hold a cpu>=4 request."""
    return FederatedControlPlane(
        domains=3, seed=0, capacity={"d1": dict(SMALL_DOMAIN)})
