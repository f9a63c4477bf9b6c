"""Differential oracle: a broker is a federation of one.

``FederatedControlPlane(domains=1)`` runs the same admission pipeline
as a bare :func:`~repro.core.testbed.build_testbed` broker, wrapped in
the bus, the journal and the delegation machinery. With no peer to
delegate to, every verdict and every agreed operating point must match
the bare broker's, for any mix of guaranteed, controlled-load and
best-effort requests.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.testbed import build_testbed
from repro.federation.plane import FederatedControlPlane
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest

#: (class, floor cpu, extra cpu above the floor, duration, gap before).
request_specs = st.tuples(
    st.sampled_from([ServiceClass.GUARANTEED,
                     ServiceClass.CONTROLLED_LOAD,
                     ServiceClass.BEST_EFFORT]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([10.0, 40.0, 120.0]),
    st.sampled_from([0.0, 0.0, 5.0, 30.0]),
)


def build_request(index: int, spec, start: float) -> ServiceRequest:
    service_class, floor, extra, duration, _gap = spec
    if service_class is ServiceClass.CONTROLLED_LOAD and extra:
        cpu = range_parameter(Dimension.CPU, floor, floor + extra)
    else:
        cpu = exact_parameter(Dimension.CPU, floor)
    return ServiceRequest(
        client=f"u{index}",
        service_name=("*" if service_class is ServiceClass.BEST_EFFORT
                      else "simulation-service"),
        service_class=service_class,
        specification=QoSSpecification.of(cpu),
        start=start, end=start + duration)


def agreed(repository, sla_id):
    if sla_id is None:
        return None
    return dict(repository.get(sla_id).agreed_point)


@settings(max_examples=60, deadline=None)
@given(st.lists(request_specs, min_size=1, max_size=60))
def test_federation_of_one_decides_like_a_bare_broker(mix):
    bare = build_testbed()
    plane = FederatedControlPlane(domains=1)
    federated = plane.domains["d1"].testbed
    for index, spec in enumerate(mix):
        gap = spec[-1]
        bare.sim.run(until=bare.sim.now + gap)
        plane.sim.run(until=plane.sim.now + gap)
        assert bare.sim.now == plane.sim.now
        request = build_request(index, spec, bare.sim.now)
        alone = bare.broker.request_service(request)
        one = plane.request_service(request)
        assert one.accepted == alone.accepted, (index, spec)
        assert not one.delegated
        alone_id = alone.sla.sla_id if alone.sla is not None else None
        assert one.sla_id == alone_id
        assert agreed(federated.repository, one.sla_id) \
            == agreed(bare.repository, alone_id)
    assert federated.partition.effective_sizes() \
        == bare.partition.effective_sizes()
    assert federated.partition.committed_total() \
        == bare.partition.committed_total()
    assert federated.partition.best_effort_served() \
        == bare.partition.best_effort_served()
