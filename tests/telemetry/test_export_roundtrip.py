"""Telemetry export round-trips: JSONL re-export and the Prometheus
snapshot schema, both pinned byte-for-byte."""

from __future__ import annotations

import json

import pytest

from repro.core.testbed import build_testbed, install_telemetry
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest
from repro.telemetry.events import EventStream, TelemetryEvent

#: Metric families every admission-bearing run must expose, with their
#: pinned Prometheus types.  Extending telemetry may add families, but
#: these must never silently vanish or change kind.
PINNED_FAMILIES = {
    "repro_capacity_allocated": "gauge",
    "repro_capacity_effective": "gauge",
    "repro_capacity_idle": "gauge",
    "repro_capacity_rebalances_total": "counter",
    "repro_capacity_utilization": "gauge",
    "repro_gara_cpu_reserved": "gauge",
    "repro_gara_operations_total": "counter",
    "repro_sla_active_sessions": "gauge",
}


@pytest.fixture
def telemetry():
    testbed = build_testbed()
    hub = install_telemetry(testbed)
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 256))
    outcome = testbed.broker.request_service(ServiceRequest(
        client="user1", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=100.0))
    assert outcome.accepted
    testbed.sim.run(until=50.0)
    return hub


class TestJsonlRoundTrip:
    def test_parse_and_reemit_is_byte_identical(self, telemetry):
        exported = telemetry.stream.to_jsonl()
        assert exported, "admission run produced no events"
        rebuilt = EventStream()
        for line in exported.splitlines():
            row = json.loads(line)
            rebuilt.append(TelemetryEvent(
                time=row["time"], category=row["category"],
                message=row["message"], details=row["details"]))
        assert rebuilt.to_jsonl() == exported

    def test_every_line_is_self_contained_json(self, telemetry):
        for line in telemetry.stream.to_jsonl().splitlines():
            row = json.loads(line)
            assert set(row) == {"time", "category", "message",
                                "details"}
            assert isinstance(row["details"], dict)

    def test_export_does_not_consume_the_stream(self, telemetry):
        first = telemetry.stream.to_jsonl()
        second = telemetry.stream.to_jsonl()
        assert first == second
        assert len(telemetry.stream) == len(first.splitlines())


class TestPrometheusSchema:
    def test_pinned_families_present_with_pinned_types(self, telemetry):
        text = telemetry.metrics.render_prometheus()
        types = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(" ")
                types[family] = kind
        for family, kind in PINNED_FAMILIES.items():
            assert types.get(family) == kind, (
                f"{family} missing or changed type "
                f"(got {types.get(family)!r}, pinned {kind!r})")

    def test_every_sample_row_belongs_to_a_typed_family(self, telemetry):
        text = telemetry.metrics.render_prometheus()
        declared = set()
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE "):
                declared.add(line.split(" ")[2])
                continue
            assert not line.startswith("#"), f"unexpected comment {line}"
            name = line.split("{")[0].split(" ")[0]
            assert name in declared, f"sample {name} has no TYPE header"
            value = line.rsplit(" ", 1)[1]
            float(value)  # parses as a Prometheus sample value

    def test_snapshot_is_repeatable(self, telemetry):
        assert (telemetry.metrics.render_prometheus()
                == telemetry.metrics.render_prometheus())
