"""The program's layers as the traced run sees them.

:func:`boundaries` names the public functions timed at each layer
boundary; :func:`per_layer` turns the recorded spans into the
per-layer metrics that ``BENCHMARK.json`` lists. Only layer entry
points are wrapped: wrapping inner helpers (``draw``,
``ResourceVector`` arithmetic) would cost more than the helpers.

A metric is per operation unless its name ends in ``_end`` (a gauge
read when a traced round ends) or ``_ratio``/``_pct``/``_p50_ms``/
``.share``. An operation is one admission on the admission workloads
and one compiled session on ``adaptation_replay``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence

from .trace import Boundary, SpanRecorder, self_times

#: Layers in the order reports list them.
LAYERS = (
    "xmlmsg", "core.gateway", "core.discovery", "registry", "core.broker",
    "rsl", "core.reservation_system", "gara", "network", "core.capacity",
    "core.scenarios", "core.optimizer", "monitoring", "recovery", "obs",
    "telemetry", "federation", "sim", "workloads",
)


class Observations:
    """Counts the boundary hooks take from arguments and results."""

    def __init__(self) -> None:
        self.wire_bytes = 0
        self.retries = 0
        self.rsl_renders = 0
        self.rsl_texts: set = set()
        self.apply_tries = 0
        self.apply_ok = 0
        self.federation: Dict[str, List[int]] = defaultdict(list)
        self.delegations = 0
        self.reroutes = 0

    def wire(self, args):
        def finish(text, _duration):
            self.wire_bytes += len(text)
        return finish

    def call(self, args):
        stats = args[0].stats
        before = stats.retries

        def finish(_reply, _duration):
            self.retries += stats.retries - before
        return finish

    def rsl(self, args):
        def finish(text, _duration):
            self.rsl_renders += 1
            self.rsl_texts.add(text)
        return finish

    def apply(self, args):
        def finish(ok, _duration):
            self.apply_tries += 1
            self.apply_ok += bool(ok)
        return finish

    def federate(self, args):
        stats = args[0].stats
        delegated, rerouted = stats["delegated"], stats["rerouted"]

        def finish(_outcome, duration):
            new_delegations = stats["delegated"] - delegated
            new_reroutes = stats["rerouted"] - rerouted
            self.delegations += new_delegations
            self.reroutes += new_reroutes
            kind = ("rerouted" if new_reroutes else
                    "delegated" if new_delegations else "local")
            self.federation[kind].append(duration)
        return finish


def boundaries(seen: Observations) -> List[Boundary]:
    """Every timed boundary, in span-name-id order."""
    table = [
        ("xmlmsg", "xmlmsg.request", "repro.xmlmsg.bus:MessageBus.request",
         None),
        ("xmlmsg", "xmlmsg.to_xml", "repro.xmlmsg.envelope:Envelope.to_xml",
         seen.wire),
        ("xmlmsg", "xmlmsg.from_xml",
         "repro.xmlmsg.envelope:Envelope.from_xml", None),
        ("xmlmsg", "xmlmsg.call",
         "repro.xmlmsg.resilient:ResilientCaller.call", seen.call),
        ("core.gateway", "core.gateway.request_service",
         "repro.core.gateway:ClientStub.request_service", None),
        ("core.gateway", "core.gateway.accept_offer",
         "repro.core.gateway:ClientStub.accept_offer", None),
        ("core.discovery", "core.discovery.resilient",
         "repro.core.discovery:ResilientDiscovery.find", None),
        ("core.discovery", "core.discovery.direct",
         "repro.core.discovery:DirectDiscovery.find", None),
        ("registry", "registry.find",
         "repro.registry.uddie:UddieRegistry.find", None),
        ("core.broker", "core.broker.negotiate",
         "repro.core.broker:AQoSBroker.negotiate", None),
        ("core.broker", "core.broker.establish",
         "repro.core.broker:AQoSBroker.establish", None),
        ("core.broker", "core.broker.request_service",
         "repro.core.broker:AQoSBroker.request_service", None),
        ("core.broker", "core.broker.request_services",
         "repro.core.broker:AQoSBroker.request_services", None),
        ("rsl", "rsl.reservation_rsl", "repro.rsl.builder:reservation_rsl",
         seen.rsl),
        ("rsl", "rsl.parse_rsl", "repro.rsl.parser:parse_rsl", None),
        ("rsl", "rsl.vector_from_rsl", "repro.rsl.builder:vector_from_rsl",
         None),
    ]
    for method in ("reserve", "confirm", "cancel", "modify_compute"):
        table.append(("core.reservation_system",
                      f"core.reservation_system.{method}",
                      f"repro.core.reservation_system:ReservationSystem."
                      f"{method}", None))
    for method in ("create", "commit", "bind", "unbind", "cancel", "modify",
                   "status"):
        table.append(("gara", f"gara.{method}",
                      f"repro.gara.api:GaraApi.reservation_{method}", None))
    for method in ("allocate", "resize", "release"):
        table.append(("network", f"network.{method}",
                      f"repro.network.nrm:NetworkResourceManager.{method}",
                      None))
    for method in ("rebalance", "set_guaranteed_demand", "admit_guaranteed",
                   "remove_guaranteed"):
        table.append(("core.capacity", f"core.capacity.{method}",
                      f"repro.core.capacity:CapacityPartition.{method}",
                      None))
    for method in ("free_capacity_for", "on_service_termination",
                   "on_degradation"):
        table.append(("core.scenarios", f"core.scenarios.{method}",
                      f"repro.core.scenarios:ScenarioEngine.{method}",
                      None))
    table += [
        ("core.optimizer", "core.optimizer.run_optimizer",
         "repro.core.broker:AQoSBroker.run_optimizer", None),
        ("core.optimizer", "core.optimizer.try_apply_point",
         "repro.core.broker:AQoSBroker.try_apply_point", seen.apply),
        ("core.optimizer", "core.optimizer.apply_point",
         "repro.core.broker:AQoSBroker.apply_point", None),
        ("monitoring", "monitoring.conformance_test",
         "repro.monitoring.verifier:SlaVerifier.conformance_test", None),
        ("monitoring", "monitoring.measure",
         "repro.monitoring.verifier:SlaVerifier.measure", None),
        ("recovery", "recovery.append",
         "repro.recovery.journal:Journal.append", None),
        ("recovery", "recovery.begin_group",
         "repro.recovery.journal:Journal.begin_group", None),
        ("recovery", "recovery.commit_group",
         "repro.recovery.journal:Journal.commit_group", None),
        ("obs", "obs.decide", "repro.obs.decisions:DecisionLog.decide", None),
        ("telemetry", "telemetry.start", "repro.telemetry.spans:Tracer.start",
         None),
        ("telemetry", "telemetry.on_rebalance",
         "repro.telemetry.capacity:CapacityGauges.on_rebalance", None),
        ("federation", "federation.request_service",
         "repro.federation.plane:FederatedControlPlane.request_service",
         seen.federate),
        ("sim", "sim.run", "repro.sim.engine:Simulator.run", None),
        ("sim", "sim.schedule", "repro.sim.engine:Simulator.schedule", None),
        ("sim", "sim.schedule_at", "repro.sim.engine:Simulator.schedule_at",
         None),
        ("workloads", "workloads.compile",
         "repro.workloads.scenarios:ScenarioSpec.compile", None),
    ]
    return [Boundary(layer, name, target, observe)
            for layer, name, target, observe in table]


def end_state(testbeds: Sequence) -> Dict[str, float]:
    """Layer gauges read from the systems a traced round leaves."""
    live = holdings = records = journal_bytes = 0
    for testbed in testbeds:
        broker = testbed.broker
        live += len(broker.compute_rm.gara.live_reservations())
        holdings += len(broker.partition.guaranteed_holdings())
        if testbed.decisions is not None:
            records += len(testbed.decisions)
        if testbed.journal is not None:
            journal_bytes += sum(len(data) for data
                                 in testbed.journal.store.records())
    return {"gara.live_reservations_end": float(live),
            "core.capacity.holdings_end": float(holdings),
            "obs.records_end": float(records),
            "recovery.bytes_end": float(journal_bytes)}


def _median_ms(durations_ns: Sequence[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def per_layer(recorder: SpanRecorder, bounds: Sequence[Boundary],
              seen: Observations, *, ops: int, recorded_ns: int,
              ends: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics from every span the recorder holds.

    ``recorded_ns`` is the wall time the recorder was active, the base
    of each ``<layer>.share``; ``ends`` holds one :func:`end_state`
    per traced round (their median is reported).
    """
    count: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, int] = defaultdict(int)
    own: Dict[str, int] = defaultdict(int)
    layer_own: Dict[str, int] = defaultdict(int)
    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    for index, name_id in enumerate(recorder.name):
        boundary = bounds[name_id]
        count[boundary.name] += 1
        inclusive[boundary.name] += recorder.end[index] - recorder.start[index]
        own[boundary.name] += selfs[index]
        layer_own[boundary.layer] += selfs[index]

    def per_op_ms(total_ns: int) -> float:
        return total_ns / 1e6 / ops

    def calls(*names: str) -> float:
        return sum(count[name] for name in names) / ops

    def layer_ms(layer: str) -> float:
        return per_op_ms(layer_own[layer])

    metrics = {
        "xmlmsg.calls": calls("xmlmsg.request"),
        "xmlmsg.self_ms": layer_ms("xmlmsg"),
        "xmlmsg.serialize_ms": per_op_ms(inclusive["xmlmsg.to_xml"]
                                         + inclusive["xmlmsg.from_xml"]),
        "xmlmsg.wire_bytes": seen.wire_bytes / ops,
        "xmlmsg.retries": seen.retries / ops,
        "core.gateway.self_ms": layer_ms("core.gateway"),
        "core.discovery.calls": calls("core.discovery.resilient",
                                      "core.discovery.direct"),
        "core.discovery.self_ms": layer_ms("core.discovery"),
        "registry.self_ms": layer_ms("registry"),
        "core.broker.negotiate_self_ms": per_op_ms(
            own["core.broker.negotiate"]),
        "core.broker.establish_self_ms": per_op_ms(
            own["core.broker.establish"]),
        "rsl.calls": calls("rsl.reservation_rsl", "rsl.parse_rsl",
                           "rsl.vector_from_rsl"),
        "rsl.self_ms": layer_ms("rsl"),
        "rsl.distinct_ratio": (len(seen.rsl_texts) / seen.rsl_renders
                               if seen.rsl_renders else 0.0),
        "core.reservation_system.self_ms": layer_ms(
            "core.reservation_system"),
        "gara.calls": sum(count[bound.name] for bound in bounds
                          if bound.layer == "gara") / ops,
        "gara.self_ms": layer_ms("gara"),
        "network.self_ms": layer_ms("network"),
        "core.capacity.rebalances": calls("core.capacity.rebalance"),
        "core.capacity.rebalance_ms": per_op_ms(
            inclusive["core.capacity.rebalance"]),
        "core.scenarios.calls": sum(count[bound.name] for bound in bounds
                                    if bound.layer == "core.scenarios") / ops,
        "core.scenarios.self_ms": layer_ms("core.scenarios"),
        "core.optimizer.runs": calls("core.optimizer.run_optimizer"),
        "core.optimizer.self_ms": layer_ms("core.optimizer"),
        "core.broker.apply_point_ok_ratio": (
            seen.apply_ok / seen.apply_tries if seen.apply_tries else 0.0),
        "monitoring.tests": calls("monitoring.conformance_test"),
        "monitoring.self_ms": layer_ms("monitoring"),
        "recovery.records": calls("recovery.append"),
        "recovery.self_ms": layer_ms("recovery"),
        "obs.decisions": calls("obs.decide"),
        "obs.self_ms": layer_ms("obs"),
        "telemetry.spans": calls("telemetry.start"),
        "telemetry.self_ms": layer_ms("telemetry"),
        "federation.local_p50_ms": _median_ms(seen.federation["local"]),
        "federation.delegated_p50_ms": _median_ms(
            seen.federation["delegated"]),
        "federation.rerouted_p50_ms": _median_ms(seen.federation["rerouted"]),
        "federation.delegations": seen.delegations / ops,
        "federation.reroutes": seen.reroutes / ops,
        "sim.events": calls("sim.schedule", "sim.schedule_at"),
        "sim.self_ms": layer_ms("sim"),
        "workloads.compile_ms": per_op_ms(inclusive["workloads.compile"]),
    }
    for key in ends[0]:
        metrics[key] = statistics.median(end[key] for end in ends)
    attributed = 0.0
    for layer in LAYERS:
        share = 100.0 * layer_own[layer] / recorded_ns
        metrics[f"{layer}.share"] = share
        attributed += share
    metrics["unattributed.share"] = 100.0 - attributed
    return metrics
