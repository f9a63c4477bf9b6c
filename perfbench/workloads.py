"""The benchmark's three workloads.

Each workload draws its inputs from the seed when it is constructed,
before any timer starts, and then runs *rounds*. A round builds a
fresh system (its set-up), drives a fixed amount of work through it
(its timed phase) and checks the outcome. Rounds repeat in passes of
``PASS`` rounds, and every pass of a run does identical work, so a
faster program finishes more passes, never a different workload, and
per-round figures (set-up time, the tail percentile, memory) mean the
same thing on every commit.

All three are closed loops driven by one caller in one thread: a
G-QoSM client blocks on each reply before it sends again.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.broker import AQoSBroker
from repro.core.testbed import attach_control_plane, build_testbed
from repro.federation.plane import FederatedControlPlane
from repro.federation.recovery import federation_invariants
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal
from repro.sim.engine import Simulator
from repro.sla.document import NetworkDemand
from repro.sla.negotiation import ServiceRequest
from repro.workloads.atlas import get_scenario
from repro.workloads.replay import check_invariants, replay_scenario
from repro.workloads.scenarios import FailureTrack, ScenarioSpec

from .trace import Patches, SpanRecorder

#: One validity window for every admission request, so each slot-table
#: probe stays O(1) and the cost under test is the admission path.
WINDOW = (0.0, 1_000_000.0)

_EPSILON = 1e-6


@dataclass
class Round:
    """What one round did and how long each part took (seconds)."""

    #: Wall time of each system build (one per system the round builds).
    setups: List[float]
    #: Wall time of the timed phase.
    timed_s: float
    #: Wall time with span recording on (traced rounds only).
    recorded_s: float
    #: Wall time of each admission call.
    latencies: List[float]
    #: Operations attempted: admissions, or compiled sessions.
    ops: int
    #: Admission decisions (accepted or refused) made by the calls.
    decisions: int
    accepted: int
    revenue: float
    digest: str
    #: What the round's checks found; any entry fails the whole round.
    problems: List[str]
    #: The systems the round built, for end-of-round layer gauges.
    testbeds: list = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _digest(items) -> str:
    return hashlib.sha256(
        json.dumps(items, sort_keys=True, separators=(",", ":"))
        .encode("utf-8")).hexdigest()


def _point(point) -> List[List[object]]:
    return sorted([dimension.value, value] for dimension, value
                  in point.items())


def _request_key(request: ServiceRequest) -> List[object]:
    spec = request.specification
    network = request.network
    return [request.client, request.service_class.value,
            _point(spec.best_point()), _point(spec.worst_point()),
            request.start, request.end,
            None if network is None else [network.source_ip,
                                          network.dest_ip,
                                          network.bandwidth_mbps]]


def _committed_revenue(testbed) -> float:
    """§5.3 provider revenue the live SLAs commit to over the window."""
    return testbed.broker.ledger.provider_net(WINDOW[1])


def _partition_problems(partition) -> List[str]:
    """Conservation and no-overcommit on a capacity snapshot."""
    snapshot = partition.snapshot()
    surviving = partition.total - snapshot["failed"]
    problems = []
    effective = snapshot["eff_g"] + snapshot["eff_a"] + snapshot["eff_b"]
    if abs(effective - surviving) > _EPSILON:
        problems.append(f"capacity not conserved: {effective:g} != "
                        f"{surviving:g}")
    if snapshot["committed"] > snapshot["cg"] + _EPSILON:
        problems.append(f"committed {snapshot['committed']:g} exceeds "
                        f"Cg {snapshot['cg']:g}")
    served = snapshot["guaranteed_served"] + snapshot["best_effort_served"]
    if served > surviving + _EPSILON:
        problems.append(f"served {served:g} exceeds surviving capacity "
                        f"{surviving:g}")
    return problems


class Workload:
    """Base: inputs from a seed, then passes of identical work.

    A pass is ``PASS`` consecutive rounds; every pass repeats the same
    rounds in the same order.
    """

    name = ""
    PASS = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fingerprint(self) -> str:
        """sha256 of the generated inputs."""
        raise NotImplementedError

    def round(self, recorder: Optional[SpanRecorder]) -> Round:
        raise NotImplementedError


class GatewayLoaded(Workload):
    """XML admissions through ``ClientStub`` → ``BrokerGateway`` on one
    broker already holding ``PRELOAD`` live guaranteed bookings.

    Observability is off and the journal is in memory, so the O(n)
    capacity water-fill dominates each admission.
    """

    name = "gateway_loaded"
    #: Live GUARANTEED bookings admitted during set-up.
    PRELOAD = 3000
    PRELOAD_CHUNK = 256
    #: Timed admissions per round.
    ADMISSIONS = 250

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.memory_mb = float(rng.randint(64, 128))
        prefix = f"s{seed}u"
        self.preload = [self._request(f"{prefix}{index}")
                        for index in range(self.PRELOAD)]
        self.requests = [self._request(f"{prefix}{self.PRELOAD + index}")
                         for index in range(self.ADMISSIONS)]

    def _request(self, client: str) -> ServiceRequest:
        specification = QoSSpecification.from_iterable([
            exact_parameter(Dimension.CPU, 1),
            exact_parameter(Dimension.MEMORY_MB, self.memory_mb)])
        return ServiceRequest(
            client=client, service_name="simulation-service",
            service_class=ServiceClass.GUARANTEED,
            specification=specification, start=WINDOW[0], end=WINDOW[1])

    def fingerprint(self) -> str:
        return _digest([_request_key(request) for request
                        in self.preload + self.requests])

    def _build(self):
        headroom = self.PRELOAD + self.ADMISSIONS + 1000
        testbed = build_testbed(
            total_cpu=headroom + 1000, guaranteed_cpu=headroom,
            adaptive_cpu=600, best_effort_cpu=400,
            machine_nodes=2 * (headroom + 1000),
            memory_mb=headroom * self.memory_mb * 2,
            disk_mb=headroom * self.memory_mb * 4, seed=self.seed)
        install_journal(testbed)
        attach_control_plane(testbed)
        broker = testbed.broker
        for offset in range(0, self.PRELOAD, self.PRELOAD_CHUNK):
            outcomes = broker.request_services(
                self.preload[offset:offset + self.PRELOAD_CHUNK])
            if not all(outcome.accepted for outcome in outcomes):
                raise RuntimeError("preload admission refused: the "
                                   "testbed is sized wrong")
        return testbed, testbed.client("bench")

    def round(self, recorder: Optional[SpanRecorder]) -> Round:
        started = time.perf_counter()
        testbed, client = self._build()
        ready = time.perf_counter()
        latencies: List[float] = []
        outcomes: List[Tuple[Optional[object], str]] = []
        if recorder is not None:
            recorder.active = True
        for index, request in enumerate(self.requests):
            if recorder is not None:
                recorder.op_id = index
            sent = time.perf_counter()
            try:
                negotiation_id, _offers, reason = \
                    client.request_service(request)
                if negotiation_id is None:
                    outcome = (None, reason)
                else:
                    outcome = client.accept_offer(negotiation_id)
            except Exception as error:  # noqa: BLE001 - counted as failed
                outcome = (None, f"raised {type(error).__name__}: {error}")
            latencies.append(time.perf_counter() - sent)
            outcomes.append(outcome)
        done = time.perf_counter()
        if recorder is not None:
            recorder.active = False

        decisions = []
        problems = _partition_problems(testbed.partition)
        for index, (sla, reason) in enumerate(outcomes):
            if sla is None:
                problems.append(f"admission {index} refused: {reason}")
                decisions.append([index, False, None, None])
                continue
            expected = _point(self.requests[index].specification.best_point())
            if _point(sla.agreed_point) != expected:
                problems.append(f"admission {index} agreed "
                                f"{_point(sla.agreed_point)}, asked "
                                f"{expected}")
            decisions.append([index, True, sla.sla_id,
                              _point(sla.agreed_point)])
        ids = [entry[2] for entry in decisions if entry[2] is not None]
        if ids != sorted(set(ids)):
            problems.append("SLA ids not unique and increasing")
        holdings = len(testbed.partition.guaranteed_holdings())
        if holdings != self.PRELOAD + len(ids):
            problems.append(f"{holdings} guaranteed holdings, expected "
                            f"{self.PRELOAD + len(ids)}")
        return Round(setups=[ready - started], timed_s=done - ready,
                     recorded_s=done - ready, latencies=latencies,
                     ops=len(self.requests), decisions=len(self.requests),
                     accepted=len(ids),
                     revenue=_committed_revenue(testbed),
                     digest=_digest(decisions), problems=problems,
                     testbeds=[testbed],
                     extra={"live_bookings": float(holdings)})


class FederatedFailover(Workload):
    """Sequential ``FederatedControlPlane.request_service`` calls over
    three domains with telemetry, decision log and journal on.

    Homes rotate round-robin. ``SMALL`` has a small guaranteed pool,
    so once it fills its requests are delegated through bid/offer/
    delegate. ``CRASHED`` goes down two thirds of the way through, so
    the requests homed there afterwards reroute to a survivor.
    """

    name = "federated_failover"
    DOMAINS = ("d1", "d2", "d3")
    SMALL = "d3"
    CRASHED = "d2"
    #: Timed admissions per round.
    ADMISSIONS = 600
    TEMPLATES = 4
    BIG = {"total_cpu": 4000, "guaranteed_cpu": 3000, "adaptive_cpu": 600,
           "best_effort_cpu": 400, "machine_nodes": 8000,
           "memory_mb": 4000 * 256.0, "disk_mb": 4000 * 512.0}
    SMALL_POOL = dict(BIG, total_cpu=1040, guaranteed_cpu=40)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        templates = []
        for slot in range(self.TEMPLATES):
            memory = exact_parameter(Dimension.MEMORY_MB,
                                     float(rng.randint(64, 128)))
            if slot == self.TEMPLATES - 1:
                templates.append((ServiceClass.CONTROLLED_LOAD,
                                  [range_parameter(Dimension.CPU, 1, 2),
                                   memory], None))
                continue
            network = (NetworkDemand("192.200.168.33", "135.200.50.101",
                                     1.0) if slot == 0 else None)
            templates.append((ServiceClass.GUARANTEED,
                              [exact_parameter(Dimension.CPU,
                                               1 + slot % 2), memory],
                              network))
        self.requests = []
        for index in range(self.ADMISSIONS):
            service_class, parameters, network = \
                templates[rng.randrange(self.TEMPLATES)]
            self.requests.append(ServiceRequest(
                client=f"s{seed}c{index}",
                service_name="simulation-service",
                service_class=service_class,
                specification=QoSSpecification.from_iterable(parameters),
                start=WINDOW[0], end=WINDOW[1], network=network))
        self.homes = [self.DOMAINS[index % len(self.DOMAINS)]
                      for index in range(self.ADMISSIONS)]
        self.crash_at = 2 * self.ADMISSIONS // 3

    def fingerprint(self) -> str:
        return _digest([[_request_key(request), home] for request, home
                        in zip(self.requests, self.homes)]
                       + [self.crash_at])

    def round(self, recorder: Optional[SpanRecorder]) -> Round:
        started = time.perf_counter()
        plane = FederatedControlPlane(
            domains=list(self.DOMAINS), seed=self.seed,
            testbed_defaults=self.BIG,
            capacity={self.SMALL: self.SMALL_POOL})
        ready = time.perf_counter()
        latencies: List[float] = []
        decisions = []
        problems: List[str] = []
        raised = 0
        accepted = 0
        if recorder is not None:
            recorder.active = True
        for index, (request, home) in enumerate(zip(self.requests,
                                                    self.homes)):
            if index == self.crash_at:
                plane.crash_broker(self.CRASHED)
            if recorder is not None:
                recorder.op_id = index
            sent = time.perf_counter()
            try:
                outcome = plane.request_service(request, home=home)
            except Exception as error:  # noqa: BLE001 - counted as failed
                latencies.append(time.perf_counter() - sent)
                raised += 1
                problems.append(f"admission {index} raised "
                                f"{type(error).__name__}: {error}")
                decisions.append([index, "raised"])
                continue
            latencies.append(time.perf_counter() - sent)
            point = None
            if outcome.accepted:
                accepted += 1
                repository = plane.domains[outcome.domain].testbed.repository
                point = _point(repository.get(outcome.sla_id).agreed_point)
            decisions.append([index, outcome.accepted, outcome.domain,
                              outcome.delegated, list(outcome.rerouted),
                              outcome.sla_id, point])
        done = time.perf_counter()
        if recorder is not None:
            recorder.active = False

        problems += federation_invariants(plane)
        stats = plane.stats
        if stats["requests"] != len(self.requests):
            problems.append(f"plane counted {stats['requests']} requests")
        if stats["local"] + stats["delegated"] + stats["rejected"] \
                != len(self.requests) - raised:
            problems.append(f"outcome counts do not add up: {stats}")
        if not stats["delegated"] or not stats["rerouted"]:
            problems.append(f"delegate and reroute paths not both taken: "
                            f"{stats}")
        live = [plane.domains[name].testbed for name in plane.alive_domains()]
        return Round(setups=[ready - started], timed_s=done - ready,
                     recorded_s=done - ready, latencies=latencies,
                     ops=len(self.requests), decisions=len(self.requests),
                     accepted=accepted,
                     revenue=sum(_committed_revenue(testbed)
                                 for testbed in live),
                     digest=_digest(decisions), problems=problems,
                     testbeds=live,
                     extra={"delegated": float(stats["delegated"]),
                            "rerouted": float(stats["rerouted"])})


class AdaptationReplay(Workload):
    """``replay_scenario`` over a benchmark-owned scenario: the three
    ``multi_tenant_mix`` tenants at ``SCALE`` times the arrival rate on
    a partition ``SCALE`` times the paper's 15/6/5, hit by two
    overlapping rack failures scaled to match.

    Admission epochs, activations, expiries, verifier polling,
    Scenarios 1-3 and the optimizer all run inside the replay. The
    adaptation work per session differs a lot between realizations of
    the scenario, so a pass replays ``PASS`` of them, one per round,
    each compiled from its own seed drawn from the benchmark seed.
    """

    name = "adaptation_replay"
    SCALE = 8
    PASS = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = get_scenario("multi_tenant_mix")
        guaranteed, adaptive, best_effort, minimum = base.partition
        scale = self.SCALE
        self.spec = ScenarioSpec(
            name="perfbench_adaptation",
            family="multi_tenant",
            description=(f"multi_tenant_mix at {scale}x load and capacity "
                         f"with two overlapping rack failures"),
            horizon=base.horizon,
            tenants=tuple(tenant.scaled(rate_factor=float(scale))
                          for tenant in base.tenants),
            failures=(
                FailureTrack.episode("rack_a", start=120.0, duration=60.0,
                                     nodes=6 * scale),
                FailureTrack.episode("rack_b", start=150.0, duration=45.0,
                                     nodes=4 * scale)),
            partition=(guaranteed * scale, adaptive * scale,
                       best_effort * scale, minimum * scale))
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(self.PASS)]
        self._rounds = 0

    def fingerprint(self) -> str:
        return _digest([self.spec.compile(seed).workload.fingerprint()
                        for seed in self.seeds])

    def round(self, recorder: Optional[SpanRecorder]) -> Round:
        seed = self.seeds[self._rounds % self.PASS]
        self._rounds += 1
        latencies: List[float] = []
        decisions = [0]
        run = Simulator.__dict__["run"]
        admit = AQoSBroker.__dict__["request_services"]
        marks: List[float] = []

        def timed_run(sim, *args, **kwargs):
            marks.append(time.perf_counter())
            return run(sim, *args, **kwargs)

        def timed_admit(broker, requests, *args, **kwargs):
            sent = time.perf_counter()
            outcomes = admit(broker, requests, *args, **kwargs)
            latencies.append(time.perf_counter() - sent)
            decisions[0] += len(outcomes)
            return outcomes

        hooks = Patches()
        hooks.replace(Simulator, "run", timed_run, run)
        hooks.replace(AQoSBroker, "request_services", timed_admit, admit)
        if recorder is not None:
            recorder.op_id = self._rounds - 1
            recorder.active = True
        started = time.perf_counter()
        try:
            result = replay_scenario(self.spec, seed=seed)
        finally:
            done = time.perf_counter()
            if recorder is not None:
                recorder.active = False
            hooks.remove()
        report = result.report
        sessions = len(result.compiled.workload)
        problems = check_invariants(result)
        if report["sessions"] != sessions or decisions[0] != sessions:
            problems.append(f"{decisions[0]} admission decisions for "
                            f"{sessions} sessions")
        return Round(setups=[marks[0] - started], timed_s=done - marks[0],
                     recorded_s=done - started, latencies=latencies,
                     ops=sessions, decisions=decisions[0],
                     accepted=(report["guaranteed_accepted"]
                               + report["controlled_accepted"]
                               + report["best_effort_granted"]),
                     revenue=report["revenue"],
                     digest=hashlib.sha256(result.report_json().encode(
                         "utf-8")).hexdigest(),
                     problems=problems,
                     testbeds=([result.testbed] if recorder is not None
                               else []),
                     extra={"guaranteed_violations":
                            float(report["guaranteed_violations"])})


WORKLOADS = {workload.name: workload for workload in
             (GatewayLoaded, FederatedFailover, AdaptationReplay)}
