"""The quickstart session under chaos, under telemetry and across a crash.

Each report replays the paper's Figure 6 broker activity log in one
variant:

* ``python -m repro quickstart --chaos SEED`` — one guaranteed session
  with a network demand, a mid-run node failure and repair, with the
  control plane on the message bus and seeded fault injection armed:
  requests are dropped, duplicated, delayed and error-replied; the
  client rides retries with backoff; endpoints answer re-deliveries
  from their dedup caches; lost notifications land in the dead-letter
  record and are covered by the verifier's polling.
* ``python -m repro quickstart --telemetry`` (or ``repro telemetry``)
  — the same session plus a controlled-load companion through a
  §5.6-sized outage, with the telemetry hub installed. The report
  holds the span trees (one connected tree per control-plane episode),
  the Prometheus metrics snapshot (including the time-weighted
  Cg/Ca/Cb occupancy gauges) and the raw JSONL event stream; add
  ``--chaos SEED`` to watch retries appear as sibling spans under one
  call.
* ``python -m repro quickstart --crash SEED`` — the scripted crash
  episode (three SLAs, a best-effort demand, a deep node failure) with
  the broker killed at a seed-chosen journal write point, its memory
  wiped and rebuilt from the write-ahead journal. The report shows the
  recovery reconciliation, the post-recovery invariant audit and the
  final SLA outcomes. With ``--journal PATH`` the durable journal is
  also written to disk so ``python -m repro recover PATH``
  (:func:`summarize_journal`) can summarize it cold.

Everything runs on the simulation clock and is a pure function of the
seeds, so two runs with the same seeds print the same report — a
chaotic or crashed run is still a replayable test case.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.gateway import ClientStub
from ..core.testbed import (Testbed, attach_control_plane, build_testbed,
                            install_chaos, install_telemetry)
from ..errors import CircuitOpenError
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter, range_parameter
from ..qos.specification import QoSSpecification
from ..recovery.crashpoints import (
    CRASH_MODES,
    count_write_points,
    run_episode,
    verify_recovered,
)
from ..recovery.journal import FileJournalStore, Journal, encode_record
from ..recovery.recover import build_replay_view
from ..sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from ..sla.negotiation import ServiceRequest
from ..units import parse_bound

_RULE = "-" * 70

#: One session's result: the established SLA, or ``None`` and why not.
_Outcome = Tuple[Optional[ServiceSLA], str]


def quickstart_request(client: str = "user1") -> ServiceRequest:
    """The quickstart walkthrough's service request (Table 1 shape)."""
    specification = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 4),
        exact_parameter(Dimension.MEMORY_MB, 64),
    )
    return ServiceRequest(
        client=client,
        service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=specification,
        start=0.0, end=100.0,
        network=NetworkDemand(
            source_ip="135.200.50.101", dest_ip="192.200.168.33",
            bandwidth_mbps=10.0,
            packet_loss_bound=parse_bound("LessThan 10%")),
    )


def degradable_request(client: str = "user2") -> ServiceRequest:
    """A controlled-load companion session that adaptation may squeeze.

    The CPU range (2..8) plus ``accept_degradation`` is exactly what
    Scenario 1/3 look for when a failure leaves the guaranteed session
    short: this session gets resized to its floor so the guarantee is
    restored instead of terminated.
    """
    specification = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.MEMORY_MB, 32, 128),
    )
    return ServiceRequest(
        client=client,
        service_name="simulation-service",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=specification,
        start=0.0, end=100.0,
        adaptation=AdaptationOptions(accept_degradation=True),
    )


def _banner(title: str) -> List[str]:
    return ["=" * 70, title, "=" * 70]


def _section(title: str) -> List[str]:
    return ["", title, _RULE]


def _activity_log(testbed: Testbed) -> List[str]:
    return _section("activity log") + [testbed.trace.render()]


def _establish(client: ClientStub, request: ServiceRequest) -> _Outcome:
    try:
        negotiation_id, _offers, reason = client.request_service(request)
        if negotiation_id is None:
            return None, f"service request refused: {reason}"
        sla, reason = client.accept_offer(negotiation_id)
        if sla is None:
            return None, f"establishment failed: {reason}"
        return sla, ""
    except CircuitOpenError as circuit_error:
        # The transport ate every attempt; the session is cleanly
        # abandoned (and any stale negotiation swept after the run).
        return None, f"session abandoned: {circuit_error}"


def _run_sessions(testbed: Testbed, requests: Sequence[ServiceRequest], *,
                  failed_nodes: int
                  ) -> Tuple[List[_Outcome], List[ClientStub], int]:
    """Negotiate and accept each request through its own client stub,
    fail ``failed_nodes`` grid nodes at t=30, repair them at t=60 and
    run to t=120 under verifier polling.

    Returns the session outcomes, the client stubs and the number of
    stale negotiations swept at the end.
    """
    assert testbed.gateway is not None
    testbed.broker.verifier.start_polling(5.0)
    testbed.sim.schedule_at(
        30.0, lambda: testbed.machine.fail_nodes(failed_nodes),
        label="inject:node-failure")
    testbed.sim.schedule_at(60.0, lambda: testbed.machine.repair_nodes(),
                            label="inject:node-repair")
    clients = [testbed.client(request.client) for request in requests]
    outcomes = [_establish(client, request)
                for client, request in zip(clients, requests)]
    testbed.sim.run(until=120.0)
    return outcomes, clients, testbed.gateway.sweep_stale(0.0)


def run_chaos_quickstart(chaos_seed: int, *, drop: float = 0.1,
                         duplicate: float = 0.05, delay: float = 0.1,
                         error: float = 0.05, reorder: float = 0.05,
                         seed: int = 0) -> str:
    """Run the quickstart session under fault injection; returns the
    printable report (trace plus chaos accounting)."""
    testbed = build_testbed(seed=seed)
    plan = install_chaos(testbed, chaos_seed, drop=drop,
                         duplicate=duplicate, delay=delay, error=error,
                         reorder=reorder)
    assert testbed.bus is not None
    [(sla, note)], [client], swept = _run_sessions(
        testbed, [quickstart_request()], failed_nodes=3)

    lines = _banner(f"Quickstart under chaos (chaos seed {chaos_seed}: "
                    f"drop={drop:g} duplicate={duplicate:g} "
                    f"delay={delay:g} error={error:g} "
                    f"reorder={reorder:g})")
    if sla is None:
        lines.append(note)
    else:
        final = testbed.broker.repository.get(sla.sla_id)
        lines.append(f"SLA {sla.sla_id} established for {sla.client!r} "
                     f"over a lossy control plane")
        lines.append(f"final SLA status: {final.status.value}")
    partition = testbed.partition
    effective_g, effective_a, effective_b = partition.effective_sizes()
    conserved = abs((effective_g + effective_a + effective_b)
                    - (partition.total - partition.failed)) < 1e-9
    lines += _section("chaos accounting")
    for key, value in sorted(plan.stats.as_dict().items()):
        lines.append(f"  faults.{key}: {value}")
    for key, value in sorted(client.caller.stats.as_dict().items()):
        lines.append(f"  caller.{key}: {value}")
    lines.append(f"  dead_letters: {len(testbed.bus.dead_letters)}")
    lines.append(f"  stale_negotiations_swept: {swept}")
    lines.append(f"  capacity_conserved (Cg+Ca+Cb == C): {conserved}")
    lines += _activity_log(testbed)
    return "\n".join(lines)


def run_telemetry_quickstart(*, seed: int = 0,
                             chaos_seed: Optional[int] = None) -> str:
    """Run the quickstart with telemetry on; returns the report."""
    testbed = build_testbed(seed=seed)
    if chaos_seed is not None:
        install_chaos(testbed, chaos_seed)
    else:
        attach_control_plane(testbed)
    telemetry = install_telemetry(testbed)
    # A §5.6-sized outage: 16 of 26 grid nodes fail at t=30, so the two
    # sessions' 12 delivered CPUs no longer fit in the 10 that remain
    # and the broker must adapt; the repair at t=60 restores them.
    outcomes, _clients, _swept = _run_sessions(
        testbed, [quickstart_request(), degradable_request()],
        failed_nodes=16)

    chaos_note = (f" under chaos seed {chaos_seed}"
                  if chaos_seed is not None else "")
    lines = _banner(f"Quickstart with telemetry (seed {seed}{chaos_note})")
    for sla, note in outcomes:
        lines.append(note if sla is None else
                     f"SLA {sla.sla_id} established for {sla.client!r} "
                     f"({sla.service_class.value})")
    broker = testbed.broker
    for sla, _note in outcomes:
        if sla is not None:
            final = broker.repository.get(sla.sla_id)
            lines.append(f"final SLA {sla.sla_id} status: "
                         f"{final.status.value}")
    lines.append(f"violations detected: "
                 f"{broker.metrics.counter_value('repro_sla_violations_detected_total'):g}"
                 f", restorations: "
                 f"{broker.metrics.counter_value('repro_sla_restorations_total'):g}")
    lines.append("")
    lines.append(telemetry.report(title="quickstart"))
    return "\n".join(lines)


def run_crash_quickstart(crash_seed: int, *, seed: int = 0,
                         snapshot_interval: float = 20.0,
                         journal_path: Optional[str] = None) -> str:
    """Run the crash episode at a seed-chosen write point; returns the
    printable report."""
    total = count_write_points(seed=seed,
                               snapshot_interval=snapshot_interval)
    crash_lsn = (crash_seed % total) + 1
    mode = CRASH_MODES[crash_seed % len(CRASH_MODES)]
    result = run_episode(crash_lsn=crash_lsn, mode=mode, seed=seed,
                         snapshot_interval=snapshot_interval)
    testbed = result.testbed
    records = result.journal.records()
    assert result.report is not None

    lines = _banner(f"Quickstart with a broker crash (crash seed "
                    f"{crash_seed}: write point {crash_lsn}/{total}, "
                    f"{mode} the record became durable)")
    lines += ["", result.report.render()]
    problems = verify_recovered(testbed)
    lines += _section("post-recovery invariant audit")
    if problems:
        for problem in problems:
            lines.append(f"  VIOLATED: {problem}")
    else:
        lines.append("  capacity conserved (Cg+Ca+Cb == C - failed): OK")
        lines.append("  commitments within Cg: OK")
        lines.append("  slot table == live reservations: OK")
        lines.append("  every active flow owned by one session: OK")
        lines.append("  SLA atomicity (fully live or fully rolled "
                     "back): OK")
    lines += _section("final SLA outcomes")
    for sla in testbed.broker.repository.all():
        lines.append(f"  SLA {sla.sla_id} ({sla.client!r}, "
                     f"{sla.service_class.value}): {sla.status.value}")
    metrics = testbed.broker.metrics
    lines += _section("recovery counters")
    for name in ("repro_recovery_runs_total",
                 "repro_recovery_slas_restored",
                 "repro_recovery_slas_rolled_back",
                 "repro_recovery_orphans_cancelled",
                 "repro_recovery_flows_released"):
        lines.append(f"  {name}: {metrics.counter_value(name):g}")
    lines.append(f"  journal records (durable): {len(records)}")
    lines += _activity_log(testbed)

    if journal_path is not None:
        store = FileJournalStore(journal_path)
        for record in records:
            store.append(encode_record(record))
        lines += ["", f"journal written to {journal_path}"]
    return "\n".join(lines)


def summarize_journal(journal_path: str) -> str:
    """Cold-restart summary of an on-disk journal (``repro recover``).

    Replays the journal without a testbed and reports what a recovery
    pass would start from: the SLA documents and statuses, composite
    reservation views (including orphaned half-open reserves), and
    best-effort demands.
    """
    journal = Journal(FileJournalStore(journal_path))
    view = build_replay_view(journal)
    by_type: "dict[str, int]" = {}
    for record in journal.records():
        by_type[record.type] = by_type.get(record.type, 0) + 1

    lines = [f"journal {journal_path}: {journal.last_lsn} durable "
             f"record(s)", _RULE]
    for record_type in sorted(by_type):
        lines.append(f"  {record_type}: {by_type[record_type]}")
    lines += _section(f"replayed state ({view.replayed} record(s) folded)")
    for sla in view.repository.all():
        lines.append(f"  SLA {sla.sla_id} ({sla.client!r}): "
                     f"{sla.status.value}")
    for sla_id in sorted(view.composites):
        composite = view.composites[sla_id]
        if composite.cancelled:
            disposition = "cancelled"
        elif composite.open:
            disposition = "ORPHANED (reserve never completed)"
        elif composite.confirmed:
            disposition = "confirmed"
        else:
            disposition = "unconfirmed"
        lines.append(f"  composite for SLA {sla_id}: {disposition} "
                     f"(handle={composite.handle}, "
                     f"flows={composite.flows})")
    for user in view.best_effort:
        lines.append(f"  best-effort {user!r}: "
                     f"{view.best_effort[user]:g} node(s)")
    return "\n".join(lines)
