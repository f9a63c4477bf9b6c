"""Batched federated admission across every journal crash point.

Five guaranteed requests homed at the under-provisioned ``d1`` are
admitted in one ``request_services`` call; ``d1``'s journal is armed
to die at each of its write points (before and after the append), the
broker rejoins at t=60 and heartbeats run to t=90. Every booking lives
past the horizon, so each cell ends with a plain count: no client may
hold a live SLA in two domains, the live bookings may not outnumber
the accepted outcomes, and the federation invariants must hold.

The same cells admitted one request at a time are the control. The
clients are named ``c0..c4`` and each sends exactly one request, so a
client live in two domains is a request admitted twice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.errors import BrokerCrash
from repro.federation.plane import FederatedControlPlane, FederatedOutcome
from repro.federation.recovery import federation_invariants
from repro.federation.sweep import SMALL_DOMAIN, _guaranteed_request
from repro.recovery.crashpoints import CrashingJournalStore
from repro.recovery.journal import MemoryJournalStore

CPUS = (2, 10, 2, 8, 3)
ADMIT_AT = 1.0
DURATION = 500.0
RECOVER_AT = 60.0
HORIZON = 90.0


def _episode(batched: bool, store=None
             ) -> "Tuple[FederatedControlPlane, List[FederatedOutcome]]":
    plane = FederatedControlPlane(
        domains=3, seed=0, capacity={"d1": dict(SMALL_DOMAIN)},
        journal_stores={"d1": store} if store is not None else None)
    plane.start_heartbeats(until=HORIZON)
    outcomes: "List[FederatedOutcome]" = []

    def admit() -> None:
        requests = [_guaranteed_request(f"c{index}", cpu, plane.sim.now,
                                        DURATION)
                    for index, cpu in enumerate(CPUS)]
        if batched:
            outcomes.extend(plane.request_services(
                requests, homes=["d1"] * len(requests)))
        else:
            outcomes.extend(plane.request_service(request, home="d1")
                            for request in requests)

    plane.sim.schedule_at(ADMIT_AT, admit, label="workload")
    if store is not None:
        plane.recover_broker("d1", at=RECOVER_AT)
    for _ in range(3):
        try:
            plane.sim.run(until=HORIZON)
            break
        except BrokerCrash:
            # The armed journal died inside a broker-internal event.
            plane.crash_broker(
                "d1", cause="journal died inside a broker-internal event")
    return plane, outcomes


def _problems(plane: FederatedControlPlane,
              outcomes: "List[FederatedOutcome]") -> "List[str]":
    live: "Dict[str, List[str]]" = {}
    for name in plane.names:
        for sla in plane.domains[name].testbed.repository.live():
            live.setdefault(sla.client, []).append(
                f"SLA {sla.sla_id} in {name}")
    problems = [f"{client} live twice: {', '.join(where)}"
                for client, where in sorted(live.items()) if len(where) > 1]
    booked = sum(len(where) for where in live.values())
    accepted = sum(1 for outcome in outcomes if outcome.accepted)
    if booked > accepted:
        problems.append(f"{booked} live bookings but only {accepted} "
                        f"accepted outcomes")
    problems.extend(federation_invariants(plane))
    return problems


def _write_points() -> int:
    plane, _ = _episode(batched=True)
    journal = plane.domains["d1"].testbed.journal
    assert journal is not None
    return journal.last_lsn


@pytest.mark.parametrize("batched", [True, False],
                         ids=["batched", "one-at-a-time"])
def test_no_double_admission_at_any_journal_crash_point(batched):
    total = _write_points()
    assert total >= 10, "the episode must journal the delegations"
    failures = []
    for lsn in range(1, total + 1):
        for mode in ("before", "after"):
            store = CrashingJournalStore(crash_lsn=lsn, mode=mode,
                                         inner=MemoryJournalStore())
            plane, outcomes = _episode(batched, store)
            assert store.fired, f"lsn {lsn} {mode} never fired"
            assert len(outcomes) == len(CPUS)
            failures.extend(f"lsn {lsn} {mode}: {problem}"
                            for problem in _problems(plane, outcomes))
    assert failures == []
