"""Crash-point sweep over the delegation protocol's write points.

The PR-5 sweep proved single-broker recovery correct by crashing at
every journal write of a canonical episode; this module extends the
technique across the *federation*: a scripted three-domain episode in
which an under-provisioned ``d1`` must delegate its big requests to
``d2``/``d3``, swept by arming one domain's journal store with a
:class:`~repro.recovery.crashpoints.CrashingJournalStore` at each LSN
(before and after the byte append). Whatever write the crash lands on
— a peer's ``delegation_begin`` intent, the admission commit, the
``accepted`` link, the home's ``confirmed`` seal — the rejoined
federation must satisfy :func:`~repro.federation.recovery.federation_invariants`:
capacity conserved per domain, no delegation live in two domains, no
booking the home side disowned.

Everything is seeded and scripted; a sweep cell is reproducible by
``(domain, lsn, mode, seed)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BrokerCrash
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter
from ..qos.specification import QoSSpecification
from ..recovery.crashpoints import CrashingJournalStore
from ..recovery.journal import MemoryJournalStore
from ..sla.negotiation import ServiceRequest
from .plane import FederatedControlPlane, FederatedOutcome
from .recovery import federation_invariants

__all__ = [
    "EpisodeResult",
    "SweepCell",
    "SweepResult",
    "count_delegation_write_points",
    "run_delegation_episode",
    "sweep_delegation_crash_points",
]

#: The under-provisioned home domain's capacity (Cg=3 cannot hold the
#: episode's cpu-10 requests, forcing cross-domain delegation).
SMALL_DOMAIN = {"total_cpu": 6, "guaranteed_cpu": 3, "adaptive_cpu": 2,
                "best_effort_cpu": 1, "best_effort_min": 1}

#: The scripted workload: (time, client, cpu, duration). Big requests
#: overflow d1 and delegate; the small one stays home.
EPISODE_WORKLOAD: "Tuple[Tuple[float, str, int, float], ...]" = (
    (1.0, "fed-big-1", 10, 70.0),
    (2.0, "fed-small-1", 2, 60.0),
    (5.0, "fed-big-2", 8, 70.0),
    (12.0, "fed-big-3", 6, 60.0),
)

EPISODE_HORIZON = 90.0
EPISODE_RECOVER_AT = 60.0


def _guaranteed_request(client: str, cpu: int, start: float,
                        duration: float) -> ServiceRequest:
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 1024))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=start, end=start + duration)


@dataclass
class EpisodeResult:
    """One scripted episode's outcome (clean or crashed)."""

    plane: FederatedControlPlane
    outcomes: "List[FederatedOutcome]"
    problems: "List[str]"
    crashed: "List[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every federation invariant held at the end."""
        return not self.problems


@dataclass(frozen=True)
class SweepCell:
    """One (domain, lsn, mode) cell of the sweep."""

    domain: str
    crash_lsn: int
    mode: str
    fired: bool
    problems: "Tuple[str, ...]"

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class SweepResult:
    """The full sweep: every cell, plus the failures for reporting."""

    cells: "Tuple[SweepCell, ...]"

    @property
    def failures(self) -> "Tuple[SweepCell, ...]":
        return tuple(cell for cell in self.cells if not cell.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_delegation_episode(*, crash_domain: Optional[str] = None,
                           crash_lsn: Optional[int] = None,
                           mode: str = "before", seed: int = 0
                           ) -> EpisodeResult:
    """Run the scripted episode, optionally crashing one domain's
    journal at its ``crash_lsn``-th write, and check the invariants.

    The crashed domain is recovered at ``EPISODE_RECOVER_AT`` — after
    the delegation traffic, before the horizon — so reconciliation and
    the post-rejoin heartbeats are part of every swept cell.
    """
    stores: "Dict[str, object]" = {}
    armed: Optional[CrashingJournalStore] = None
    if crash_domain is not None and crash_lsn is not None:
        armed = CrashingJournalStore(crash_lsn=crash_lsn, mode=mode,
                                     inner=MemoryJournalStore())
        stores[crash_domain] = armed
    plane = FederatedControlPlane(
        domains=3, seed=seed, capacity={"d1": dict(SMALL_DOMAIN)},
        journal_stores=stores)
    plane.start_heartbeats(until=EPISODE_HORIZON)
    outcomes: "List[FederatedOutcome]" = []
    for at, client, cpu, duration in EPISODE_WORKLOAD:
        def admit(client=client, cpu=cpu, duration=duration) -> None:
            outcomes.append(plane.request_service(_guaranteed_request(
                client, cpu, plane.sim.now, duration)))
        plane.sim.schedule_at(at, admit, label=f"workload:{client}")
    if crash_domain is not None:
        plane.recover_broker(crash_domain, at=EPISODE_RECOVER_AT)
    remaining = 3  # one armed store fires once; bound the loop anyway
    while remaining:
        remaining -= 1
        try:
            plane.sim.run(until=EPISODE_HORIZON)
            break
        except BrokerCrash:
            # The armed journal died inside one of the broker's *own*
            # simulator events (job completion, expiry sweep) rather
            # than under a plane call; attribute it and keep running —
            # exactly the PR-5 harness shape, minus the instant
            # recovery (the federation recovers on its own schedule).
            assert crash_domain is not None
            plane.crash_broker(
                crash_domain,
                cause="journal died inside a broker-internal event")
    problems = list(federation_invariants(plane))
    if armed is not None and armed.fired \
            and not any(name == crash_domain
                        for _, name, _ in plane.crashes):
        problems.append(f"armed store fired but {crash_domain} was "
                        f"never marked crashed")
    return EpisodeResult(plane=plane, outcomes=outcomes,
                         problems=problems,
                         crashed=[name for _, name, _ in plane.crashes])


def count_delegation_write_points(domain: str, *, seed: int = 0) -> int:
    """Journal write points one domain sees in a clean episode."""
    baseline = run_delegation_episode(seed=seed)
    journal = baseline.plane.domains[domain].testbed.journal
    assert journal is not None
    return journal.last_lsn


def sweep_delegation_crash_points(
        *, domains: "Sequence[str]" = ("d1", "d2"),
        modes: "Sequence[str]" = ("before", "after"),
        seed: int = 0) -> SweepResult:
    """Crash every swept domain at every write point, both sides of
    the append."""
    cells: "List[SweepCell]" = []
    for domain in domains:
        total = count_delegation_write_points(domain, seed=seed)
        for lsn in range(1, total + 1):
            for mode in modes:
                episode = run_delegation_episode(
                    crash_domain=domain, crash_lsn=lsn, mode=mode,
                    seed=seed)
                cells.append(SweepCell(
                    domain=domain, crash_lsn=lsn, mode=mode,
                    fired=domain in episode.crashed,
                    problems=tuple(episode.problems)))
    return SweepResult(cells=tuple(cells))
