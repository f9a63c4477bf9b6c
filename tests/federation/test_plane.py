"""The federated control plane: admission, delegation, rerouting,
heartbeats, partitions and broker rejoin."""

from __future__ import annotations

import pytest

from repro.errors import FederationError
from repro.federation.plane import FederatedControlPlane
from repro.federation.recovery import (federation_invariants,
                                       scan_delegations)
from repro.federation.sweep import SMALL_DOMAIN

from .conftest import best_effort_request, guaranteed_request


class TestLocalAdmission:
    def test_fitting_request_stays_home(self, plane):
        outcome = plane.request_service(
            guaranteed_request("c1", 2), home="d1")
        assert outcome.accepted
        assert outcome.domain == "d1"
        assert not outcome.delegated
        assert outcome.rerouted == ()
        assert plane.stats["local"] == 1

    def test_home_defaults_to_the_first_domain(self, plane):
        outcome = plane.request_service(guaranteed_request("c1", 2))
        assert outcome.home == "d1"

    def test_unknown_home_raises(self, plane):
        with pytest.raises(FederationError):
            plane.request_service(guaranteed_request("c1", 2),
                                  home="d9")

    def test_sla_id_ranges_are_per_domain(self, plane):
        first = plane.request_service(guaranteed_request("c1", 2),
                                      home="d1")
        second = plane.request_service(guaranteed_request("c2", 2),
                                       home="d2")
        assert first.sla_id is not None and first.sla_id < 2000
        assert second.sla_id is not None and second.sla_id >= 2000


class TestDelegation:
    def test_oversized_request_delegates_to_a_peer(self, plane):
        outcome = plane.request_service(
            guaranteed_request("big", 8), home="d1")
        assert outcome.accepted
        assert outcome.delegated
        assert outcome.home == "d1"
        assert outcome.domain in ("d2", "d3")
        assert outcome.sla_id is not None
        assert plane.stats["delegated"] == 1

    def test_both_sides_journal_the_delegation(self, plane):
        outcome = plane.request_service(
            guaranteed_request("big", 8), home="d1")
        home_states = scan_delegations(
            plane.domains["d1"].testbed.journal)
        peer_states = scan_delegations(
            plane.domains[outcome.domain].testbed.journal)
        home = home_states[outcome.delegation_id]
        peer = peer_states[outcome.delegation_id]
        assert home.role == "home" and home.confirmed
        assert home.counterpart == outcome.domain
        assert peer.role == "peer" and peer.confirmed
        assert peer.sla_id == outcome.sla_id

    def test_landing_domain_tracks_the_booking(self, plane):
        outcome = plane.request_service(
            guaranteed_request("big", 8), home="d1")
        landing = plane.domains[outcome.domain]
        assert outcome.delegation_id in landing.incoming
        assert outcome.delegation_id in landing.confirmed
        assert landing.incoming[outcome.delegation_id].sla_id \
            == outcome.sla_id

    def test_decision_provenance_for_the_delegation(self, plane):
        plane.request_service(guaranteed_request("big", 8), home="d1")
        records = plane.domains["d1"].testbed.decisions.for_subject("big")
        outcomes = [record.outcome for record in records
                    if record.action == "federation"]
        assert "bids" in outcomes
        assert "delegate" in outcomes

    def test_nothing_fits_anywhere_rejects(self):
        tiny = FederatedControlPlane(
            domains=2, seed=0,
            testbed_defaults=dict(SMALL_DOMAIN))
        outcome = tiny.request_service(
            guaranteed_request("huge", 20), home="d1")
        assert not outcome.accepted
        assert outcome.domain is None
        assert tiny.stats["rejected"] == 1
        records = tiny.domains["d1"].testbed.decisions.for_subject("huge")
        assert any(record.outcome == "reject" for record in records)

    def test_overflow_lands_on_the_peer(self):
        # Cg = 15 per domain: two 7-CPU sessions fit d1, the third
        # must delegate to d2.
        pair = FederatedControlPlane(domains=2, seed=0)
        outcomes = [pair.request_service(guaranteed_request(f"c{i}", 7),
                                         home="d1")
                    for i in range(3)]
        assert all(outcome.accepted for outcome in outcomes)
        assert [outcome.domain for outcome in outcomes] \
            == ["d1", "d1", "d2"]
        assert [outcome.delegated for outcome in outcomes] \
            == [False, False, True]
        assert len(pair.domains["d1"].testbed.repository.live()) == 2
        assert len(pair.domains["d2"].testbed.repository.live()) == 1

    def test_best_effort_is_not_delegated(self):
        # A best-effort grant has no SLA id, so the home could neither
        # confirm nor cancel it: a peer that granted one would leak it.
        pair = FederatedControlPlane(domains=2, seed=0)
        assert pair.request_service(best_effort_request("be", 26),
                                    home="d1").accepted
        second = pair.request_service(best_effort_request("be2", 4),
                                      home="d1")
        assert not second.accepted
        peer = pair.domains["d2"].testbed
        assert peer.broker.stats.best_effort_granted == 0
        assert peer.partition.best_effort_served() == 0.0
        declined = [record for record in
                    peer.decisions.for_subject("be2")
                    if record.outcome == "bid_declined"]
        assert [record.reason for record in declined] \
            == ["best-effort is not delegated"]

    def test_invariants_hold_after_delegations(self, plane):
        for index in range(4):
            plane.request_service(
                guaranteed_request(f"c{index}", 6), home="d1")
        assert federation_invariants(plane) == []


class TestRerouting:
    def test_crashed_home_reroutes_to_a_survivor(self, plane):
        plane.crash_broker("d2")
        outcome = plane.request_service(
            guaranteed_request("c1", 4), home="d2")
        assert outcome.accepted
        assert outcome.home == "d2"
        assert outcome.domain != "d2"
        assert outcome.rerouted == ("d2",)
        assert plane.stats["rerouted"] == 1
        assert plane.reroutes and plane.reroutes[0][1] == "c1"

    def test_reroute_leaves_a_decision_record(self, plane):
        plane.crash_broker("d2")
        plane.request_service(guaranteed_request("c1", 2), home="d2")
        explained = False
        for name in plane.names:
            decisions = plane.domains[name].testbed.decisions
            if decisions is None:
                continue
            for record in decisions.for_subject("c1"):
                if record.action == "federation" \
                        and record.outcome == "reroute":
                    assert "d2" in (record.constraint or "")
                    explained = True
        assert explained

    def test_every_domain_down_rejects(self, plane):
        for name in plane.names:
            plane.crash_broker(name)
        outcome = plane.request_service(
            guaranteed_request("c1", 2), home="d1")
        assert not outcome.accepted
        assert outcome.reason == "every domain is down"


class TestHeartbeats:
    def test_heartbeats_mark_a_crashed_peer_down(self):
        plane = FederatedControlPlane(domains=3, seed=0,
                                      heartbeat_interval=5.0)
        plane.crash_broker("d2", at=1.0)
        plane.start_heartbeats(until=12.0)
        plane.sim.run(until=12.0)
        assert not plane.health.alive("d1", "d2")
        assert plane.health.alive("d1", "d3")
        assert plane.stats["heartbeat_rounds"] >= 2

    def test_rejoined_peer_reads_alive_again(self):
        plane = FederatedControlPlane(domains=3, seed=0,
                                      heartbeat_interval=5.0)
        plane.crash_broker("d2", at=1.0)
        plane.recover_broker("d2", at=11.0)
        # Detection latency after a rejoin includes the heartbeat
        # circuit's cooldown (20s): probes are refused until the
        # breaker half-opens again.
        plane.start_heartbeats(until=45.0)
        plane.sim.run(until=45.0)
        assert plane.health.alive("d1", "d2")


class TestPartition:
    def test_partitioned_home_cannot_delegate_inside_the_window(self):
        plane = FederatedControlPlane(
            domains=3, seed=0, capacity={"d1": dict(SMALL_DOMAIN)})
        plane.partition(["d1"], 5.0, 30.0)
        outcomes = []

        def admit(client, at):
            plane.sim.schedule_at(
                at, lambda: outcomes.append(plane.request_service(
                    guaranteed_request(client, 8, start=plane.sim.now),
                    home="d1")), label=f"admit:{client}")

        admit("inside", 10.0)
        # Well after the window: heartbeats must re-mark the peers
        # alive and the bid circuits must finish their cooldown.
        admit("after", 60.0)
        plane.start_heartbeats(until=80.0)
        plane.sim.run(until=80.0)
        inside, after = outcomes
        assert not inside.accepted
        assert after.accepted and after.delegated

    def test_unpartitioned_pair_keeps_talking(self):
        plane = FederatedControlPlane(
            domains=3, seed=0, capacity={"d2": dict(SMALL_DOMAIN)})
        plane.partition(["d1"], 0.0, 100.0)
        outcomes = []
        plane.sim.schedule_at(
            10.0, lambda: outcomes.append(plane.request_service(
                guaranteed_request("c1", 8, start=plane.sim.now),
                home="d2")), label="admit:c1")
        plane.sim.run(until=20.0)
        outcome, = outcomes
        # d2 cannot hold cpu=8 and cannot see d1 — but d3 is reachable.
        assert outcome.accepted
        assert outcome.domain == "d3"

    def test_unknown_member_raises(self, plane):
        with pytest.raises(FederationError):
            plane.partition(["dX"], 0.0, 10.0)


class TestRejoin:
    def test_confirmed_delegation_survives_the_peer_rejoin(self, plane):
        outcome = plane.request_service(
            guaranteed_request("big", 8, duration=500.0), home="d1")
        landing = outcome.domain
        plane.crash_broker(landing)
        assert plane.domains[landing].incoming == {}
        report = plane.recover_broker(landing)
        assert report is not None
        assert report.federation.restored == 1
        assert report.federation.cancelled_incoming == 0
        landing_domain = plane.domains[landing]
        assert outcome.delegation_id in landing_domain.incoming
        assert outcome.delegation_id in landing_domain.confirmed
        live = {sla.sla_id
                for sla in landing_domain.testbed.repository.live()}
        assert outcome.sla_id in live
        assert federation_invariants(plane) == []

    def test_sla_ids_resume_above_the_domain_floor(self, plane):
        plane.crash_broker("d2")
        plane.recover_broker("d2")
        outcome = plane.request_service(
            guaranteed_request("c1", 2), home="d2")
        assert outcome.sla_id is not None
        assert outcome.sla_id >= 2000

    def test_recover_of_live_domain_is_a_noop(self, plane):
        assert plane.recover_broker("d1") is None


class TestBatch:
    def test_batch_groups_by_home(self, plane):
        requests = [guaranteed_request(f"c{index}", 2)
                    for index in range(4)]
        homes = ["d1", "d2", "d1", "d3"]
        outcomes = plane.request_services(requests, homes=homes)
        assert len(outcomes) == 4
        assert all(outcome.accepted for outcome in outcomes)
        assert [outcome.home for outcome in outcomes] == homes
        assert plane.stats["requests"] == 4

    def test_batch_rejects_fall_through_to_delegation(self, plane):
        requests = [guaranteed_request("small", 2),
                    guaranteed_request("big", 8)]
        outcomes = plane.request_services(requests, homes=["d1", "d1"])
        assert outcomes[0].accepted and not outcomes[0].delegated
        assert outcomes[1].accepted and outcomes[1].delegated

    def test_mismatched_homes_raise(self, plane):
        with pytest.raises(FederationError):
            plane.request_services([guaranteed_request("c1", 2)],
                                   homes=["d1", "d2"])
