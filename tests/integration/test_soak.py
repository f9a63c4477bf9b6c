"""Soak test: the full stack under combined churn and turbulence.

A long run with Poisson arrivals across all three classes, stochastic
node failures, stochastic link congestion, periodic SLA-Verif polling
and the periodic optimizer — then a leak audit: every session closed,
every reservation released, every slot table drained, the partition
empty, and the books consistent.
"""

from __future__ import annotations

import pytest

from repro.core.testbed import build_testbed
from repro.network.congestion import CongestionInjector
from repro.qos.classes import ServiceClass
from repro.resources.failures import FailureInjector
from repro.sim.random import RandomSource
from repro.sla.document import SlaStatus
from repro.workloads.generators import WorkloadConfig, generate_workload
from repro.workloads.replay import request_for_session

HORIZON = 600.0


@pytest.fixture(scope="module")
def soaked():
    testbed = build_testbed(seed=31, optimizer_interval=25.0)
    broker = testbed.broker
    sim = testbed.sim
    rng = RandomSource(31)

    config = WorkloadConfig(horizon=HORIZON, arrival_rate=0.12,
                            mean_duration=60.0)
    workload = generate_workload(config, rng.stream("workload"))
    for session in workload.sessions:
        def issue(s=session):
            if s.service_class is ServiceClass.BEST_EFFORT:
                broker.request_best_effort(s.user, s.cpu_best,
                                           duration=s.duration)
            else:
                broker.request_service(request_for_session(s, s.arrival))
        sim.schedule_at(session.arrival, issue)

    FailureInjector(sim, testbed.machine, rng.stream("failures"),
                    mtbf=80.0, mttr=30.0, max_concurrent_failures=4,
                    trace=testbed.trace).start()
    CongestionInjector(sim, testbed.nrm, rng=rng.stream("congestion"),
                       mtbc=90.0, mean_duration=30.0,
                       severity=(0.5, 0.9), trace=testbed.trace).start()
    broker.verifier.start_polling(10.0)
    # Run well past the horizon so every session's window has ended.
    sim.run(until=HORIZON + 300.0)
    return testbed, workload


class TestNoLeaks:
    def test_every_sla_closed(self, soaked):
        testbed, _workload = soaked
        for sla in testbed.repository.all():
            assert not sla.status.is_live, \
                f"SLA {sla.sla_id} leaked in state {sla.status}"

    def test_no_open_sessions(self, soaked):
        testbed, _workload = soaked
        assert testbed.broker.allocation.open_sessions() == []

    def test_compute_slot_table_drained(self, soaked):
        testbed, _workload = soaked
        now = testbed.sim.now
        assert testbed.compute_rm.slot_table.entries_at(now) == []
        assert not testbed.compute_rm.gara.live_reservations()

    def test_network_flows_released(self, soaked):
        testbed, _workload = soaked
        assert testbed.nrm.flows() == []

    def test_partition_empty(self, soaked):
        testbed, _workload = soaked
        partition = testbed.partition
        assert partition.guaranteed_holdings() == []
        assert partition.best_effort_served() == 0.0
        assert partition.committed_total() == 0.0

    def test_no_running_jobs(self, soaked):
        testbed, _workload = soaked
        assert testbed.compute_rm.running_jobs() == []


class TestBooksConsistent:
    def test_every_accepted_session_has_an_account(self, soaked):
        testbed, _workload = soaked
        broker = testbed.broker
        assert broker.stats.accepted > 0
        for sla in testbed.repository.all():
            account = broker.ledger.account(sla.sla_id)
            assert account.closed
            assert account.gross_revenue() >= 0.0

    def test_counters_add_up(self, soaked):
        testbed, _workload = soaked
        stats = testbed.broker.stats
        closed = stats.completed + stats.terminated + stats.expired
        assert closed == stats.accepted

    def test_activity_happened(self, soaked):
        testbed, _workload = soaked
        broker = testbed.broker
        # The turbulence actually exercised the adaptation machinery.
        assert broker.verifier.tests_run > 10
        assert broker.stats.optimizer_runs > 5
        categories = testbed.trace.categories()
        for expected in ("broker", "compute", "failure", "congestion"):
            assert expected in categories

    def test_deterministic_replay(self):
        def run():
            testbed = build_testbed(seed=77, optimizer_interval=25.0)
            rng = RandomSource(77)
            config = WorkloadConfig(horizon=200.0, arrival_rate=0.1)
            workload = generate_workload(config, rng.stream("w"))
            for session in workload.sessions:
                def issue(s=session):
                    if s.service_class is ServiceClass.BEST_EFFORT:
                        testbed.broker.request_best_effort(
                            s.user, s.cpu_best, duration=s.duration)
                    else:
                        testbed.broker.request_service(
                            request_for_session(s, s.arrival))
                testbed.sim.schedule_at(session.arrival, issue)
            FailureInjector(testbed.sim, testbed.machine,
                            rng.stream("f"), mtbf=50.0, mttr=20.0).start()
            testbed.sim.run(until=400.0)
            return (testbed.broker.stats.accepted,
                    testbed.broker.stats.completed,
                    round(testbed.broker.ledger.provider_net(
                        testbed.sim.now), 6))

        assert run() == run()
