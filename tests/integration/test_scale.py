"""Scale smoke tests: the stack at well beyond the paper's testbed size.

Not micro-benchmarks (those live in ``benchmarks/``) — these assert
the system stays correct and tractable at a 600-node machine with
hundreds of concurrent sessions.
"""

from __future__ import annotations

import time

import pytest

from repro.core.capacity import CapacityPartition
from repro.core.testbed import build_testbed
from repro.qos.classes import ServiceClass
from repro.sim.random import RandomSource
from repro.workloads.generators import WorkloadConfig, generate_workload
from repro.workloads.replay import request_for_session


class TestLargePartition:
    def test_five_hundred_users(self):
        partition = CapacityPartition(3000, 1000, 1000,
                                      best_effort_min=200)
        for index in range(400):
            partition.admit_guaranteed(f"g{index}", 7)
            partition.set_guaranteed_demand(f"g{index}", 7)
        for index in range(100):
            partition.set_best_effort_demand(f"b{index}", 15)
        report = partition.apply_failure(500)
        assert report.guarantees_honored
        assert partition.total_served() <= sum(
            partition.effective_sizes()) + 1e-6

    def test_rebalance_speed(self):
        partition = CapacityPartition(3000, 1000, 1000)
        for index in range(300):
            partition.admit_guaranteed(f"g{index}", 10)
            partition.set_guaranteed_demand(f"g{index}", 10)
        started = time.perf_counter()
        for _ in range(50):
            partition.rebalance()
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"50 rebalances took {elapsed:.2f}s"


class TestLargeBrokerRun:
    def test_hundreds_of_sessions(self):
        testbed = build_testbed(total_cpu=600, guaranteed_cpu=360,
                                adaptive_cpu=120, best_effort_cpu=120,
                                best_effort_min=30,
                                machine_nodes=1000)
        broker = testbed.broker
        config = WorkloadConfig(horizon=300.0, arrival_rate=1.2,
                                mean_duration=50.0)
        workload = generate_workload(config, RandomSource(5))
        assert len(workload) > 200
        for session in workload.sessions:
            def issue(s=session):
                if s.service_class is ServiceClass.BEST_EFFORT:
                    broker.request_best_effort(s.user, s.cpu_best,
                                               duration=s.duration)
                else:
                    broker.request_service(request_for_session(s, s.arrival))
            testbed.sim.schedule_at(session.arrival, issue)
        started = time.perf_counter()
        last_end = max(s.end for s in workload.sessions)
        testbed.sim.run(until=last_end + 1.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"scale run took {elapsed:.1f}s"
        assert broker.stats.accepted > 100
        # Leak audit at scale.
        assert testbed.broker.allocation.open_sessions() == []
        assert testbed.partition.committed_total() == 0.0
        assert testbed.compute_rm.running_jobs() == []
