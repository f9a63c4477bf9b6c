"""Tests for Algorithm 1's entry points (repro.core.adaptation)."""

from __future__ import annotations

import pytest

from repro.core.adaptation import AdaptationEngine
from repro.core.capacity import CapacityPartition
from repro.errors import AdmissionError
from repro.sim.trace import TraceRecorder


@pytest.fixture
def engine(partition):
    return AdaptationEngine(partition)


class TestAvailableGuaranteedResource:
    def test_matches_paper_condition(self, engine):
        # Σg(v) + g(u) <= Cg
        assert engine.available_guaranteed_resource(15)
        engine.admit_guaranteed("u1", 10)
        assert engine.available_guaranteed_resource(5)
        assert not engine.available_guaranteed_resource(6)


class TestNetCapacity:
    def test_positive_when_cg_covers_demand(self, engine):
        engine.admit_guaranteed("u1", 10)
        engine.allocate_guaranteed_resource("u1", 10)
        # Cn = Ca - max(0, entitled - Cg) = 6 - 0.
        assert engine.net_capacity() == pytest.approx(6.0)

    def test_reduced_by_overflow(self, engine):
        engine.admit_guaranteed("u1", 14)
        engine.allocate_guaranteed_resource("u1", 14)
        engine.partition.apply_failure(3)  # eff Cg = 12
        assert engine.net_capacity() == pytest.approx(4.0)

    def test_negative_means_guarantees_at_risk(self, engine):
        engine.admit_guaranteed("u1", 15)
        engine.allocate_guaranteed_resource("u1", 15)
        engine.partition.apply_failure(10)  # eff Cg = 5, overflow 10 > Ca
        assert engine.net_capacity() < 0


class TestAllocateGuaranteed:
    def test_within_commitment_fully_granted(self, engine):
        engine.admit_guaranteed("u1", 10)
        decision = engine.allocate_guaranteed_resource("u1", 8)
        assert decision.fully_granted
        assert not decision.adapted

    def test_excess_partially_granted_when_tight(self, engine):
        engine.admit_guaranteed("u1", 15)
        decision = engine.allocate_guaranteed_resource("u1", 30)
        assert decision.granted == pytest.approx(21.0)  # 15 + Ca
        assert not decision.fully_granted

    def test_adapt_flag_set_on_transfer(self, engine):
        engine.admit_guaranteed("u1", 14)
        engine.partition.apply_failure(3)
        decision = engine.allocate_guaranteed_resource("u1", 14)
        assert decision.adapted
        assert decision.fully_granted

    def test_preemption_reported(self, engine):
        engine.allocate_best_effort_resource("be", 26)
        engine.admit_guaranteed("u1", 10)
        decision = engine.allocate_guaranteed_resource("u1", 10)
        assert decision.preempted == pytest.approx(10.0)

    def test_unadmitted_user_rejected(self, engine):
        with pytest.raises(AdmissionError):
            engine.allocate_guaranteed_resource("ghost", 5)


class TestAllocateBestEffort:
    def test_strict_test_uses_idle_capacity(self, engine):
        assert engine.can_allocate_best_effort(26)
        assert not engine.can_allocate_best_effort(27)
        engine.admit_guaranteed("u1", 10)
        engine.allocate_guaranteed_resource("u1", 10)
        assert engine.can_allocate_best_effort(16)
        assert not engine.can_allocate_best_effort(17)

    def test_partial_grant_recorded(self, engine):
        decision = engine.allocate_best_effort_resource("be", 40)
        assert decision.granted == pytest.approx(26.0)
        assert not decision.fully_granted

    def test_release(self, engine):
        engine.allocate_best_effort_resource("be", 10)
        engine.release_best_effort("be")
        assert engine.partition.idle_capacity() == pytest.approx(26.0)


class TestCapacityChangeHook:
    def test_failure_and_repair_delegate(self, engine):
        engine.admit_guaranteed("u1", 14)
        engine.allocate_guaranteed_resource("u1", 14)
        report = engine.on_capacity_change(-3.0)
        assert report.adapt_transfer == pytest.approx(2.0)
        report = engine.on_capacity_change(3.0)
        assert report.adapt_transfer == 0.0


class TestTracing:
    def test_decisions_logged(self, partition):
        trace = TraceRecorder()
        engine = AdaptationEngine(partition, trace=trace)
        engine.admit_guaranteed("u1", 10)
        engine.allocate_guaranteed_resource("u1", 10)
        rows = trace.filter(category="adaptation")
        assert any("admitted guaranteed" in r.message for r in rows)
        assert any("guaranteed allocation" in r.message for r in rows)
