"""Tests for time-weighted metrics (repro.telemetry)."""

from __future__ import annotations

import pytest

from repro.telemetry import TimeWeightedMetrics


class TestIntegration:
    def test_piecewise_constant_integral(self):
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(0.0, utilization=0.5)
        metrics.observe(10.0, utilization=1.0)
        metrics.finalize(20.0)
        # 0.5 over [0,10) plus 1.0 over [10,20).
        assert metrics.integral("utilization") == pytest.approx(15.0)
        assert metrics.mean("utilization") == pytest.approx(0.75)

    def test_signals_persist_until_changed(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, a=2.0, b=1.0)
        metrics.observe(5.0, a=0.0)  # b unchanged
        metrics.finalize(10.0)
        assert metrics.integral("a") == pytest.approx(10.0)
        assert metrics.integral("b") == pytest.approx(10.0)

    def test_unseen_signal_is_zero(self):
        metrics = TimeWeightedMetrics()
        metrics.finalize(10.0)
        assert metrics.integral("nothing") == 0.0
        assert metrics.mean("nothing") == 0.0

    def test_out_of_order_observation_rejected(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(5.0, x=1.0)
        with pytest.raises(ValueError):
            metrics.observe(4.0, x=2.0)

    def test_same_instant_updates_take_effect(self):
        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, x=1.0)
        metrics.observe(0.0, x=5.0)  # replaces before any time passes
        metrics.finalize(2.0)
        assert metrics.integral("x") == pytest.approx(10.0)

    def test_empty_window_mean_is_zero(self):
        metrics = TimeWeightedMetrics(start=3.0)
        metrics.observe(3.0, x=4.0)
        assert metrics.mean("x") == 0.0

    def test_nonzero_start(self):
        metrics = TimeWeightedMetrics(start=100.0)
        metrics.observe(100.0, x=2.0)
        metrics.finalize(110.0)
        assert metrics.elapsed == pytest.approx(10.0)
        assert metrics.mean("x") == pytest.approx(2.0)


class TestAuditRegressions:
    """Findings of the PR-4 bug audit, pinned as regressions.

    ``TimeWeightedMetrics`` lives in ``repro.telemetry`` (the
    experiments package re-exports it); the audit pinned down two soft
    spots: the zero-fill semantics for signals that first appear
    mid-window, and silent re-finalization moving the window boundary
    under an already-read mean.
    """

    def test_late_first_signal_is_zero_filled(self):
        # A signal first seen at t=10 contributes 0 over [0, 10): the
        # mean is diluted by the lead-in gap, by design, and the gap
        # itself is queryable.
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(10.0, x=4.0)
        metrics.finalize(20.0)
        assert metrics.integral("x") == pytest.approx(40.0)
        assert metrics.mean("x") == pytest.approx(2.0)
        assert metrics.first_observed("x") == 10.0
        assert metrics.zero_filled("x") == pytest.approx(10.0)

    def test_unseen_signal_has_no_gap(self):
        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(0.0, y=1.0)
        metrics.finalize(5.0)
        assert metrics.first_observed("never") is None
        assert metrics.zero_filled("never") == 0.0
        assert metrics.zero_filled("y") == 0.0

    def test_refinalize_is_rejected(self):
        # Regression: a second finalize used to silently extend the
        # window, corrupting means already read from the first close.
        from repro.errors import ValidationError

        metrics = TimeWeightedMetrics()
        metrics.observe(0.0, x=1.0)
        metrics.finalize(10.0)
        assert metrics.finalized
        before = metrics.mean("x")
        with pytest.raises(ValidationError):
            metrics.finalize(20.0)
        assert metrics.mean("x") == before
        assert metrics.elapsed == pytest.approx(10.0)

    def test_observe_after_finalize_is_rejected(self):
        from repro.errors import ValidationError

        metrics = TimeWeightedMetrics()
        metrics.finalize(10.0)
        with pytest.raises(ValidationError):
            metrics.observe(11.0, x=1.0)

    def test_shim_reexports_the_telemetry_class(self):
        from repro.experiments import TimeWeightedMetrics as Reexported
        from repro.telemetry.timeweighted import (
            TimeWeightedMetrics as Canonical,
        )
        assert TimeWeightedMetrics is Canonical
        assert Reexported is Canonical
