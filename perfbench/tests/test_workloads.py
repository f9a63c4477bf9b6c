"""Workload generators and checks, on scaled-down copies of the
benchmark's workloads so each round takes well under a second."""

import json

import pytest

from perfbench import layers, run
from perfbench.trace import SpanRecorder
from perfbench.workloads import (WORKLOADS, AdaptationReplay,
                                 FederatedFailover, GatewayLoaded)


class SmallGateway(GatewayLoaded):
    PRELOAD = 40
    PRELOAD_CHUNK = 16
    ADMISSIONS = 15


class SmallFederation(FederatedFailover):
    ADMISSIONS = 60
    SMALL_POOL = dict(FederatedFailover.BIG, total_cpu=1004,
                      guaranteed_cpu=4)


class SmallReplay(AdaptationReplay):
    SCALE = 1
    PASS = 2


@pytest.mark.parametrize("workload", list(WORKLOADS.values()),
                         ids=list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(workload):
    assert workload(3).fingerprint() == workload(3).fingerprint()
    assert workload(3).fingerprint() != workload(4).fingerprint()


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("workload", [SmallGateway, SmallFederation,
                                      SmallReplay],
                         ids=["gateway", "federation", "replay"])
def test_passes_pass_their_checks_and_repeat_exactly(workload, seed):
    instance = workload(seed)
    results = [instance.round(None) for _ in range(2 * instance.PASS)]
    assert [result.problems for result in results] == [[]] * len(results)
    first, second = run.pass_digests(results, instance.PASS)
    assert first == second
    assert [(result.accepted, result.revenue) for result in results] == \
        [(result.accepted, result.revenue) for result in
         results[instance.PASS:] * 2]
    assert all(0 < result.accepted <= result.ops for result in results)


def test_seeds_change_the_decisions():
    assert SmallFederation(1).round(None).digest != \
        SmallFederation(2).round(None).digest


def test_a_pass_whose_decisions_change_fails_whole():
    instance = SmallReplay(1)
    rounds = [(False, instance.round(None), None) for _ in range(4)]
    rounds[3][1].digest = "0" * 64
    failed, lines = run.check(rounds, instance.PASS, pinned=None)
    assert failed == rounds[2][1].ops + rounds[3][1].ops
    assert lines and all("decision digest" in line for line in lines)
    rounds[0][1].problems.append("broken")
    failed, _lines = run.check(rounds[:2], instance.PASS, pinned=None)
    assert failed == rounds[0][1].ops


def test_reported_metrics_are_the_ones_benchmark_json_lists():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seen = layers.Observations()
    bounds = layers.boundaries(seen)
    recorder = SpanRecorder([bound.name for bound in bounds])
    rounds = run.run_rounds(SmallReplay(1), 0.0, True, recorder, bounds)
    assert [traced for traced, _result, _end in rounds] == \
        [False, False, True, True]
    for reported, listed in (
            (run.end_to_end(rounds, 0.1), spec["end_to_end"]),
            (run.per_layer(rounds, recorder, bounds, seen),
             spec["per_layer"])):
        assert {name: unit for name, (_value, unit, _note)
                in reported.items()} == \
            {metric["name"]: metric["unit"] for metric in listed}
