"""Measured layer shares per workload, checked against the predictions.

Usage, from the repository root::

    python3 perfbench/shares.py --seed 1 --seconds 25

Runs ``run.py --trace 1`` on every workload, prints each layer's share
of traced wall time as a markdown table, then each prediction about
where a layer's cost lies with its verdict.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GATEWAY, FEDERATED, REPLAY = ("gateway_loaded", "federated_failover",
                              "adaptation_replay")

#: (claim, check over {workload: {metric: value}}).
PREDICTIONS = [
    ("core.capacity share is highest on gateway_loaded",
     lambda m: m[GATEWAY]["core.capacity.share"]
     > max(m[FEDERATED]["core.capacity.share"],
           m[REPLAY]["core.capacity.share"])),
    ("core.capacity share is small (<10%) on federated_failover",
     lambda m: m[FEDERATED]["core.capacity.share"] < 10.0),
    ("xmlmsg share is highest on federated_failover, absent on the replay",
     lambda m: m[FEDERATED]["xmlmsg.share"] > m[GATEWAY]["xmlmsg.share"]
     and m[REPLAY]["xmlmsg.calls"] == 0),
    ("core.discovery and registry shares are highest on "
     "federated_failover",
     lambda m: all(m[FEDERATED][f"{layer}.share"]
                   >= m[other][f"{layer}.share"]
                   for layer in ("core.discovery", "registry")
                   for other in (GATEWAY, REPLAY))),
    ("rsl inputs are shared on federated_failover, not on the replay",
     lambda m: m[FEDERATED]["rsl.distinct_ratio"] < 0.1
     < m[REPLAY]["rsl.distinct_ratio"]),
    ("core.optimizer is the largest layer share on adaptation_replay",
     lambda m: all(m[REPLAY]["core.optimizer.share"] >= value
                   for name, value in m[REPLAY].items()
                   if name.endswith(".share"))),
    ("core.optimizer and monitoring run only on the replay, and "
     "core.scenarios costs most there",
     lambda m: all(m[workload][name] == 0
                   for workload in (GATEWAY, FEDERATED)
                   for name in ("core.optimizer.runs", "monitoring.tests"))
     and m[REPLAY]["core.scenarios.share"]
     > max(m[GATEWAY]["core.scenarios.share"],
           m[FEDERATED]["core.scenarios.share"])),
    ("obs and telemetry are off on gateway_loaded",
     lambda m: m[GATEWAY]["obs.decisions"] == 0
     and m[GATEWAY]["telemetry.spans"] == 0),
    ("recovery runs on both admission workloads",
     lambda m: m[GATEWAY]["recovery.records"] > 0
     and m[FEDERATED]["recovery.records"] > 0),
    ("delegated and rerouted requests are slower than local ones",
     lambda m: min(m[FEDERATED]["federation.delegated_p50_ms"],
                   m[FEDERATED]["federation.rerouted_p50_ms"])
     > m[FEDERATED]["federation.local_p50_ms"]),
]


def measure(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} failed its checks:\n{out}")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    workloads = (GATEWAY, FEDERATED, REPLAY)
    measured = {workload: measure(workload, args.seed, args.seconds)
                for workload in workloads}
    print("| layer | " + " | ".join(workloads) + " |")
    print("|---" * (len(workloads) + 1) + "|")
    for name in measured[GATEWAY]:
        if name.endswith(".share") or name == "trace.overhead_pct":
            print(f"| {name} | " + " | ".join(
                f"{measured[workload][name]:.1f}%"
                for workload in workloads) + " |")
    print()
    for claim, check in PREDICTIONS:
        print(f"- {'holds' if check(measured) else 'FAILS'}: {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
