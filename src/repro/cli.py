"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``quickstart`` — one full QoS session; prints the Table 1 / Table 3
  XML and the broker activity log.
* ``example56`` — replay the Section 5.6 worked example and print the
  timeline table.
* ``sweep`` — run the X1 adaptation-vs-baselines load sweep and print
  the comparison table.
* ``reserve`` — run the X3 reserve-sizing ablation table.
* ``recover`` — summarize an on-disk write-ahead journal (written by
  ``quickstart --crash SEED --journal PATH``).

All commands are deterministic; ``--seed`` perturbs the stochastic
ones.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from .baselines import (
    AdaptivePolicy,
    FcfsPolicy,
    ProportionalSharePolicy,
    StaticPartitionPolicy,
)
from .experiments.example56 import format_example56, run_example56
from .experiments.harness import run_policy_workload
from .experiments.reporting import format_table
from .sim.random import RandomSource
from .workloads.generators import (
    WorkloadConfig,
    arrival_rate_for_load,
    generate_workload,
)


def _cmd_quickstart(args: argparse.Namespace) -> int:
    if getattr(args, "crash", None) is not None:
        from .experiments.quickstart import run_crash_quickstart
        print(run_crash_quickstart(args.crash,
                                   journal_path=args.journal))
        return 0
    if getattr(args, "telemetry", False):
        from .experiments.quickstart import run_telemetry_quickstart
        print(run_telemetry_quickstart(
            chaos_seed=getattr(args, "chaos", None)))
        return 0
    if getattr(args, "chaos", None) is not None:
        from .experiments.quickstart import run_chaos_quickstart
        print(run_chaos_quickstart(args.chaos))
        return 0
    import importlib.util
    import pathlib
    # The quickstart example is the canonical walkthrough; reuse it.
    candidates = [
        pathlib.Path(__file__).resolve().parents[2] / "examples"
        / "quickstart.py",
        pathlib.Path.cwd() / "examples" / "quickstart.py",
    ]
    for path in candidates:
        if path.exists():
            spec = importlib.util.spec_from_file_location("quickstart",
                                                          path)
            module = importlib.util.module_from_spec(spec)
            assert spec.loader is not None
            spec.loader.exec_module(module)
            module.main()
            return 0
    print("examples/quickstart.py not found; run from the repository "
          "root", file=sys.stderr)
    return 1


def _cmd_example56(_args: argparse.Namespace) -> int:
    result = run_example56()
    print("Section 5.6 worked example — replayed timeline")
    print(format_example56(result))
    print()
    print(f"guarantees always honored: {result.guarantees_always_honored}")
    print(f"resources never under-utilized: {result.never_underutilized}")
    return 0


_POLICIES = {
    "adaptive": AdaptivePolicy,
    "static": StaticPartitionPolicy,
    "fcfs": FcfsPolicy,
    "proportional": ProportionalSharePolicy,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = WorkloadConfig(horizon=args.horizon)
    failures = [(args.horizon * 0.2, -4.0), (args.horizon * 0.4, 4.0),
                (args.horizon * 0.6, -4.0), (args.horizon * 0.8, 4.0)]
    rows = []
    for load in args.loads:
        rate = arrival_rate_for_load(load, 26.0, config)
        workload = generate_workload(replace(config, arrival_rate=rate),
                                     RandomSource(args.seed))
        for name, policy_class in _POLICIES.items():
            policy = policy_class(15, 6, 5, best_effort_min=2)
            result = run_policy_workload(policy, workload,
                                         failures=failures)
            rows.append([load, name,
                         round(result.guaranteed_acceptance, 3),
                         round(result.violation_time_fraction, 3),
                         round(result.mean_utilization, 3),
                         round(result.best_effort_cpu_time, 0),
                         round(result.revenue, 0)])
    print(format_table(["load", "policy", "acc(G)", "viol-frac", "util",
                        "BE cpu-time", "revenue"],
                       rows,
                       title="X1 — adaptation vs baselines "
                             "(4-node failures injected)"))
    return 0


def _cmd_reserve(args: argparse.Namespace) -> int:
    config = WorkloadConfig(horizon=args.horizon,
                            class_mix=(0.8, 0.1, 0.1),
                            guaranteed_cpu=(3, 8))
    rate = arrival_rate_for_load(1.6, 26.0, config)
    workload = generate_workload(replace(config, arrival_rate=rate),
                                 RandomSource(args.seed))
    rows = []
    for magnitude in (4, 8, 12):
        rng = RandomSource(magnitude)
        events = []
        time = 0.0
        for _ in range(5):
            time += rng.exponential(args.horizon / 6)
            if time >= args.horizon - 20:
                break
            repair = min(args.horizon - 1, time + rng.uniform(20, 60))
            events.append((time, -float(magnitude)))
            events.append((repair, float(magnitude)))
            time = repair
        for ca in (0, 2, 4, 6, 8):
            policy = AdaptivePolicy(21 - ca, ca, 5, best_effort_min=2)
            result = run_policy_workload(policy, workload,
                                         failures=events)
            rows.append([magnitude, 21 - ca, ca,
                         round(result.guaranteed_acceptance, 3),
                         round(result.violation_time_fraction, 4)])
    print(format_table(["failure size", "Cg", "Ca", "acc(G)",
                        "viol-frac"],
                       rows,
                       title="X3 — sizing the adaptive reserve "
                             "(Cg + Ca = 21)"))
    return 0


def _cmd_diagram(_args: argparse.Namespace) -> int:
    from .core.testbed import build_testbed
    from .experiments.sequence import figure2_diagram
    from .qos.classes import ServiceClass
    from .qos.parameters import Dimension, exact_parameter
    from .qos.specification import QoSSpecification
    from .sla.document import NetworkDemand
    from .sla.negotiation import ServiceRequest

    testbed = build_testbed()
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, 10),
        exact_parameter(Dimension.MEMORY_MB, 2048))
    outcome = testbed.broker.request_service(ServiceRequest(
        client="scientists", service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=100.0,
        network=NetworkDemand("135.200.50.101", "192.200.168.33",
                              100.0)))
    assert outcome.accepted, outcome.reason
    testbed.broker.conformance_test(outcome.sla.sla_id)
    testbed.sim.run(until=120.0)
    print("Figure 2 — component interaction sequence "
          "(one full session):\n")
    print(figure2_diagram(testbed.trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="G-QoSM reproduction: demos and experiments")
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser(
        "quickstart", help="run one full QoS session end to end")
    quickstart.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="run the session over a lossy control plane with "
             "seeded fault injection")
    quickstart.add_argument(
        "--telemetry", action="store_true",
        help="run with the telemetry hub installed and print the "
             "span-tree / metrics / event-stream activity report")
    quickstart.add_argument(
        "--crash", type=int, default=None, metavar="SEED",
        help="kill the broker at a seed-chosen journal write point, "
             "recover from the write-ahead journal, and finish the "
             "session")
    quickstart.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="with --crash: also write the durable journal to PATH "
             "(readable later via 'repro recover PATH')")

    recover = subparsers.add_parser(
        "recover", help="summarize an on-disk write-ahead journal "
                        "(cold-restart replay, no testbed)")
    recover.add_argument("journal", metavar="JOURNAL",
                         help="path to a journal written by "
                              "'quickstart --crash ... --journal PATH'")

    telemetry = subparsers.add_parser(
        "telemetry", help="quickstart with spans, metrics, and the "
                          "event stream rendered (Figure 6 style)")
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="overlay seeded fault injection on the control plane")

    subparsers.add_parser(
        "example56", help="replay the Section 5.6 worked example")
    subparsers.add_parser(
        "diagram", help="print the Figure 2 sequence diagram")

    sweep = subparsers.add_parser(
        "sweep", help="adaptation vs baselines load sweep (X1)")
    sweep.add_argument("--loads", type=float, nargs="+",
                       default=[0.4, 0.8, 1.2])
    sweep.add_argument("--horizon", type=float, default=600.0)
    sweep.add_argument("--seed", type=int, default=99)

    reserve = subparsers.add_parser(
        "reserve", help="adaptive-reserve sizing ablation (X3)")
    reserve.add_argument("--horizon", type=float, default=600.0)
    reserve.add_argument("--seed", type=int, default=77)

    obs = subparsers.add_parser(
        "obs", help="flight recorder: replay an atlas scenario with "
                    "decision provenance and query the causal record")
    obs.add_argument("verb", choices=("why", "timeline", "slo"),
                     help="why <sla-id|client|all>: explain every "
                          "verdict; timeline <sla-id>: join decisions "
                          "+ journal + spans; slo: per-class error "
                          "budgets and alerts")
    obs.add_argument("target", nargs="?", default="all",
                     help="an SLA id, a client name, or 'all' "
                          "(why only; default: all)")
    obs.add_argument("--scenario", type=str, default="diurnal_day",
                     help="atlas scenario to replay "
                          "(default: diurnal_day)")
    obs.add_argument("--seed", type=int, default=2003,
                     help="replay seed (default: 2003)")

    federate = subparsers.add_parser(
        "federate", help="federated control plane: N broker domains, "
                         "one crashed at t=30 and rejoined at t=60, "
                         "with cross-domain rerouting explained")
    federate.add_argument("--domains", type=int, default=3,
                          help="number of broker domains (default: 3)")
    federate.add_argument("--crash", type=int, default=7, metavar="SEED",
                          help="seed picking the crashed domain and "
                               "the tenant workload (default: 7)")
    federate.add_argument("--horizon", type=float, default=120.0,
                          help="episode horizon (default: 120)")
    return parser


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .experiments.quickstart import run_telemetry_quickstart
    print(run_telemetry_quickstart(seed=args.seed,
                                   chaos_seed=args.chaos))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import pathlib
    from .experiments.quickstart import summarize_journal
    if not pathlib.Path(args.journal).exists():
        print(f"no journal at {args.journal}", file=sys.stderr)
        return 1
    print(summarize_journal(args.journal))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import FlightRecorder
    from .workloads.replay import replay_scenario

    result = replay_scenario(args.scenario, seed=args.seed,
                             with_journal=True)
    testbed = result.testbed
    assert testbed.decisions is not None
    recorder = FlightRecorder(
        decisions=testbed.decisions,
        tracer=(testbed.telemetry.tracer
                if testbed.telemetry is not None else None),
        journal=testbed.journal, slo=testbed.slo)
    print(f"# scenario: {args.scenario} seed={args.seed}")
    if args.verb == "why":
        print(recorder.why(args.target), end="")
    elif args.verb == "timeline":
        if not args.target.isdigit():
            print("timeline needs a numeric SLA id", file=sys.stderr)
            return 1
        print(recorder.timeline(int(args.target)), end="")
    else:
        print(recorder.slo_report(testbed.sim.now), end="")
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    from .federation.demo import run_federate_demo
    result = run_federate_demo(domains=args.domains,
                               crash_seed=args.crash,
                               horizon=args.horizon)
    print(result.text, end="")
    return 1 if (result.problems or result.unexplained_reroutes) else 0


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "telemetry": _cmd_telemetry,
    "recover": _cmd_recover,
    "example56": _cmd_example56,
    "diagram": _cmd_diagram,
    "sweep": _cmd_sweep,
    "reserve": _cmd_reserve,
    "obs": _cmd_obs,
    "federate": _cmd_federate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
