"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gateway_loaded --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``gateway_loaded``, ``federated_failover``,
``adaptation_replay`` (see ``perfbench/workloads.py``). The run repeats
passes of identical rounds until ``--seconds`` have passed and the
untraced rounds built at least ``MIN_SETUPS`` systems, checks every
round, prints each metric with its unit and sample count, and ends
with one JSON line::

    {"correct": true, "attempted": 750, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the
traced ones plus the tracing overhead, and writes every span to
``perfbench/out/<workload>-seed<seed>.npz``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the import time above is part of setup_s
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, stats, trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

IMPORTED = time.perf_counter()

#: Fewest system set-ups per run, so set-up time is a median of several.
MIN_SETUPS = 3
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def environment() -> dict:
    """Python, CPU model, CPU count, git commit and a source digest."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode("utf-8"))
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "cpu": cpu or "unknown",
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "src_sha256": source.hexdigest()}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def pinned_digest(workload: str, seed: int):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def run_rounds(workload, seconds: float, traced_rounds: bool, recorder,
               bounds):
    """Whole passes until ``seconds`` have passed, and at least
    ``MIN_SETUPS`` set-ups or, with ``traced_rounds``, one untraced and
    one traced pass (every second pass records spans). Returns
    ``(traced, round, end_state)`` triples."""
    rounds = []
    setups = 0
    began = time.perf_counter()
    while (len(rounds) % workload.PASS
           or (len(rounds) < 2 * workload.PASS if traced_rounds
               else setups < MIN_SETUPS)
           or time.perf_counter() - began < seconds):
        traced = traced_rounds and len(rounds) // workload.PASS % 2 == 1
        gc.collect()
        patches = trace.install(bounds, recorder) if traced else None
        try:
            result = workload.round(recorder if traced else None)
        finally:
            if patches is not None:
                patches.remove()
        end = layers.end_state(result.testbeds) if traced else None
        result.testbeds = []
        rounds.append((traced, result, end))
        if not traced:
            setups += len(result.setups)
    return rounds


def pass_digests(results, size: int):
    """One decision digest per pass of ``size`` rounds."""
    digests = [result.digest for result in results]
    if size == 1:
        return digests
    return [hashlib.sha256("".join(digests[start:start + size])
                           .encode("utf-8")).hexdigest()
            for start in range(0, len(digests), size)]


def check(rounds, size: int, pinned):
    """``(failed ops, verdict lines)``. A round that found a problem
    fails, and so does every round of a pass whose decision digest
    differs from the first pass's or from the pinned one."""
    results = [result for _traced, result, _end in rounds]
    digests = pass_digests(results, size)
    reference = pinned if pinned is not None else digests[0]
    failed = 0
    lines = []
    for number, result in enumerate(results):
        problems = list(result.problems)
        digest = digests[number // size]
        if digest != reference:
            problems.append(f"decision digest {digest[:16]} != "
                            f"{'pinned' if pinned else 'first pass'} "
                            f"{reference[:16]}")
        if problems:
            failed += result.ops
            lines += [f"  round {number}: {problem}"
                      for problem in problems[:5]]
    return failed, lines


def end_to_end(rounds, import_s: float):
    """``{name: (value, unit, note)}`` over the untraced rounds.

    Timings are computed per round and the median over rounds is
    reported: the shared host's speed changes from one round to the
    next, and the median keeps a few unusually fast or slow rounds
    from moving the figure.
    """
    plain = [result for traced, result, _end in rounds if not traced]
    tails = [stats.tail(result.latencies) for result in plain]
    ops = sum(result.ops for result in plain)
    setups = [setup for result in plain for setup in result.setups]
    per_round = (f"n={tails[0].samples} per round, median of "
                 f"{len(plain)} rounds")
    return {
        "admissions_per_s": (statistics.median(
            result.decisions / sum(result.latencies) for result in plain),
            "1/s", f"decisions / time in admission calls, {per_round}"),
        "latency_p50_ms": (statistics.median(
            statistics.median(result.latencies) for result in plain) * 1e3,
            "ms", per_round),
        "latency_tail_ms": (statistics.median(
            entry.value for entry in tails) * 1e3, "ms",
            f"p{tails[0].percentile:.4g}, {per_round}"),
        "sessions_per_s": (statistics.median(
            result.ops / result.timed_s for result in plain), "1/s",
            f"{ops} sessions, median of {len(plain)} per-round rates"),
        "setup_s": (import_s + statistics.median(setups), "s",
                    f"imports {import_s:.3f} s + median of {len(setups)} "
                    f"round set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB", "ru_maxrss"),
        "accept_ratio": (sum(result.accepted for result in plain) / ops,
                         "ratio", f"n={ops}"),
        "revenue": (statistics.median(result.revenue for result in plain),
                    "currency", "median of rounds"),
    }


def per_layer(rounds, recorder, bounds, seen):
    """``{name: (value, unit, note)}`` over the traced rounds."""
    traced = [(result, end) for is_traced, result, end in rounds
              if is_traced]
    plain = [result for is_traced, result, _end in rounds if not is_traced]
    ops = sum(result.ops for result, _end in traced)
    recorded = sum(result.recorded_s for result, _end in traced)
    metrics = layers.per_layer(recorder, bounds, seen, ops=ops,
                               recorded_ns=int(recorded * 1e9),
                               ends=[end for _result, end in traced])
    metrics["monitoring.guaranteed_violations_end"] = statistics.median(
        result.extra.get("guaranteed_violations", 0.0)
        for result, _end in traced)
    untraced = (sum(result.recorded_s for result in plain)
                / sum(result.ops for result in plain))
    metrics["trace.overhead_pct"] = 100.0 * (recorded / ops / untraced - 1.0)
    print(f"traced: {len(traced)} of {len(rounds)} rounds, {ops} ops, "
          f"{len(recorder)} spans")
    return {name: (value, unit_of(name), "")
            for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith((".share", "_pct")):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_p50_ms"):
        return "ms"
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith("bytes_end"):
        return "B"
    if name.endswith("wire_bytes"):
        return "B/op"
    if name.endswith("_end"):
        return "count"
    return "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"input {workload.fingerprint()[:16]}  trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")

    seen = bounds = recorder = None
    if args.trace:
        seen = layers.Observations()
        bounds = layers.boundaries(seen)
        recorder = trace.SpanRecorder([bound.name for bound in bounds])
    rounds = run_rounds(workload, args.seconds, bool(args.trace), recorder,
                        bounds)

    pinned = pinned_digest(args.workload, args.seed)
    failed, problems = check(rounds, workload.PASS, pinned)
    attempted = sum(result.ops for _traced, result, _end in rounds)
    digest = pass_digests([result for _traced, result, _end
                           in rounds[:workload.PASS]], workload.PASS)[0]
    print(f"correct {'yes' if not failed else 'NO'}: {len(rounds)} rounds "
          f"in passes of {workload.PASS}, digest {digest[:16]} "
          f"({'pinned' if pinned else 'not pinned; passes agree'})")
    for line in problems:
        print(line)

    if args.trace:
        metrics = per_layer(rounds, recorder, bounds, seen)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        recorder.write(str(out / f"{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end(rounds, IMPORTED - STARTED)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} "
          f"{'ratio':9s} {failed}/{attempted}")
    extra = rounds[0][1].extra
    print("  " + "  ".join(f"{key}={value:g}" for key, value
                           in sorted(extra.items())))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
