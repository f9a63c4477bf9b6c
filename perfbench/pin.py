"""Pin each workload's decision digest for a range of seeds.

Usage, from the repository root::

    python3 perfbench/pin.py --seeds 0-20 1009

Runs one untraced pass per workload and seed and writes
``perfbench/digests.json``. ``run.py`` then fails every round whose
decisions (admission outcomes, SLA ids and agreed points, or the
replay report) differ from the pinned digest for its seed. Re-pin
only when a change is meant to alter decisions.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import DIGESTS, pass_digests  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def seeds(specs):
    for spec in specs:
        low, _, high = spec.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="seeds or inclusive ranges such as 0-20")
    args = parser.parse_args(argv)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sorted(WORKLOADS):
        for seed in seeds(args.seeds):
            workload = WORKLOADS[name](seed)
            results = [workload.round(None) for _ in range(workload.PASS)]
            problems = [problem for result in results
                        for problem in result.problems]
            if problems:
                print(f"{name} seed {seed}: not pinned, the pass failed: "
                      f"{problems[:3]}")
                return 1
            digest = pass_digests(results, workload.PASS)[0]
            pinned.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
