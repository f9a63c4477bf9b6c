"""Byte pins for the quickstart reports and the crash journal round trip.

``repro quickstart --chaos / --telemetry / --crash`` replay the paper's
Figure 6 broker activity log under fault injection, under telemetry and
across a broker crash. Each report's sha256 is pinned here, so a change
to any of them must be reviewed (then re-pinned), never absorbed
silently.

The pins are rendered by a fresh interpreter through the CLI: the XML
message layer numbers envelopes from a process-global counter, and the
telemetry report shows those ids, so only a fresh process reproduces
every byte the CLI prints. Job ids are numbered per compute manager,
so the chaos and crash reports also repeat inside one interpreter.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.quickstart import (run_chaos_quickstart,
                                          run_crash_quickstart,
                                          summarize_journal)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: sha256 of each report (the CLI's stdout without print's newline).
REPORT_SHA256 = {
    # run_chaos_quickstart(7), run_chaos_quickstart(42)
    ("quickstart", "--chaos", "7"):
        "f0b2b42c51f558e783331c363fd185e126f38374a660133502eacc3a20e5cf45",
    ("quickstart", "--chaos", "42"):
        "5ae528585c024cd2d9ee58da3933ac3de312f6dddc2ff00eaa1d8beafc6d38f3",
    # run_telemetry_quickstart() with chaos_seed None, 7, and seed 3 / 5
    ("quickstart", "--telemetry"):
        "85ac08bd2d088f57075626e6b409b5e472220214c281a5108de611c46ef86d63",
    ("quickstart", "--telemetry", "--chaos", "7"):
        "98aa3fcd69a467507836985dbfe6f4b703e3ca5bb4b8fee54484999db86e8a55",
    ("telemetry", "--seed", "3", "--chaos", "5"):
        "7f0110b3606c0e9044724c77c49b70824a3f9c95e482c3ce6adcbb67bbf52135",
    # run_crash_quickstart(7), run_crash_quickstart(3); their job ids
    # start at 1 since each compute manager numbers its own jobs
    ("quickstart", "--crash", "7"):
        "744da77a67a97b558827ccc4c98d74d7e2146a0a733c54021b4a041a0a7e3777",
    ("quickstart", "--crash", "3"):
        "8458873f8e56647321c7ed297b938436d66ff980d44e6f49d6b73792db13bd4b",
}


def run_cli(*args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO, env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("args", sorted(REPORT_SHA256), ids=" ".join)
def test_report_bytes_are_pinned(args):
    report = run_cli(*args).removesuffix("\n")
    assert hashlib.sha256(report.encode()).hexdigest() \
        == REPORT_SHA256[args]


@pytest.mark.parametrize("render", [run_crash_quickstart,
                                    run_chaos_quickstart],
                         ids=["crash", "chaos"])
def test_report_repeats_in_one_interpreter(render):
    assert render(7) == render(7)


def test_crash_journal_round_trip(tmp_path):
    """The journal written by ``--crash 7 --journal`` replays cold to
    the same record count and the same final SLA outcomes."""
    journal = tmp_path / "crash7.journal"
    report = run_crash_quickstart(7, journal_path=str(journal))
    summary = summarize_journal(str(journal))

    durable = re.search(r"journal records \(durable\): (\d+)", report)
    assert durable is not None
    assert int(durable.group(1)) == 43
    assert summary.splitlines()[0] == (
        f"journal {journal}: {durable.group(1)} durable record(s)")

    outcomes = report.split("final SLA outcomes")[1].split("\n\n")[0]
    reported = re.findall(r"SLA (\d+) \(('\w+'), [^)]*\): (\w+)", outcomes)
    replayed = re.findall(r"^  SLA (\d+) \(('\w+')\): (\w+)$", summary,
                          flags=re.MULTILINE)
    assert len(reported) == 3
    assert replayed == reported
