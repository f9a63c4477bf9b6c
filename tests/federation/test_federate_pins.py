"""Byte pins for the ``repro federate`` report.

The report narrates one seeded federated episode: a crashed broker,
its rejoin, every reroute and delegation with its provenance. Each
run's sha256 is pinned here, so a change to the plane's admission,
delegation or crash handling that moves a byte must be reviewed (then
re-pinned), never absorbed silently.

The reports are rendered by a fresh interpreter through the CLI, the
same way ``tests/experiments/test_quickstart.py`` pins its reports.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: sha256 of the CLI's stdout (the report ends in its own newline).
REPORT_SHA256 = {
    ("--domains", "3", "--crash", "7"):
        "d34c7fdcd9d1e9095acb84ebe95663f9f536731b8c9aa28c684de3f76db7ae09",
    ("--domains", "2", "--crash", "3"):
        "48ec44758f8800e6c02602ccd6366483e0deb271292480283a5171db7b150773",
    ("--domains", "4", "--crash", "11"):
        "fee5888cd59a3ad325225f47be46677a03cbab2c36949a073102a5b757c78221",
}


@pytest.mark.parametrize("args", sorted(REPORT_SHA256), ids=" ".join)
def test_federate_report_bytes_are_pinned(args):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "federate", *args],
        cwd=REPO, env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() \
        == REPORT_SHA256[args]
