"""The combined report over spans, metrics and the event stream.

It renders the three telemetry surfaces into deterministic text so
the CLI (``repro telemetry`` / ``repro quickstart --telemetry``) can
emit a Figure-6-style activity report, and so tests can diff the
output byte-for-byte across same-seed runs.
"""

from __future__ import annotations

from typing import List


def figure6_report(telemetry: "object", *, title: str = "telemetry"
                   ) -> str:
    """A combined activity report: spans, metrics, then raw events.

    ``telemetry`` is the hub (duck-typed: ``tracer``, ``metrics``,
    ``stream``). Sections are separated with underlined headers so the
    report reads like the paper's Figure 6 activity timeline plus the
    capacity/SLA dashboard.
    """
    sections: List[str] = []

    def heading(text: str) -> None:
        sections.append(f"{text}\n{'-' * len(text)}")

    heading(f"{title}: span trees")
    sections.append(telemetry.tracer.render_tree() or "(no spans)")
    heading(f"{title}: metrics snapshot")
    sections.append(telemetry.metrics.render_prometheus()
                    or "(no metrics)")
    heading(f"{title}: event stream (JSONL)")
    sections.append(telemetry.stream.to_jsonl() or "(no events)")
    return "\n\n".join(sections)
