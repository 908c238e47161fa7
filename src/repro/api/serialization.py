"""JSON file helpers for verification reports.

Reports and per-claim verifications serialize to plain JSON so they can
cross process boundaries — a worker process can run the verification loop
and ship the report to a collector, or a run can be checkpointed to disk
and analysed later.  The canonical implementation lives on the dataclasses
themselves (:meth:`~repro.core.report.VerificationReport.to_json` and
friends); this module adds the file helpers.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.report import VerificationReport
from repro.errors import SerializationError

__all__ = ["read_report", "write_report"]


def write_report(report: VerificationReport, path: str | Path) -> Path:
    """Write a report to ``path`` as indented JSON; returns the path."""
    target = Path(path)
    target.write_text(report.to_json(indent=2), encoding="utf-8")
    return target


def read_report(path: str | Path) -> VerificationReport:
    """Load a report previously written with :func:`write_report`."""
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as error:
        raise SerializationError(f"cannot read report from {source}: {error}") from error
    return VerificationReport.from_json(text)
