"""Baseline file: grandfathered violations, matched by stable key.

A baseline lets the analyzer land with a clean exit on a codebase that
already violates some invariants: pre-existing violations are recorded
once (``--write-baseline``) and matching ones are filtered from
subsequent runs, so pre-existing violations do not fail the build.  The
debt stays visible — the report counts baselined violations, and the
strict check (``--strict-baseline``, which ``make lint-invariants`` and CI
run) fails when baseline entries stop matching anything, forcing stale
entries to be pruned rather than silently outliving the code they
grandfathered.

Matching is by ``(path, key)`` multiset, never by line number: keys name
the rule, symbol and offence (see :class:`repro.analysis.core.Violation`),
so ordinary edits that shift lines do not invalidate the baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Violation
from repro.errors import ConfigurationError

__all__ = ["Baseline", "BaselineEntry", "MatchResult"]

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BaselineEntry:
    """One grandfathered violation, identified by path + stable key."""

    rule: str
    path: str
    key: str


@dataclass
class MatchResult:
    """Partition of a run's violations against a baseline."""

    #: Violations not covered by the baseline — these fail the build.
    new: list[Violation]
    #: Violations matched (and absorbed) by baseline entries.
    baselined: list[Violation]
    #: Baseline entries that matched no violation — stale debt records.
    stale: list[BaselineEntry]


class Baseline:
    """An ordered multiset of grandfathered violations."""

    def __init__(self, entries: list[BaselineEntry] | None = None) -> None:
        self.entries: list[BaselineEntry] = list(entries or [])

    @classmethod
    def from_violations(cls, violations: list[Violation]) -> Baseline:
        return cls(
            [
                BaselineEntry(rule=v.rule, path=v.path, key=v.key)
                for v in violations
            ]
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: Path) -> Baseline:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"baseline file {path} is not valid JSON: {error}"
            ) from error
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ConfigurationError(
                f"baseline file {path} has no 'entries' list"
            )
        version = payload.get("schema_version")
        if version != _SCHEMA_VERSION:
            raise ConfigurationError(
                f"baseline file {path} has schema_version {version!r}; "
                f"this analyzer reads version {_SCHEMA_VERSION} "
                "(regenerate with --write-baseline)"
            )
        entries = []
        for raw in payload["entries"]:
            if not isinstance(raw, dict) or not {"rule", "path", "key"} <= raw.keys():
                raise ConfigurationError(
                    f"baseline file {path} has a malformed entry: {raw!r}"
                )
            entries.append(
                BaselineEntry(rule=raw["rule"], path=raw["path"], key=raw["key"])
            )
        return cls(entries)

    def save(self, path: Path) -> None:
        entries = sorted(
            self.entries, key=lambda entry: (entry.path, entry.rule, entry.key)
        )
        payload = {
            "schema_version": _SCHEMA_VERSION,
            "comment": (
                "Grandfathered reprolint violations. Entries match by "
                "(path, key), not line number. Fix the underlying issue "
                "and delete its entry; never add entries for new code."
            ),
            "entries": [
                {"rule": entry.rule, "path": entry.path, "key": entry.key}
                for entry in entries
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #
    def match(self, violations: list[Violation]) -> MatchResult:
        """Partition ``violations`` into new vs baselined, flagging stale
        entries.  Multiset semantics: an entry absorbs exactly one
        violation, so a *second* occurrence of a grandfathered offence is
        still new."""
        remaining: dict[tuple[str, str], int] = {}
        for entry in self.entries:
            identity = (entry.path, entry.key)
            remaining[identity] = remaining.get(identity, 0) + 1
        new: list[Violation] = []
        baselined: list[Violation] = []
        for violation in violations:
            identity = (violation.path, violation.key)
            if remaining.get(identity, 0) > 0:
                remaining[identity] -= 1
                baselined.append(violation)
            else:
                new.append(violation)
        stale: list[BaselineEntry] = []
        for entry in self.entries:
            identity = (entry.path, entry.key)
            if remaining.get(identity, 0) > 0:
                remaining[identity] -= 1
                stale.append(entry)
        return MatchResult(new=new, baselined=baselined, stale=stale)

    def prune(self, stale: list[BaselineEntry]) -> int:
        """Drop ``stale`` entries (one occurrence each); returns the count."""
        removed = 0
        for entry in stale:
            try:
                self.entries.remove(entry)
            except ValueError:
                continue
            removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.entries)
