"""``python -m repro.analysis`` — run the invariant checker.

Exit codes:

* ``0`` — no violations outside the baseline (stale baseline entries are
  reported but tolerated unless ``--strict-baseline``);
* ``1`` — new violations found;
* ``2`` — usage or configuration error (bad path, unknown rule,
  unreadable baseline);
* ``3`` — ``--strict-baseline`` and the baseline contains stale entries.

``main`` takes ``argv`` and an output stream so tests drive it
in-process; only ``__main__`` touches ``sys.argv`` and ``sys.exit``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import IO

from repro.analysis.baseline import Baseline, MatchResult
from repro.analysis.core import Rule, Violation, build_index, run_rules
from repro.analysis.rules import default_rules
from repro.errors import ConfigurationError

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_STALE_BASELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST-based checker for the project's determinism, "
            "snapshot, locking and layering invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--baseline",
        default="reprolint.baseline.json",
        help="baseline file of grandfathered violations "
        "(default: reprolint.baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file: report every violation as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current violations to the baseline file and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="exit 3 if any baseline entry no longer matches a violation "
        "(stale-entry check; make lint-invariants uses it)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rules and the invariants they protect",
    )
    return parser


def _select_rules(spec: str | None) -> list[Rule]:
    rules = default_rules()
    if spec is None:
        return rules
    wanted = [part.strip() for part in spec.split(",") if part.strip()]
    by_id = {rule.rule_id: rule for rule in rules}
    unknown = [name for name in wanted if name not in by_id]
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(available: {', '.join(sorted(by_id))})"
        )
    return [by_id[name] for name in wanted]


def _render_text(
    result: MatchResult, *, module_count: int, rules: list[Rule], out: IO[str]
) -> None:
    for violation in result.new:
        out.write(violation.render() + "\n")
    if result.stale:
        out.write("\n")
        for entry in result.stale:
            out.write(
                f"stale baseline entry: {entry.path} [{entry.rule}] "
                f"{entry.key} no longer matches any violation — remove it "
                "from the baseline\n"
            )
    new_by_rule = Counter(violation.rule for violation in result.new)
    baselined_by_rule = Counter(violation.rule for violation in result.baselined)
    width = max((len(rule.rule_id) for rule in rules), default=0)
    out.write("\nper-rule violations:\n")
    for rule in rules:
        out.write(
            f"  {rule.rule_id:<{width}}  "
            f"{new_by_rule.get(rule.rule_id, 0):>3} new  "
            f"{baselined_by_rule.get(rule.rule_id, 0):>3} baselined\n"
        )
    summary = ", ".join(
        f"{rule}: {count}" for rule, count in sorted(new_by_rule.items())
    )
    out.write(
        f"\nreprolint: {len(result.new)} new violation(s)"
        + (f" ({summary})" if summary else "")
        + f", {len(result.baselined)} baselined, {len(result.stale)} stale "
        f"baseline entr{'y' if len(result.stale) == 1 else 'ies'} — "
        f"{module_count} modules, {len(rules)} rules\n"
    )


def _violation_payload(violation: Violation) -> dict[str, object]:
    return {
        "rule": violation.rule,
        "path": violation.path,
        "line": violation.line,
        "key": violation.key,
        "message": violation.message,
    }


def _render_json(
    result: MatchResult, *, module_count: int, rule_count: int, out: IO[str]
) -> None:
    payload = {
        "schema_version": 1,
        "summary": {
            "new": len(result.new),
            "baselined": len(result.baselined),
            "stale_baseline_entries": len(result.stale),
            "modules": module_count,
            "rules": rule_count,
        },
        "violations": [_violation_payload(v) for v in result.new],
        "baselined": [_violation_payload(v) for v in result.baselined],
        "stale_baseline_entries": [
            {"rule": entry.rule, "path": entry.path, "key": entry.key}
            for entry in result.stale
        ],
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        # as return codes so in-process callers never see SystemExit.
        return int(error.code or 0)

    try:
        rules = _select_rules(args.rules)
    except ConfigurationError as error:
        out.write(f"error: {error}\n")
        return EXIT_USAGE

    if args.list_rules:
        for rule in rules:
            out.write(f"{rule.rule_id}\n")
            out.write(f"    {rule.description}\n")
            out.write(f"    invariant: {rule.invariant}\n")
        return EXIT_CLEAN

    try:
        index = build_index([Path(p) for p in args.paths])
        violations = run_rules(index, rules)
    except ConfigurationError as error:
        out.write(f"error: {error}\n")
        return EXIT_USAGE

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        Baseline.from_violations(violations).save(baseline_path)
        out.write(
            f"wrote {len(violations)} entr"
            f"{'y' if len(violations) == 1 else 'ies'} to {baseline_path}\n"
        )
        return EXIT_CLEAN

    if not args.no_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except ConfigurationError as error:
            out.write(f"error: {error}\n")
            return EXIT_USAGE
    else:
        baseline = Baseline()
    result = baseline.match(violations)

    if args.json or args.format == "json":
        _render_json(
            result, module_count=len(index), rule_count=len(rules), out=out
        )
    else:
        _render_text(result, module_count=len(index), rules=rules, out=out)

    if result.new:
        return EXIT_VIOLATIONS
    if result.stale and args.strict_baseline:
        return EXIT_STALE_BASELINE
    return EXIT_CLEAN
