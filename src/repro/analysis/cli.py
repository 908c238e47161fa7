"""``python -m repro.analysis`` — run the invariant checker.

Exit codes:

* ``0`` — no violations;
* ``1`` — violations found;
* ``2`` — usage or configuration error (bad path, unknown rule).

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

from repro.analysis.core import Rule, Violation, build_index, run_rules
from repro.analysis.rules import default_rules
from repro.errors import ConfigurationError

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


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
    violations: list[Violation], *, module_count: int, rules: list[Rule], out: IO[str]
) -> None:
    for violation in violations:
        out.write(violation.render() + "\n")
    by_rule = Counter(violation.rule for violation in violations)
    width = max((len(rule.rule_id) for rule in rules), default=0)
    out.write("\nper-rule violations:\n")
    for rule in rules:
        out.write(f"  {rule.rule_id:<{width}}  {by_rule.get(rule.rule_id, 0):>3}\n")
    summary = ", ".join(f"{rule}: {count}" for rule, count in sorted(by_rule.items()))
    out.write(
        f"\nreprolint: {len(violations)} violation(s)"
        + (f" ({summary})" if summary else "")
        + f" — {module_count} modules, {len(rules)} rules\n"
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
    violations: list[Violation], *, module_count: int, rule_count: int, out: IO[str]
) -> None:
    payload = {
        "schema_version": 2,
        "summary": {
            "violations": len(violations),
            "modules": module_count,
            "rules": rule_count,
        },
        "violations": [_violation_payload(v) for v in violations],
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

    if args.json or args.format == "json":
        _render_json(
            violations, module_count=len(index), rule_count=len(rules), out=out
        )
    else:
        _render_text(violations, module_count=len(index), rules=rules, out=out)

    return EXIT_VIOLATIONS if violations else EXIT_CLEAN
