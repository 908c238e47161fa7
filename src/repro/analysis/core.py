"""The reprolint core: project index, rule protocol and the runner.

The analyzer parses every module of the scanned tree exactly once into a
:class:`ProjectIndex` and then runs each :class:`Rule` twice — once per
module (:meth:`Rule.check_module`) and once over the whole project
(:meth:`Rule.check_project`) for invariants that live *between* files,
such as the import DAG or the snapshot-hook cross-check.

Rules report :class:`Violation` values.  Every violation carries a stable
``key`` that survives line drift (it names the rule, the symbol and the
offence, not the line number), so a report can be compared across edits.

Suppression: a trailing ``# reprolint: ignore`` comment silences every
rule on that line; ``# reprolint: ignore[rule-id, other-id]`` silences
only the named rules.  Suppressions are for justified exceptions and
should say why on the same line or the one above.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "Module",
    "ProjectIndex",
    "Rule",
    "Violation",
    "build_index",
    "run_rules",
]

#: Matches a reprolint suppression comment anywhere in a source line.
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*ignore(?:\[(?P<rules>[^\]]*)\])?")


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    #: Line-drift-stable identity: it names the offending symbol and
    #: offence, never the line number.  Duplicate keys within one file are
    #: disambiguated by the runner (``#2``, ``#3``...).
    key: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Module:
    """One parsed source module of the scanned tree."""

    name: str
    path: Path
    #: Project-root-relative POSIX path, as reported in violations.
    rel_path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)

    def line(self, number: int) -> str:
        if 1 <= number <= len(self.source_lines):
            return self.source_lines[number - 1]
        return ""

    def suppressed_rules(self, number: int) -> frozenset[str] | None:
        """Rules suppressed on ``number``; ``frozenset()`` means *all*."""
        match = _SUPPRESS_RE.search(self.line(number))
        if match is None:
            return None
        names = match.group("rules")
        if names is None:
            return frozenset()
        return frozenset(part.strip() for part in names.split(",") if part.strip())


class ProjectIndex:
    """Every parsed module of the scanned tree, addressable by name."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules: tuple[Module, ...] = tuple(
            sorted(modules, key=lambda module: module.rel_path)
        )
        self.by_name: dict[str, Module] = {
            module.name: module for module in self.modules
        }

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def get(self, name: str) -> Module | None:
        return self.by_name.get(name)


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`rule_id`, :attr:`description` and
    :attr:`invariant`, and override :meth:`check_module` and/or
    :meth:`check_project`.  Rules must be stateless across runs — any
    configuration happens in ``__init__``.
    """

    rule_id: str = ""
    #: One-line summary shown by ``--list-rules``.
    description: str = ""
    #: The system guarantee the rule protects (shown in reports and docs).
    invariant: str = ""

    def check_module(self, module: Module, index: ProjectIndex) -> Iterable[Violation]:
        return ()

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        return ()

    def violation(
        self, module: Module, node: ast.AST | int, message: str, key: str
    ) -> Violation:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Violation(
            rule=self.rule_id,
            path=module.rel_path,
            line=line,
            message=message,
            key=f"{self.rule_id}:{key}",
        )


def _module_name(file_path: Path, scan_root: Path) -> str:
    """Dotted module name of ``file_path`` relative to ``scan_root``'s parent.

    Scanning ``src/repro`` names modules ``repro.x.y``; scanning a fixture
    directory ``tmp/repro`` does the same, so rules keyed on module names
    behave identically on fixtures and on the real tree.
    """
    relative = file_path.relative_to(scan_root.parent)
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def build_index(paths: Sequence[Path], project_root: Path | None = None) -> ProjectIndex:
    """Parse every ``*.py`` file under ``paths`` into a :class:`ProjectIndex`.

    ``project_root`` anchors the relative paths shown in reports; it
    defaults to the common parent of the scanned paths' parents.
    """
    modules: list[Module] = []
    seen: set[Path] = set()
    for raw in paths:
        scan_root = Path(raw).resolve()
        if scan_root.is_file():
            files: Iterable[Path] = [scan_root]
            scan_root = scan_root.parent
        elif scan_root.is_dir():
            files = sorted(scan_root.rglob("*.py"))
        else:
            raise ConfigurationError(f"no such file or directory: {raw}")
        root = (project_root or scan_root.parent).resolve()
        for file_path in files:
            if file_path in seen or "__pycache__" in file_path.parts:
                continue
            seen.add(file_path)
            source = file_path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(file_path))
            except SyntaxError as error:
                raise ConfigurationError(
                    f"cannot parse {file_path}: {error}"
                ) from error
            try:
                rel = file_path.relative_to(root).as_posix()
            except ValueError:
                rel = file_path.as_posix()
            modules.append(
                Module(
                    name=_module_name(file_path, scan_root),
                    path=file_path,
                    rel_path=rel,
                    tree=tree,
                    source_lines=source.splitlines(),
                )
            )
    return ProjectIndex(modules)


def _apply_suppressions(
    violations: Iterable[Violation], index: ProjectIndex
) -> list[Violation]:
    by_path = {module.rel_path: module for module in index}
    kept: list[Violation] = []
    for violation in violations:
        module = by_path.get(violation.path)
        if module is not None:
            suppressed = module.suppressed_rules(violation.line)
            if suppressed is not None and (
                not suppressed or violation.rule in suppressed
            ):
                continue
        kept.append(violation)
    return kept


def _disambiguate(violations: list[Violation]) -> list[Violation]:
    """Suffix duplicate (path, key) pairs so each key names one violation."""
    counts: Counter[tuple[str, str]] = Counter()
    unique: list[Violation] = []
    for violation in violations:
        identity = (violation.path, violation.key)
        counts[identity] += 1
        if counts[identity] > 1:
            violation = Violation(
                rule=violation.rule,
                path=violation.path,
                line=violation.line,
                message=violation.message,
                key=f"{violation.key}#{counts[identity]}",
            )
        unique.append(violation)
    return unique


def run_rules(index: ProjectIndex, rules: Sequence[Rule]) -> list[Violation]:
    """Run every rule over the index; sorted, suppressed, disambiguated."""
    collected: list[Violation] = []
    for rule in rules:
        for module in index:
            collected.extend(rule.check_module(module, index))
        collected.extend(rule.check_project(index))
    collected = _apply_suppressions(collected, index)
    collected.sort(key=lambda violation: (violation.path, violation.line, violation.key))
    return _disambiguate(collected)
