#!/usr/bin/env python
"""Dead-link and stale-name checker for the documentation tree (stdlib only).

Scans Markdown files for inline links and images (``[text](target)`` /
``![alt](target)``) plus reference-style definitions (``[label]: target``)
and fails when a *relative* target does not exist on disk.  External
schemes (``http(s)://``, ``mailto:``), in-page anchors (``#section``) and
badge endpoints the repository cannot know about (``../../actions/...``)
are skipped; a relative target's ``#fragment`` suffix is ignored, but the
file part must exist.

It also resolves every dotted ``repro`` name that opens a code span in
``docs/**/*.md`` and ``README.md`` (`` `repro.api.builder.ScrutinizerBuilder` ``):
the longest importable module prefix is imported from ``<root>/src`` and
the rest looked up as attributes.  A span that opens with a class name
and a member (`` `ClaimFeatureStore.matrix` ``) is resolved against the
class of that name that a ``repro`` module lists in ``__all__``; a
dataclass field or annotation declared along the class's MRO counts as a
member.  Other capitalized spans (`` `Future.result` ``, file names) are
left alone.  ``ROADMAP.md`` and ``CHANGES.md`` are history, so the names
they record may be gone.

CI runs this as a blocking step over ``docs/**/*.md``, ``README.md`` and
the other root-level Markdown pages, so the docs cannot silently rot as
files move or code is deleted: a page that links to a renamed neighbour,
or names a deleted module, fails the build.

Usage::

    python scripts/check_docs.py [root]

Exit status 0 when every relative link and every name resolves, 1
otherwise (each is listed as ``file:line: ... -> target``).
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path

__all__ = ["dead_links", "iter_doc_files", "main", "unresolved_names"]

#: Inline links/images.  Targets with spaces plus an optional "title" part
#: are cut at the first whitespace, which is what Markdown does too.
_INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference-style definitions: [label]: target
_REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)")
_FENCE = re.compile(r"^\s*(```|~~~)")
#: A dotted name under the package that opens a code span.
_REPRO_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")
#: A capitalized name with a dotted member chain that opens a code span.
_CLASS_MEMBER = re.compile(r"`([A-Z]\w*)((?:\.[A-Za-z_]\w*)+)")

#: Root-level Markdown pages checked in addition to docs/**/*.md.
_ROOT_PAGES = ("README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "PAPERS.md")


def iter_doc_files(root: Path) -> list[Path]:
    """Every Markdown file the checker covers, sorted for stable output."""
    files = {path for path in (root / "docs").rglob("*.md")}
    for name in _ROOT_PAGES:
        candidate = root / name
        if candidate.is_file():
            files.add(candidate)
    return sorted(files)


def _is_external(target: str) -> bool:
    if target.startswith(("http://", "https://", "mailto:", "#")):
        return True
    # CI badge routes resolve on the forge, not in the checkout.
    return "/actions/" in target


def _prose_lines(text: str) -> list[tuple[int, str]]:
    """``(line_number, line)`` outside fenced code blocks (1-based)."""
    lines: list[tuple[int, str]] = []
    in_fence = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append((line_number, line))
    return lines


def _targets(text: str) -> list[tuple[int, str]]:
    """``(line_number, target)`` for every link in ``text`` (1-based)."""
    found: list[tuple[int, str]] = []
    for line_number, line in _prose_lines(text):
        for match in _INLINE_LINK.finditer(line):
            found.append((line_number, match.group(1)))
        reference = _REFERENCE_DEF.match(line)
        if reference is not None:
            found.append((line_number, reference.group(1)))
    return found


def dead_links(files: list[Path], root: Path) -> list[tuple[Path, int, str]]:
    """Every ``(file, line, target)`` whose relative target does not exist."""
    dead: list[tuple[Path, int, str]] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        for line_number, target in _targets(text):
            if _is_external(target):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if relative.startswith("/"):
                resolved = root / relative.lstrip("/")
            else:
                resolved = path.parent / relative
            if not resolved.exists():
                dead.append((path, line_number, target))
    return dead


def _resolves(name: str) -> bool:
    """Whether the longest importable prefix of ``name`` has the rest."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as error:
            # Only the candidate itself (or a package above it) may be
            # missing; a module that fails on its own imports is a crash.
            if error.name is None or not f"{module}.".startswith(f"{error.name}."):
                raise
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _exported_classes() -> dict[str, type]:
    """Every class a ``repro`` module lists in its ``__all__``, by name."""
    package = importlib.import_module("repro")
    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(package.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    classes: dict[str, type] = {}
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if isinstance(value, type):
                classes[name] = value
    return classes


def _class_member_resolves(owner: type, members: list[str]) -> bool:
    """Whether ``owner`` has the dotted member chain ``members``.

    A dataclass field or annotation declared along the MRO is a member
    even without a class-level value; the names after such a member would
    be attributes of its value, which the class cannot show, so they are
    not checked.
    """
    target: object = owner
    for member in members:
        if hasattr(target, member):
            target = getattr(target, member)
            continue
        return isinstance(target, type) and any(
            member in vars(klass).get("__annotations__", {}) for klass in target.__mro__
        )
    return True


def unresolved_names(files: list[Path], root: Path) -> list[tuple[Path, int, str]]:
    """Every ``(file, line, name)`` whose ``repro`` or class name does not resolve.

    Only ``docs/**/*.md`` and ``README.md`` are scanned; ``root/src`` goes
    on ``sys.path`` first, so the names resolve against that checkout.
    """
    source = root / "src"
    if source.is_dir() and str(source) not in sys.path:
        sys.path.insert(0, str(source))
    classes = _exported_classes()
    pages = [
        path
        for path in files
        if path == root / "README.md" or (root / "docs") in path.parents
    ]
    stale: list[tuple[Path, int, str]] = []
    for path in pages:
        for line_number, line in _prose_lines(path.read_text(encoding="utf-8")):
            for match in _REPRO_NAME.finditer(line):
                if not _resolves(match.group(1)):
                    stale.append((path, line_number, match.group(1)))
            for match in _CLASS_MEMBER.finditer(line):
                owner = classes.get(match.group(1))
                members = match.group(2)[1:].split(".")
                if owner is not None and not _class_member_resolves(owner, members):
                    stale.append((path, line_number, match.group(0)[1:]))
    return stale


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    root = Path(arguments[0]) if arguments else Path(__file__).resolve().parent.parent
    files = iter_doc_files(root)
    broken = dead_links(files, root)
    stale = unresolved_names(files, root)
    for kind, found in (("dead link", broken), ("unresolved name", stale)):
        for path, line_number, target in found:
            try:
                shown = path.relative_to(root)
            except ValueError:
                shown = path
            print(f"{shown}:{line_number}: {kind} -> {target}")
    print(
        f"check_docs: {len(files)} file(s), "
        f"{len(broken)} dead relative link(s), {len(stale)} unresolved name(s)"
    )
    return 1 if broken or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
