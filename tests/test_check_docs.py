"""The docs gate: what counts as a link or a name, and what counts as dead.

``scripts/check_docs.py`` blocks CI, so its contract is pinned the same
way ``bench_compare``'s is: exit 0 when every relative link, every
backticked ``repro`` name and every backticked ``Class.member`` of an
exported ``repro`` class resolves, exit 1 listing the dead ones,
external/anchor targets and fenced code blocks ignored.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _SCRIPT)
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


def _tree(tmp_path: Path, pages: dict[str, str]) -> Path:
    for name, text in pages.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_live_relative_links_pass(tmp_path):
    root = _tree(
        tmp_path,
        {
            "README.md": "[arch](docs/architecture.md) and [api](docs/api.md#anchor)",
            "docs/architecture.md": "[back](../README.md)",
            "docs/api.md": "plain text, no links",
        },
    )
    assert check_docs.main([str(root)]) == 0


def test_dead_relative_link_fails_and_is_listed(tmp_path, capsys):
    root = _tree(tmp_path, {"README.md": "see [gone](docs/missing.md) here"})
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "README.md:1" in out and "docs/missing.md" in out


def test_external_and_anchor_targets_are_skipped(tmp_path):
    root = _tree(
        tmp_path,
        {
            "README.md": (
                "[web](https://example.com/x.md) [mail](mailto:a@b.c) "
                "[anchor](#section) "
                "[badge](../../actions/workflows/ci.yml/badge.svg)"
            ),
        },
    )
    assert check_docs.main([str(root)]) == 0


def test_fenced_code_blocks_are_not_scanned(tmp_path):
    root = _tree(
        tmp_path,
        {
            "docs/guide.md": (
                "real: [ok](index.md)\n"
                "```\n[fake](never/exists.md)\n```\n"
                "after the fence\n"
            ),
            "docs/index.md": "index",
        },
    )
    assert check_docs.main([str(root)]) == 0


def test_reference_style_definitions_are_checked(tmp_path):
    root = _tree(tmp_path, {"docs/guide.md": "[label]: nowhere.md\nuses [label]"})
    assert check_docs.main([str(root)]) == 1


def test_images_and_root_absolute_paths_resolve_from_root(tmp_path):
    root = _tree(
        tmp_path,
        {
            "docs/guide.md": "![fig](/assets/fig.svg) and [conf](/pyproject.toml)",
            "assets/fig.svg": "<svg/>",
            "pyproject.toml": "",
        },
    )
    assert check_docs.main([str(root)]) == 0


def test_fragment_suffix_is_ignored_but_file_must_exist(tmp_path):
    root = _tree(
        tmp_path,
        {
            "README.md": "[ok](docs/a.md#sec) [bad](docs/b.md#sec)",
            "docs/a.md": "a",
        },
    )
    assert check_docs.main([str(root)]) == 1


def test_stale_repro_name_fails_and_is_listed(tmp_path, capsys):
    root = _tree(
        tmp_path,
        {
            "docs/api.md": (
                "built by `repro.api.builder.ScrutinizerBuilder` and\n"
                "written by `repro.nope` here\n"
            ),
            "ROADMAP.md": "history may name `repro.gone`",
        },
    )
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "docs/api.md:2: unresolved name -> repro.nope" in out
    assert "ScrutinizerBuilder" not in out
    assert "repro.gone" not in out


def test_class_qualified_names_resolve_against_exported_classes(tmp_path, capsys):
    root = _tree(
        tmp_path,
        {
            "docs/api.md": (
                "timed in `BatchResult.planning_seconds` (a dataclass field)\n"
                "featurized by `ClaimFeaturizer.nope` here\n"
                "not a repro class: `Foo.bar` and `Future.result`\n"
            ),
        },
    )
    assert check_docs.main([str(root)]) == 1
    out = capsys.readouterr().out
    assert "docs/api.md:2: unresolved name -> ClaimFeaturizer.nope" in out
    assert "planning_seconds" not in out
    assert "Foo.bar" not in out and "Future.result" not in out


def test_repository_docs_have_no_dead_links():
    """The gate holds on the real tree (the same call CI makes)."""
    root = _SCRIPT.parent.parent
    assert check_docs.main([str(root)]) == 0
