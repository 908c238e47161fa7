"""CLI tests for ``python -m repro.analysis``.

Drives :func:`repro.analysis.cli.main` in-process with an explicit output
stream, covering the exit-code contract (0 clean / 1 violations /
2 usage error) and the JSON report schema.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main

CLEAN_SOURCE = """
    from repro.errors import ConfigurationError

    def f(x):
        if x < 0:
            raise ConfigurationError("negative")
        return x
"""

DIRTY_SOURCE = """
    def f(x):
        if x < 0:
            raise ValueError("negative")
        print("checked", x)
        return x
"""


@pytest.fixture()
def package(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    # Fixture modules live in a subpackage the layer map knows (``text``),
    # so the layering rule's unmapped-package check stays quiet.
    (root / "text").mkdir()
    (root / "text" / "__init__.py").write_text("", encoding="utf-8")
    return root


def write_module(package: Path, name: str, source: str) -> Path:
    target = package / "text" / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def run(package: Path, *extra: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main([str(package), *extra], out=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, package):
        write_module(package, "a.py", CLEAN_SOURCE)
        code, output = run(package)
        assert code == 0
        assert "reprolint: 0 violation(s)" in output

    def test_violations_exit_one(self, package):
        write_module(package, "a.py", DIRTY_SOURCE)
        code, output = run(package)
        assert code == 1
        assert "[error-taxonomy]" in output
        assert "[print-hygiene]" in output

    def test_missing_path_exits_two(self, tmp_path):
        out = io.StringIO()
        code = main([str(tmp_path / "nowhere")], out=out)
        assert code == 2
        assert "error:" in out.getvalue()

    def test_unknown_rule_exits_two(self, package):
        write_module(package, "a.py", CLEAN_SOURCE)
        code, output = run(package, "--rules", "no-such-rule")
        assert code == 2
        assert "unknown rule id" in output

    def test_unknown_flag_exits_two(self, package):
        for flag in (
            "--frobnicate",
            "--baseline=reprolint.baseline.json",
            "--no-baseline",
            "--write-baseline",
            "--strict-baseline",
        ):
            code, _ = run(package, flag)
            assert code == 2, flag

    def test_rule_selection_limits_scope(self, package):
        write_module(package, "a.py", DIRTY_SOURCE)
        code, output = run(package, "--rules", "print-hygiene")
        assert code == 1
        assert "[print-hygiene]" in output
        assert "[error-taxonomy]" not in output

    def test_list_rules(self, package):
        code, output = run(package, "--list-rules")
        assert code == 0
        for rule_id in (
            "rng-discipline",
            "snapshot-coverage",
            "lock-discipline",
            "layering",
            "error-taxonomy",
            "print-hygiene",
            "wall-clock",
        ):
            assert rule_id in output
        assert "invariant:" in output


class TestJsonReport:
    def test_schema(self, package):
        write_module(package, "a.py", DIRTY_SOURCE)
        code, output = run(package, "--format", "json")
        assert code == 1
        payload = json.loads(output)
        assert payload["schema_version"] == 2
        assert set(payload) == {"schema_version", "summary", "violations"}
        assert set(payload["summary"]) == {"violations", "modules", "rules"}
        assert payload["summary"]["violations"] == len(payload["violations"]) > 0
        for violation in payload["violations"]:
            assert set(violation) == {"rule", "path", "line", "key", "message"}
            assert isinstance(violation["line"], int)

    def test_clean_json(self, package):
        write_module(package, "a.py", CLEAN_SOURCE)
        code, output = run(package, "--format", "json")
        assert code == 0
        payload = json.loads(output)
        assert payload["violations"] == []
