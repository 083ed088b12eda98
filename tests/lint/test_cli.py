"""CLI surface: ``python -m repro.lint``, the lint's one entry point.

Exit-code contract: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from tests.lint.conftest import LintProject

_VIOLATION = """\
def check(x):
    raise ValueError("negative")
"""


def _args(project: LintProject, *extra: str) -> list:
    return [str(project.root / "src"), "--root", str(project.root), *extra]


class TestLintMain:
    def test_clean_run_exits_zero(
        self, project: LintProject, capsys: pytest.CaptureFixture
    ) -> None:
        project.write("src/repro/core/mod.py", "x = 1\n")
        assert lint_main(_args(project)) == 0
        out = capsys.readouterr().out
        assert "clean: 1 file(s)" in out

    def test_findings_exit_one(
        self, project: LintProject, capsys: pytest.CaptureFixture
    ) -> None:
        project.write("src/repro/core/mod.py", _VIOLATION)
        assert lint_main(_args(project)) == 1
        out = capsys.readouterr().out
        assert "SC005" in out
        assert "src/repro/core/mod.py:2:" in out

    def test_missing_path_exits_two(
        self, project: LintProject, capsys: pytest.CaptureFixture
    ) -> None:
        assert lint_main([str(project.root / "nowhere")]) == 2
        assert "sc-lint: error:" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(
        self, project: LintProject, capsys: pytest.CaptureFixture
    ) -> None:
        project.write("src/repro/core/mod.py", "x = 1\n")
        assert lint_main(_args(project, "--select", "SC999")) == 2
        assert "unknown rule ids: SC999" in capsys.readouterr().out

    def test_select_and_ignore_flags(
        self, project: LintProject, capsys: pytest.CaptureFixture
    ) -> None:
        project.write("src/repro/core/mod.py", _VIOLATION)
        assert lint_main(_args(project, "--ignore", "SC005")) == 0
        capsys.readouterr()
        assert lint_main(_args(project, "--select", "SC005")) == 1

    def test_list_rules(self, capsys: pytest.CaptureFixture) -> None:
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SC001", "SC002", "SC003", "SC004", "SC005", "SC006"):
            assert rule_id in out
        assert "repro/proxy" in out  # scopes are shown


class TestSelfClean:
    def test_repo_sources_are_lint_clean(
        self, capsys: pytest.CaptureFixture
    ) -> None:
        """The acceptance gate: ``python -m repro.lint src`` exits 0."""
        repo_root = Path(__file__).resolve().parents[2]
        src = repo_root / "src"
        if not src.is_dir():  # running from an installed package
            pytest.skip("repo source tree not available")
        code = lint_main([str(src), "--root", str(repo_root)])
        out = capsys.readouterr().out
        assert code == 0, f"sc-lint findings in src:\n{out}"
