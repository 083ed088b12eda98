"""The text report's output contract."""

from __future__ import annotations

from repro.lint.cli import render_text
from repro.lint.framework import Finding, LintResult


def _dirty_result() -> LintResult:
    return LintResult(
        findings=[
            Finding(
                path="src/repro/core/mod.py",
                line=3,
                col=8,
                rule="SC005",
                message="raise of builtin ValueError",
            ),
            Finding(
                path="src/repro/proxy/mod.py",
                line=4,
                col=4,
                rule="SC001",
                message="blocking call time.sleep()",
            ),
        ],
        files_checked=2,
        rules_run=("SC001", "SC005"),
    )


class TestTextReporter:
    def test_one_line_per_finding_plus_summary(self) -> None:
        text = render_text(_dirty_result())
        lines = text.splitlines()
        assert len(lines) == 3
        assert (
            lines[0]
            == "src/repro/core/mod.py:3:8: SC005 raise of builtin ValueError"
        )
        assert lines[-1] == (
            "2 finding(s) in 2 file(s) (SC001: 1, SC005: 1)"
        )

    def test_clean_summary_reports_work_done(self) -> None:
        result = LintResult(files_checked=83, rules_run=tuple("ABCDEF"))
        assert render_text(result) == "clean: 83 file(s), 6 rule(s)"
