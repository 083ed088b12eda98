"""Framework behaviour: suppressions, parse errors, selection, scoping."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint.framework import (
    PARSE_ERROR_RULE,
    LintConfig,
    Rule,
    Suppressions,
    all_rules,
    iter_python_files,
    register,
    run_lint,
)
from tests.lint.conftest import LintProject

_VIOLATION = """\
def check(x):
    if x < 0:
        raise ValueError("negative")
"""


class TestSuppressions:
    def test_bare_disable_suppresses_all(self, project: LintProject) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def check(x):
                raise ValueError("x")  # sc-lint: disable
            """,
        )
        assert project.lint(select="SC005") == []

    def test_targeted_disable_suppresses_named_rule(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def check(x):
                raise ValueError("x")  # sc-lint: disable=SC005
            """,
        )
        assert project.lint(select="SC005") == []

    def test_disable_for_other_rule_does_not_suppress(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def check(x):
                raise ValueError("x")  # sc-lint: disable=SC001
            """,
        )
        assert project.rule_counts(select="SC005") == {"SC005": 1}

    def test_suppression_only_covers_its_line(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def check(x):
                raise ValueError("a")  # sc-lint: disable=SC005
                raise ValueError("b")
            """,
        )
        findings = project.lint(select="SC005")
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_suppression_applies_to_finalize_findings(
        self, project: LintProject
    ) -> None:
        # SC003's kind-conflict finding is emitted in the cross-file
        # phase; the suppression on the second registration line must
        # still win.
        project.write(
            "src/repro/obs/a.py",
            """\
            def setup(registry):
                registry.gauge("queue_depth")
            """,
        )
        project.write(
            "src/repro/obs/b.py",
            """\
            def setup(registry):
                registry.histogram("queue_depth")  # sc-lint: disable=SC003
            """,
        )
        assert project.lint(select="SC003") == []

    def test_comma_separated_rule_list(self) -> None:
        sup = Suppressions("x = 1  # sc-lint: disable=SC001, SC002\n")
        assert sup.is_suppressed("SC001", 1)
        assert sup.is_suppressed("SC002", 1)
        assert not sup.is_suppressed("SC003", 1)
        assert not sup.is_suppressed("SC001", 2)


class TestParseErrors:
    def test_syntax_error_yields_sc000(self, project: LintProject) -> None:
        project.write("src/repro/core/broken.py", "def oops(:\n")
        findings = project.lint()
        assert len(findings) == 1
        assert findings[0].rule == PARSE_ERROR_RULE
        assert "could not be parsed" in findings[0].message

    def test_parse_error_does_not_stop_other_files(
        self, project: LintProject
    ) -> None:
        project.write("src/repro/core/broken.py", "def oops(:\n")
        project.write("src/repro/core/mod.py", _VIOLATION)
        rules = sorted(f.rule for f in project.lint(select="SC005"))
        assert rules == [PARSE_ERROR_RULE, "SC005"]


class TestSelection:
    def test_select_limits_rules(self, project: LintProject) -> None:
        project.write("src/repro/core/mod.py", _VIOLATION)
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert set(project.rule_counts()) == {"SC001", "SC005"}
        assert set(project.rule_counts(select="SC001")) == {"SC001"}

    def test_unknown_select_id_raises(self, project: LintProject) -> None:
        project.write("src/repro/core/mod.py", "x = 1\n")
        with pytest.raises(ConfigurationError, match="SC999"):
            project.lint(select="SC999")

    def test_ignore_removes_rule(self, project: LintProject) -> None:
        project.write("src/repro/core/mod.py", _VIOLATION)
        config = LintConfig(ignore=frozenset({"SC005"}), root=project.root)
        result = run_lint([str(project.root / "src")], config)
        assert result.findings == []
        assert "SC005" not in result.rules_run

    def test_result_exit_codes(self, project: LintProject) -> None:
        project.write("src/repro/core/mod.py", "x = 1\n")
        clean = run_lint(
            [str(project.root / "src")], LintConfig(root=project.root)
        )
        assert clean.exit_code == 0
        assert clean.files_checked == 1
        project.write("src/repro/core/bad.py", _VIOLATION)
        dirty = run_lint(
            [str(project.root / "src")], LintConfig(root=project.root)
        )
        assert dirty.exit_code == 1
        assert dirty.counts == {"SC005": 1}


class TestScoping:
    def test_fragment_matches_whole_segments_only(self) -> None:
        rule = all_rules()["SC001"]()  # scopes = ("repro/proxy",)
        assert rule.applies_to("src/repro/proxy/server.py")
        assert rule.applies_to("repro/proxy/server.py")
        assert not rule.applies_to("src/repro/proxyfoo/server.py")
        assert not rule.applies_to("src/repro/simulation/proxy_model.py")

    def test_exempt_wins_over_scope(self) -> None:
        rule = all_rules()["SC004"]()  # exempt = ("repro/core", ...)
        assert rule.applies_to("src/repro/obs/registry.py")
        assert not rule.applies_to("src/repro/core/bloom.py")


class TestFileDiscovery:
    def test_skips_hidden_and_pycache(self, tmp_path: Path) -> None:
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "mod.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]
        assert "__pycache__" not in files[0].parts

    def test_deduplicates_overlapping_paths(self, tmp_path: Path) -> None:
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        files = iter_python_files([tmp_path, mod])
        assert files == [mod.resolve()]

    def test_missing_path_raises(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigurationError, match="no such file"):
            iter_python_files([tmp_path / "nope"])


class TestRegistry:
    def test_all_eight_rules_registered(self) -> None:
        assert sorted(all_rules()) == [
            "SC001",
            "SC002",
            "SC003",
            "SC004",
            "SC005",
            "SC006",
            "SC007",
            "SC008",
        ]

    def test_docs_rule_table_lists_the_registered_ids(self) -> None:
        """``docs/static-analysis.md`` section 1 documents every rule and
        no rule that is gone."""
        doc = Path(__file__).resolve().parents[2] / "docs/static-analysis.md"
        if not doc.is_file():  # running from an installed package
            pytest.skip("repo docs not available")
        section = doc.read_text(encoding="utf-8").split("\n## 1.", 1)[1]
        section = section.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(SC\d{3})` \|", section, re.MULTILINE)
        assert sorted(documented) == sorted(all_rules())

    def test_register_rejects_malformed_id(self) -> None:
        class BadId(Rule):
            id = "X1"

        with pytest.raises(ConfigurationError, match="3 digits"):
            register(BadId)

    def test_register_reserves_sc000(self) -> None:
        class Reserved(Rule):
            id = PARSE_ERROR_RULE

        with pytest.raises(ConfigurationError, match="reserved"):
            register(Reserved)

    def test_register_rejects_duplicate_id(self) -> None:
        class Imposter(Rule):
            id = "SC001"

        with pytest.raises(ConfigurationError, match="duplicate"):
            register(Imposter)
