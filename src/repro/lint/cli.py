"""``python -m repro.lint``: the lint's one entry point and its report.

Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import FrozenSet, List, Optional

from repro.errors import ConfigurationError
from repro.lint.framework import LintConfig, LintResult, all_rules, run_lint


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-invariant static analysis for the summary cache "
            "reproduction (see docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help=(
            "project root for relative paths and docs/ cross-checks "
            "(default: nearest ancestor with a pyproject.toml)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _parse_ids(raw: Optional[str]) -> Optional[FrozenSet[str]]:
    if raw is None:
        return None
    ids = frozenset(part.strip() for part in raw.split(",") if part.strip())
    return ids or None


def list_rules() -> str:
    """One line per registered rule: ``SC001  title [scopes]``."""
    lines = []
    for rule_id, cls in all_rules().items():
        scope = ", ".join(cls.scopes) if cls.scopes else "all files"
        lines.append(f"{rule_id}  {cls.title}  [{scope}]")
    return "\n".join(lines)


def render_text(result: LintResult) -> str:
    """One ``path:line:col: RULE message`` line per finding.

    Ends with a one-line summary (findings, files, rules) so a clean run
    still produces evidence it looked at something.
    """
    lines = [finding.render() for finding in result.findings]
    counts = result.counts
    if counts:
        per_rule = ", ".join(f"{rule}: {n}" for rule, n in counts.items())
        summary = (
            f"{len(result.findings)} finding(s) in "
            f"{result.files_checked} file(s) ({per_rule})"
        )
    else:
        summary = (
            f"clean: {result.files_checked} file(s), "
            f"{len(result.rules_run)} rule(s)"
        )
    return "\n".join([*lines, summary])


def main(argv: Optional[List[str]] = None) -> int:
    """Parse *argv*, lint, print the report; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    config = LintConfig(
        select=_parse_ids(args.select),
        ignore=_parse_ids(args.ignore) or frozenset(),
        root=Path(args.root) if args.root else None,
    )
    try:
        result = run_lint(args.paths, config)
    except ConfigurationError as exc:
        print(f"sc-lint: error: {exc}")
        return 2
    print(render_text(result))
    return result.exit_code
