"""Visitor core, rule registry, suppressions, and the lint runner.

A rule is a class deriving from :class:`Rule`, registered with the
:func:`register` decorator.  Rules run in two phases:

1. :meth:`Rule.check` is called once per parsed file (scope-filtered by
   :attr:`Rule.scopes` / :attr:`Rule.exempt`) and yields
   :class:`Finding` records for that file;
2. :meth:`Rule.finalize` is called once after every file was visited,
   for cross-file invariants (e.g. global metric-name uniqueness) --
   per-file state accumulates in :meth:`ProjectContext.scratch`.

Findings on a line carrying a suppression comment ::

    something_noncompliant()  # sc-lint: disable=SC001
    another_thing()           # sc-lint: disable=SC002,SC005
    anything_at_all()         # sc-lint: disable

are dropped (an id list limits the suppression to those rules; a bare
``disable`` suppresses every rule on the line).  Suppressions apply to
cross-file findings too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import ConfigurationError

#: Rule id reserved for files the runner itself could not parse.
PARSE_ERROR_RULE = "SC000"

_SUPPRESS_RE = re.compile(
    r"#\s*sc-lint\s*:\s*disable(?:\s*=\s*(?P<rules>[A-Z0-9_,\s]+))?"
)

_RULE_ID_RE = re.compile(r"^SC\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: project-root-relative posix path
    line: int  #: 1-based line number
    col: int  #: 0-based column offset
    rule: str  #: rule id, e.g. ``"SC001"``
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` (one line of the report)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class Suppressions:
    """Per-file map of suppression comments, by line number."""

    def __init__(self, source: str) -> None:
        #: line -> frozenset of suppressed ids; empty set = all rules.
        self._by_line: Dict[int, FrozenSet[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                self._by_line[lineno] = frozenset()
            else:
                self._by_line[lineno] = frozenset(
                    part.strip() for part in rules.split(",") if part.strip()
                )

    def extend_from_tree(self, tree: ast.AST) -> None:
        """Merge decorator-line suppressions into the ``def`` line.

        Rules anchor per-function findings at the ``def``/``class``
        line, but a decorated definition *starts* at its first
        decorator — which is where an author naturally writes the
        comment.  Any ``# sc-lint: disable`` on a decorator line (or a
        continuation line of a multi-line decorator call) therefore
        also applies to the definition line.  A bare ``disable``
        (all rules) wins over id lists when merging.
        """
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for deco in node.decorator_list:
                end = getattr(deco, "end_lineno", None) or deco.lineno
                for lineno in range(deco.lineno, end + 1):
                    ids = self._by_line.get(lineno)
                    if ids is None:
                        continue
                    existing = self._by_line.get(node.lineno)
                    if not ids or (existing is not None and not existing):
                        self._by_line[node.lineno] = frozenset()
                    elif existing is None:
                        self._by_line[node.lineno] = ids
                    else:
                        self._by_line[node.lineno] = existing | ids

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when *rule* is disabled on *line*."""
        ids = self._by_line.get(line)
        if ids is None:
            return False
        return not ids or rule in ids


class ProjectContext:
    """Cross-file state shared by every rule over one run."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._scratch: Dict[str, Dict[str, object]] = {}
        #: rel_path -> that file's suppression map (finalize filtering).
        self.suppressions: Dict[str, Suppressions] = {}

    def scratch(self, rule_id: str) -> Dict[str, object]:
        """A mutable per-rule dict surviving from check() to finalize()."""
        return self._scratch.setdefault(rule_id, {})

    def read_doc(self, name: str) -> Optional[str]:
        """The text of ``docs/<name>``, or ``None`` when unavailable."""
        try:
            return (self.root / "docs" / name).read_text(encoding="utf-8")
        except OSError:
            return None


@dataclass
class FileContext:
    """Everything a rule sees about one source file."""

    path: Path  #: absolute filesystem path
    rel_path: str  #: project-root-relative posix path
    source: str
    tree: ast.Module
    project: ProjectContext

    def finding(
        self,
        rule: str,
        node: Union[ast.AST, int],
        message: str,
        col: Optional[int] = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at *node* (or a line number)."""
        if isinstance(node, int):
            line, column = node, col if col is not None else 0
        else:
            line = getattr(node, "lineno", 1)
            column = col if col is not None else getattr(node, "col_offset", 0)
        return Finding(
            path=self.rel_path,
            line=line,
            col=column,
            rule=rule,
            message=message,
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id` / :attr:`title` / :attr:`rationale`,
    optionally narrow :attr:`scopes` and :attr:`exempt`, and implement
    :meth:`check` (per file) and/or :meth:`finalize` (per run).
    """

    #: Stable rule id, e.g. ``"SC001"``.
    id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Why the invariant matters (paper section reference).
    rationale: str = ""
    #: Path fragments the rule applies to (posix, matched as whole path
    #: segments anywhere in the relative path).  Empty = every file.
    scopes: Tuple[str, ...] = ()
    #: Path fragments exempt from the rule even when inside a scope.
    exempt: Tuple[str, ...] = ()

    @staticmethod
    def _fragment_matches(fragment: str, rel_path: str) -> bool:
        probe = "/" + rel_path.strip("/")
        needle = "/" + fragment.strip("/")
        return probe.endswith(needle) or (needle + "/") in probe

    def applies_to(self, rel_path: str) -> bool:
        """Whether the rule should run on *rel_path*."""
        if any(self._fragment_matches(f, rel_path) for f in self.exempt):
            return False
        if not self.scopes:
            return True
        return any(self._fragment_matches(f, rel_path) for f in self.scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Per-file phase; yield findings for *ctx*."""
        return iter(())

    def finalize(self, project: ProjectContext) -> Iterator[Finding]:
        """Cross-file phase; runs once after every file was checked."""
        return iter(())


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding *cls* to the global rule registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ConfigurationError(
            f"rule id {cls.id!r} does not match 'SC' + 3 digits"
        )
    if cls.id == PARSE_ERROR_RULE:
        raise ConfigurationError(
            f"rule id {PARSE_ERROR_RULE} is reserved for parse errors"
        )
    existing = _REGISTRY.get(cls.id)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"duplicate rule id {cls.id}: {existing.__name__} and "
            f"{cls.__name__}"
        )
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, keyed by id (sorted copies)."""
    return dict(sorted(_REGISTRY.items()))


@dataclass(frozen=True)
class LintConfig:
    """Runner options.

    ``select`` limits the run to those rule ids (None = all registered);
    ``ignore`` removes ids after selection.  ``root`` pins the project
    root (default: nearest ancestor of the first path holding a
    ``pyproject.toml``); the doc cross-checks read ``<root>/docs``.
    """

    select: Optional[FrozenSet[str]] = None
    ignore: FrozenSet[str] = frozenset()
    root: Optional[Path] = None


@dataclass
class LintResult:
    """The outcome of one :func:`run_lint` call."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def counts(self) -> Dict[str, int]:
        """Findings per rule id (only ids with >= 1 finding)."""
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding survived."""
        return 1 if self.findings else 0


def find_project_root(start: Path) -> Path:
    """Nearest ancestor of *start* containing ``pyproject.toml``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return Path.cwd()


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
        candidates: Iterable[Path]
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(resolved)
    return out


def _selected_rules(config: LintConfig) -> List[Rule]:
    registry = all_rules()
    if config.select is not None:
        unknown = config.select - set(registry)
        if unknown:
            raise ConfigurationError(
                f"unknown rule ids: {', '.join(sorted(unknown))}"
            )
    ids = [
        rule_id
        for rule_id in registry
        if (config.select is None or rule_id in config.select)
        and rule_id not in config.ignore
    ]
    return [registry[rule_id]() for rule_id in ids]


def run_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Run every selected rule over *paths*; return the combined result."""
    config = config if config is not None else LintConfig()
    files = iter_python_files(paths)
    root = (
        config.root.resolve()
        if config.root is not None
        else find_project_root(files[0] if files else Path.cwd())
    )
    project = ProjectContext(root)
    rules = _selected_rules(config)
    result = LintResult(rules_run=tuple(rule.id for rule in rules))

    for path in files:
        try:
            rel_path = path.relative_to(root).as_posix()
        except ValueError:
            rel_path = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None)
            result.findings.append(
                Finding(
                    path=rel_path,
                    line=line if isinstance(line, int) else 1,
                    col=0,
                    rule=PARSE_ERROR_RULE,
                    message=f"file could not be parsed: {exc}",
                )
            )
            continue
        result.files_checked += 1
        suppressions = Suppressions(source)
        suppressions.extend_from_tree(tree)
        project.suppressions[rel_path] = suppressions
        ctx = FileContext(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            project=project,
        )
        for rule in rules:
            if not rule.applies_to(rel_path):
                continue
            for finding in rule.check(ctx):
                if not suppressions.is_suppressed(finding.rule, finding.line):
                    result.findings.append(finding)

    for rule in rules:
        for finding in rule.finalize(project):
            suppressions_for = project.suppressions.get(finding.path)
            if suppressions_for is not None and suppressions_for.is_suppressed(
                finding.rule, finding.line
            ):
                continue
            result.findings.append(finding)

    result.findings.sort()
    return result
