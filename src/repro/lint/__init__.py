"""``sc-lint``: project-invariant static analysis for the reproduction.

The interpreter never checks the invariants the paper's correctness
rests on: wire headers must pack big-endian to the exact SC-ICP layout
of Section VI, counting-Bloom counters may only be touched through the
core modules (the Section V-C overflow bound assumes disciplined
increments and decrements), and the asyncio proxy must never block its
event loop or the Table II latency story collapses.  This package makes
those invariants machine-checked:

- :mod:`repro.lint.framework` -- the AST visitor core, rule registry,
  per-line suppression comments, and the runner;
- :mod:`repro.lint.flow` -- the control-flow graphs SC007 walks;
- :mod:`repro.lint.rules` -- the domain rules (SC001..SC008);
- :mod:`repro.lint.cli` -- ``python -m repro.lint``, the one entry
  point, and its text report.

See ``docs/static-analysis.md`` for the rule catalogue and the paper
rationale behind each rule.
"""

# Importing the rules package registers every built-in rule.
import repro.lint.rules  # noqa: F401  (import for effect)
