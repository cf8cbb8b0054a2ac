"""reprolint — AST-based enforcement of the repo's correctness invariants.

Run it with ``repro lint src/`` (or ``python -m repro lint src/``).
See :mod:`repro.lint.engine` for the framework, :mod:`repro.lint.rules`
for the two rules, and :mod:`repro.lint.wire_registry` for the
declarative wire-format registry RL003 checks against.
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintError,
    ModuleContext,
    Rule,
    lint_paths,
    lint_source,
)
from .rules import RULES
from .wire_registry import WIRE_SPECS, WireSpec, spec_for

__all__ = [
    "RULES",
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "WIRE_SPECS",
    "WireSpec",
    "lint_paths",
    "lint_source",
    "spec_for",
]
