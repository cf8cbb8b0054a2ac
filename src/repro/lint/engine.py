"""reprolint core: findings, the rule base class, suppressions, the driver.

Two of the repo's contracts are checked on the syntax tree of every
commit because nothing else tests them: decode allocations are sized from
validated quantities (RL001) and wire bytes change only through the
registry (RL003).  The other invariants PR 7-10 wrote rules for are a few
AST asserts each in ``tests/parallel/test_structure.py`` (DESIGN.md §11
maps every one).

One :class:`ModuleContext` per file (AST + source lines), a
:class:`Rule` subclass per invariant (see :mod:`repro.lint.rules`), and
this module's driver, which scopes rules to the modules they guard and
drops findings whose line carries a ``# reprolint: disable=RULE``
comment.  Everything is stdlib ``ast`` — the linter must run in the bare
CI image.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "LintError",
    "dotted_name",
    "names_in",
    "lint_source",
    "lint_paths",
    "module_relpath",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9,\s]+)")


class LintError(Exception):
    """A file could not be linted (syntax error, unreadable, not Python)."""


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-style relative path, forward slashes
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """Parsed view of one source file shared by every rule."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.lines: List[str] = source.splitlines()
        try:
            self.tree: ast.Module = ast.parse(source)
        except SyntaxError as exc:  # pragma: no cover - guarded by tests
            raise LintError(f"{relpath}: syntax error: {exc}") from exc

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when a comment on ``line`` itself disables ``rule``."""
        if not 1 <= line <= len(self.lines):
            return False
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        return match is not None and rule in {
            r.strip().upper() for r in match.group(1).split(",")
        }


class Rule:
    """One invariant check.

    Subclasses set ``rule_id``/``name``/``description``, implement
    :meth:`check`, and name the modules they guard in ``modules``
    (``fnmatch`` globs over repo-relative paths; empty: every module).
    """

    rule_id: str = "RL000"
    name: str = ""
    description: str = ""
    modules: Tuple[str, ...] = ()

    def applies(self, ctx: ModuleContext) -> bool:
        return not self.modules or any(
            fnmatch.fnmatch(ctx.relpath, p) for p in self.modules
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, None for anything dynamic."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def names_in(node: ast.AST) -> Set[str]:
    """Every plain Name referenced inside ``node``.

    Comprehension loop variables are locally bound throwaways, not data
    the expression depends on, so they are skipped.
    """
    skip: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.comprehension):
            for tgt in ast.walk(sub.target):
                if isinstance(tgt, ast.Name):
                    skip.add(tgt.id)
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id not in skip
    }


def call_args_with_keyword(
    call: ast.Call, position: int, keyword: str
) -> Optional[ast.expr]:
    """Argument at ``position`` or passed as ``keyword=``, if present."""
    if len(call.args) > position:
        return call.args[position]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def module_relpath(path: Path) -> str:
    """Repo-style relative path: anchored at the last ``repro``/``tests``
    package directory so results are stable no matter where the checkout
    lives or which working directory the linter runs from."""
    parts = list(path.parts)
    for anchor in ("repro", "tests"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[idx:])
    return "/".join(parts[-2:]) if len(parts) >= 2 else path.name


def _run_rules(
    ctx: ModuleContext, rules: Sequence[Rule]
) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.rule, finding.line):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str, relpath: str, rules: Sequence[Rule]
) -> List[Finding]:
    """Lint one in-memory module (the fixture-test entry point)."""
    return _run_rules(ModuleContext(relpath, source), rules)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    out: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise LintError(f"not a python file or directory: {raw}")
    return sorted(out)


def lint_paths(paths: Sequence[str], rules: Sequence[Rule]) -> List[Finding]:
    """Lint files/trees on disk; findings carry repo-style paths."""
    findings: List[Finding] = []
    for path in discover_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        ctx = ModuleContext(module_relpath(path), source)
        findings.extend(_run_rules(ctx, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
