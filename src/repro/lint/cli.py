"""``repro lint`` — the reprolint command line.

Usage::

    repro lint src/           # every rule over a tree
    repro lint --list-rules   # the rule catalogue

Exit codes: 0 clean, 1 findings, 2 usage error or an unreadable file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .engine import LintError, lint_paths
from .rules import RULES

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "reprolint: AST-based checker for the invariants nothing else "
            "tests (bounded decode allocations, wire-format stability)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.name:<28} {rule.description}")
        return 0

    try:
        findings = lint_paths(args.paths, RULES)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    checked = ", ".join(args.paths)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\nreprolint: {len(findings)} finding(s) in {checked}")
        return 1
    print(f"reprolint: clean ({checked})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
