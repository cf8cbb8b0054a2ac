"""Meta-test: the shipped tree satisfies its own invariant checker.

This is the test CI's lint job mirrors — if a change introduces a
finding anywhere in ``src/``, it fails here first, with the finding text
in the assertion message."""

from pathlib import Path

from repro.lint import RULES, lint_paths

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_lints_clean():
    findings = lint_paths([str(SRC)], RULES)
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"reprolint findings:\n{rendered}"
