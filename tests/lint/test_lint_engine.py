"""Engine mechanics: the rule catalogue, scoping, suppressions, CLI."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, LintError, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import ModuleContext, module_relpath

BAD_DECODE = textwrap.dedent(
    """
    import numpy as np

    def decode_stream(reader):
        return np.empty(reader.u64(), dtype="<f8")
    """
)
FLAGGED = "return np.empty(reader.u64(), dtype=\"<f8\")"


def test_rule_catalogue_is_complete():
    # RL002, RL004-RL009 and RL011 are pins in
    # tests/parallel/test_structure.py; RL010 went with the shims it guarded
    assert [rule.rule_id for rule in RULES] == ["RL001", "RL003"]


def test_module_scoping_gates_rules():
    assert lint_source(BAD_DECODE, "repro/encoding/codec.py", RULES)
    assert not lint_source(BAD_DECODE, "repro/analysis/report.py", RULES)


def test_same_line_suppression():
    src = BAD_DECODE.replace(FLAGGED, FLAGGED + "  # reprolint: disable=RL001")
    assert not lint_source(src, "repro/encoding/codec.py", RULES)


def test_suppression_is_rule_specific():
    src = BAD_DECODE.replace(FLAGGED, FLAGGED + "  # reprolint: disable=RL003")
    findings = lint_source(src, "repro/encoding/codec.py", RULES)
    assert [f.rule for f in findings] == ["RL001"]


def test_syntax_error_is_lint_error():
    with pytest.raises(LintError):
        ModuleContext("m.py", "def f(:\n")


def test_module_relpath_anchors_at_package():
    assert (
        module_relpath(Path("/x/repo/src/repro/service/protocol.py"))
        == "repro/service/protocol.py"
    )
    assert (
        module_relpath(Path("tests/lint/test_engine.py"))
        == "tests/lint/test_engine.py"
    )


# ----------------------------------------------------------------------- cli


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text("def f():\n    return 1\n")
    assert lint_main([str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_reports_findings_and_exit_one(tmp_path, capsys):
    target = tmp_path / "repro" / "service"
    target.mkdir(parents=True)
    bad = target / "bad.py"
    bad.write_text(BAD_DECODE)
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "repro/service/bad.py" in out


def test_cli_rejects_a_path_that_is_not_python(tmp_path, capsys):
    assert lint_main([str(tmp_path / "notes.txt")]) == 2
    assert "not a python file" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["RL001", "RL003"]


def test_main_module_dispatches_lint(tmp_path, capsys):
    from repro.__main__ import main

    target = tmp_path / "ok.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target)]) == 0
    assert main(["lint", "--list-rules"]) == 0
