"""Engine mechanics: scoping, suppressions, baseline workflow, CLI."""

import json
import textwrap

import pytest

from repro.lint import (
    Finding,
    LintError,
    apply_baseline,
    build_rules,
    lint_source,
    load_baseline,
    rule_classes,
    save_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import ModuleContext, module_relpath


def _rules(rule_id, modules=("*",), **extra):
    overrides = {rule_id: {"modules": list(modules), **extra}}
    return build_rules(select=[rule_id], overrides=overrides)


BAD_EXCEPT = textwrap.dedent(
    """
    def f():
        try:
            g()
        except Exception:
            pass
    """
)


def test_rule_catalogue_is_complete():
    ids = sorted(rule_classes())
    # RL010 (deprecated entry points) retired with the shims it guarded
    assert ids == [f"RL{i:03d}" for i in range(1, 12) if i != 10]


def test_module_scoping_gates_rules():
    rules = _rules("RL006", modules=["repro/service/*"])
    assert lint_source(BAD_EXCEPT, "repro/service/worker.py", rules)
    assert not lint_source(BAD_EXCEPT, "repro/analysis/report.py", rules)


def test_unknown_rule_id_rejected():
    with pytest.raises(KeyError):
        build_rules(select=["RL999"])


def test_same_line_suppression():
    src = BAD_EXCEPT.replace(
        "except Exception:", "except Exception:  # reprolint: disable=RL006"
    )
    assert not lint_source(src, "m.py", _rules("RL006"))


def test_preceding_comment_suppression():
    src = textwrap.dedent(
        """
        def f():
            try:
                g()
            # reprolint: disable=RL006
            except Exception:
                pass
        """
    )
    assert not lint_source(src, "m.py", _rules("RL006"))


def test_suppression_is_rule_specific():
    src = BAD_EXCEPT.replace(
        "except Exception:", "except Exception:  # reprolint: disable=RL001"
    )
    findings = lint_source(src, "m.py", _rules("RL006"))
    assert [f.rule for f in findings] == ["RL006"]


def test_disable_all_suppression():
    src = BAD_EXCEPT.replace(
        "except Exception:", "except Exception:  # reprolint: disable=all"
    )
    assert not lint_source(src, "m.py", _rules("RL006"))


def test_syntax_error_is_lint_error():
    with pytest.raises(LintError):
        ModuleContext("m.py", "def f(:\n")


def test_module_relpath_anchors_at_package():
    from pathlib import Path

    assert (
        module_relpath(Path("/x/repo/src/repro/service/protocol.py"))
        == "repro/service/protocol.py"
    )
    assert (
        module_relpath(Path("tests/lint/test_engine.py"))
        == "tests/lint/test_engine.py"
    )


# ------------------------------------------------------------------ baseline


def test_baseline_roundtrip_and_stale_detection(tmp_path):
    rules = _rules("RL006")
    findings = lint_source(BAD_EXCEPT, "m.py", rules)
    assert len(findings) == 1

    path = tmp_path / "baseline.json"
    save_baseline(path, findings)
    baseline = load_baseline(path)
    assert baseline == {findings[0].key: 1}

    # the grandfathered finding is subtracted...
    fresh, stale = apply_baseline(findings, baseline)
    assert fresh == [] and stale == {}

    # ...a second identical finding is NOT covered by a count of 1...
    fresh, stale = apply_baseline(findings * 2, baseline)
    assert len(fresh) == 1

    # ...and a fixed finding leaves a stale entry behind
    fresh, stale = apply_baseline([], baseline)
    assert fresh == [] and stale == baseline


def test_baseline_key_survives_line_moves():
    rules = _rules("RL006")
    (before,) = lint_source(BAD_EXCEPT, "m.py", rules)
    moved = "x = 1\ny = 2\n" + BAD_EXCEPT
    (after,) = lint_source(moved, "m.py", rules)
    assert before.line != after.line
    assert before.key == after.key


def test_baseline_version_mismatch_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": {}}))
    with pytest.raises(LintError):
        load_baseline(path)


# ----------------------------------------------------------------------- cli


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text("def f():\n    return 1\n")
    assert lint_main(["--no-baseline", str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_reports_findings_and_exit_one(tmp_path, capsys):
    target = tmp_path / "repro" / "service"
    target.mkdir(parents=True)
    bad = target / "bad.py"
    bad.write_text(BAD_EXCEPT)
    assert lint_main(["--no-baseline", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL006" in out and "repro/service/bad.py" in out


def _bad_module(tmp_path):
    """A bad module at a repro-anchored path, so default scoping applies."""
    target = tmp_path / "repro" / "bad.py"
    target.parent.mkdir(exist_ok=True)
    target.write_text(BAD_EXCEPT)
    return target


def test_cli_json_output(tmp_path, capsys):
    target = _bad_module(tmp_path)
    assert lint_main(["--no-baseline", "--format", "json", str(target)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "RL006"


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    target = _bad_module(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert (
        lint_main(["--write-baseline", "--baseline", str(baseline), str(target)])
        == 0
    )
    assert (
        lint_main(["--baseline", str(baseline), str(target)]) == 0
    )
    # fixing the code turns the baseline entry stale -> nonzero exit
    target.write_text("def f():\n    return 1\n")
    assert lint_main(["--baseline", str(baseline), str(target)]) == 1
    assert "stale" in capsys.readouterr().out


def test_cli_select_limits_rules(tmp_path):
    target = _bad_module(tmp_path)
    assert lint_main(["--no-baseline", "--select", "RL002", str(target)]) == 0


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL008"):
        assert rule_id in out


def test_main_module_dispatches_lint(tmp_path, capsys):
    from repro.__main__ import main

    target = tmp_path / "ok.py"
    target.write_text("x = 1\n")
    assert main(["lint", "--no-baseline", str(target)]) == 0
