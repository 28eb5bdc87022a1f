"""CLI tests for ``repro-lint`` and the ``repro-holiday lint`` alias."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as holiday_main
from repro.devtools.cli import main as lint_main
from repro.devtools.registry import available_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOOD = str(FIXTURES / "rep106" / "good_rep106.py")
BAD = str(FIXTURES / "rep106" / "bad_rep106.py")


def test_exit_zero_and_summary_on_clean_tree(capsys):
    assert lint_main([GOOD]) == 0
    assert capsys.readouterr().out.strip() == "0 findings in 1 file"


def test_exit_one_and_finding_line_on_violation(capsys):
    assert lint_main([BAD]) == 1
    out = capsys.readouterr().out
    assert "REP106 print() in library code" in out
    assert out.strip().endswith("1 finding in 1 file")


def test_exit_two_without_paths(capsys):
    assert lint_main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no paths given" in captured.err


def test_exit_two_on_missing_path(capsys):
    assert lint_main([str(FIXTURES / "does_not_exist")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_exit_two_on_unknown_rule_code(capsys):
    assert lint_main([GOOD, "--select", "REP999"]) == 2
    assert "no registered rule matches" in capsys.readouterr().err


def test_select_and_ignore_flags(capsys):
    assert lint_main([BAD, "--select", "REP102"]) == 0
    assert lint_main([BAD, "--ignore", "REP106"]) == 0
    assert lint_main([BAD, "--select", "rep106"]) == 1  # codes are case-folded
    capsys.readouterr()


def test_json_output_schema(capsys):
    assert lint_main([BAD, "--output", "json", "--ignore", "REP104"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["tool"] == "repro-lint"
    assert report["rules"] == [
        r.code for r in available_rules() if r.code != "REP104"
    ]
    assert report["files_checked"] == 1
    [entry] = report["findings"]
    assert entry["code"] == "REP106"
    assert entry["rule"] == "no-print-in-library"
    assert (entry["line"], entry["column"]) == (5, 4)


def test_list_rules_prints_the_full_table(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "registered lint rules" in out
    for rule in available_rules():
        assert rule.code in out
        assert rule.name in out
    assert len(available_rules()) >= 7


def test_repro_holiday_lint_delegates(capsys):
    assert holiday_main(["lint", GOOD]) == 0
    assert capsys.readouterr().out.strip() == "0 findings in 1 file"
    assert holiday_main(["lint", BAD]) == 1
    assert "REP106" in capsys.readouterr().out
    assert holiday_main(["lint", "--list-rules"]) == 0
    assert "registered lint rules" in capsys.readouterr().out


def test_repro_holiday_help_mentions_lint(capsys):
    import pytest

    with pytest.raises(SystemExit) as excinfo:
        holiday_main(["--help"])
    assert excinfo.value.code == 0
    assert "lint" in capsys.readouterr().out
