"""Framework-level tests: registry, noqa, select/ignore, driver, reporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.driver import LintError, iter_python_files, lint_paths
from repro.devtools.findings import Finding
from repro.devtools.noqa import parse_noqa, suppresses
from repro.devtools.registry import (
    Rule,
    available_rules,
    get_rule,
    register_rule,
    select_rules,
)
from repro.devtools.reporters import REPORT_VERSION, render_json, render_text

FIXTURES = Path(__file__).resolve().parent / "fixtures"

ALL_CODES = [
    "REP102", "REP103", "REP104",
    "REP105", "REP106", "REP107", "REP108",
]


# ---------------------------------------------------------------- registry


def test_all_builtin_rules_registered():
    rules = available_rules()
    assert [r.code for r in rules] == ALL_CODES  # sorted by code
    for rule in rules:
        assert rule.name and rule.category and rule.description


def test_get_rule_unknown_code():
    with pytest.raises(KeyError, match="unknown rule 'REP999'"):
        get_rule("REP999")


def test_register_rule_rejects_duplicate_and_malformed_codes():
    class Duplicate(Rule):
        code = "REP102"

    with pytest.raises(ValueError, match="already registered"):
        register_rule(Duplicate)

    class Malformed(Rule):
        code = "X17"

    with pytest.raises(ValueError, match="REP<digits>"):
        register_rule(Malformed)


def test_select_rules_prefix_matching():
    assert [r.code for r in select_rules()] == ALL_CODES
    assert [r.code for r in select_rules(select=["REP103"])] == ["REP103"]
    assert [r.code for r in select_rules(select=["REP10"])] == ALL_CODES
    assert [r.code for r in select_rules(ignore=["REP106"])] == [
        c for c in ALL_CODES if c != "REP106"
    ]
    # ignore wins over select
    assert select_rules(select=["REP105"], ignore=["REP105"]) == []
    with pytest.raises(ValueError, match="no registered rule matches 'REP9'"):
        select_rules(select=["REP9"])


# ---------------------------------------------------------------- noqa


def test_parse_noqa_codes_and_blanket():
    source = (
        "x = 1  # repro: noqa[REP103]\n"
        "y = 2  # repro: noqa[REP102, REP106]\n"
        "z = 3  # repro: noqa\n"
        "s = '# repro: noqa[REP107]'\n"  # string literal, not a comment
    )
    noqa = parse_noqa(source)
    assert noqa[1] == frozenset({"REP103"})
    assert noqa[2] == frozenset({"REP102", "REP106"})
    assert 4 not in noqa  # noqa inside a string literal is inert
    assert suppresses(noqa, 1, "REP103")
    assert not suppresses(noqa, 1, "REP104")  # wrong code still fires
    assert suppresses(noqa, 3, "REP103") and suppresses(noqa, 3, "REP108")
    assert not suppresses(noqa, 99, "REP103")


def test_noqa_fixture_keeps_only_the_mistagged_print():
    findings, _ = lint_paths([str(FIXTURES / "noqa" / "suppressed.py")])
    assert [(f.line, f.code) for f in findings] == [(19, "REP106")]


# ---------------------------------------------------------------- driver


def test_select_and_ignore_thread_through_lint_paths():
    corpus = [str(FIXTURES)]
    only_103, _ = lint_paths(corpus, select=["REP103"])
    assert {f.code for f in only_103} == {"REP103"}
    without_103, _ = lint_paths(corpus, ignore=["REP103"])
    assert "REP103" not in {f.code for f in without_103}
    with pytest.raises(LintError, match="no registered rule matches"):
        lint_paths(corpus, select=["REP9"])


def test_iter_python_files_sorted_and_pycache_skipped(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-39.py").write_text("x = 1\n")
    assert [p.name for p in iter_python_files([str(tmp_path)])] == ["a.py", "b.py"]


def test_driver_errors_are_lint_errors(tmp_path):
    with pytest.raises(LintError, match="no such file or directory"):
        lint_paths([str(tmp_path / "missing.py")])
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(LintError, match="no Python files found"):
        lint_paths([str(empty)])
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    with pytest.raises(LintError, match="cannot parse"):
        lint_paths([str(broken)])


def test_cli_modules_are_exempt_from_print_rule(tmp_path):
    source = 'def report(x):\n    print("x =", x)\n'
    lib = tmp_path / "lib.py"
    lib.write_text(source)
    cli = tmp_path / "cli.py"
    cli.write_text(source)
    lib_findings, _ = lint_paths([str(lib)])
    assert [f.code for f in lib_findings] == ["REP106"]
    cli_findings, _ = lint_paths([str(cli)])
    assert cli_findings == []


def test_findings_sorted_and_deduplicated():
    findings, _ = lint_paths([str(FIXTURES)])
    keys = [(f.path, f.line, f.column, f.code) for f in findings]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------- reporters


def test_render_text_summary_grammar():
    f = Finding(path="x.py", line=3, column=1, code="REP106", message="boom")
    assert render_text([f], files_checked=1).splitlines() == [
        "x.py:3:1: REP106 boom",
        "1 finding in 1 file",
    ]
    assert render_text([], files_checked=2) == "0 findings in 2 files"


def test_render_json_round_trip():
    findings, files = lint_paths([str(FIXTURES / "rep106")])
    report = json.loads(render_json(findings, files, ALL_CODES))
    assert report["version"] == REPORT_VERSION
    assert report["tool"] == "repro-lint"
    assert report["rules"] == ALL_CODES
    assert report["files_checked"] == files == 2
    assert len(report["findings"]) == 1
    entry = report["findings"][0]
    assert entry["code"] == "REP106"
    assert entry["rule"] == get_rule("REP106").name
    assert entry["category"] == get_rule("REP106").category
    assert Path(entry["path"]).name == "bad_rep106.py"
    assert (entry["line"], entry["column"]) == (5, 4)
    assert entry["message"] == findings[0].message
    # round trip: the JSON entries reconstruct the Finding objects exactly
    rebuilt = [
        Finding(
            path=e["path"], line=e["line"], column=e["column"],
            code=e["code"], message=e["message"],
        )
        for e in report["findings"]
    ]
    assert rebuilt == findings
