"""Golden-corpus tests: every rule, one ``bad_*``/``good_*`` fixture pair.

For each rule the ``bad_*`` fixture must produce *exactly* the golden
findings (code, line, column and full message) and the ``good_*`` fixture —
the sanctioned spelling of the same operations — must stay silent.  A whole-
corpus sweep then proves no rule bleeds into another rule's fixtures.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.driver import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_REP102 = (
    "ProcessPoolExecutor.{method}() given {what}; workers must be "
    "picklable module-level functions (the jobs>1 worker contract)"
)
_REP105 = (
    "{what} outside a 'with self._lock:' block; serve-layer shared state "
    "mutates under the lock (thread-safety contract of repro.serve)"
)
_REP108 = (
    "broad except neither re-raises nor answers through the error envelope; "
    "faults must surface as the JSON envelope with a real status "
    "(repro.serve fault contract)"
)

#: rule -> golden findings of its bad fixture: (line, column, message)
GOLDEN = {
    "rep102": [
        (9, 31, _REP102.format(method="submit", what="a lambda")),
        (18, 29, _REP102.format(
            method="map", what="a function defined inside sum_chunks()")),
        (26, 37, _REP102.format(
            method="map", what="a function defined inside sum_partial()")),
        (35, 28, _REP102.format(method="submit", what="a bound method")),
    ],
    "rep103": [
        (12, 14, "time.time() in an engine module; timing belongs in "
                 "runner-stamped timing fields (time.perf_counter() deltas)"),
        (17, 11, "process-global random.* in an engine module; route randomness "
                 "through repro.utils.rng.derive_seed / a seeded random.Random stream"),
        (21, 11, "json.dumps() without sort_keys=True in an engine module; "
                 "canonical JSON backs cell_id/cache_key hashing"),
        (25, 23, "iterating a set in an engine module without sorted(...); "
                 "set order depends on PYTHONHASHSEED"),
    ],
    "rep104": [
        (17, 0, "EngineConfig field 'turbo' is in neither RESULT_KNOBS nor "
                "WALL_CLOCK_KNOBS; decide its cell-id/cache-key story before "
                "shipping the knob"),
    ],
    "rep105": [
        (13, 8, _REP105.format(what="write to self._hits")),
        (14, 8, _REP105.format(what="item store into self._entries")),
        (17, 8, _REP105.format(what="self._entries.pop()")),
    ],
    "rep106": [
        (5, 4, "print() in library code; route output through "
               "repro.utils.logging.get_logger(...) (CLI modules are exempt)"),
    ],
    "rep107": [
        (12, 8, "object.__setattr__ in rename(); frozen instances mutate only "
                "inside __post_init__, before they are shared "
                "(hash/cell-id stability contract)"),
        (16, 4, "object.__setattr__ in retarget(); frozen instances mutate only "
                "inside __post_init__, before they are shared "
                "(hash/cell-id stability contract)"),
    ],
    "rep108": [
        (7, 4, _REP108),
        (14, 4, _REP108),
    ],
}

RULE_DIRS = sorted(GOLDEN)


def lint_dir(subdir: str, **kwargs):
    findings, _files = lint_paths([str(FIXTURES / subdir)], **kwargs)
    return findings


@pytest.mark.parametrize("rule_dir", RULE_DIRS)
def test_bad_fixture_matches_golden(rule_dir):
    code = rule_dir.upper()
    findings = lint_dir(rule_dir)
    assert [Path(f.path).name for f in findings] == [
        f"bad_{rule_dir}.py"
    ] * len(GOLDEN[rule_dir]), findings
    assert {f.code for f in findings} == {code}
    got = [(f.line, f.column, f.message) for f in findings]
    assert got == GOLDEN[rule_dir]


@pytest.mark.parametrize("rule_dir", RULE_DIRS)
def test_good_fixture_is_clean(rule_dir):
    good = next((FIXTURES / rule_dir).rglob("good_*.py"))
    findings, files = lint_paths([str(good)])
    assert files == 1
    assert findings == []


def test_whole_corpus_has_no_cross_rule_bleed():
    """Linting the full tree yields each rule's golden set and nothing else.

    In particular a bad fixture for one rule never trips a *different* rule
    — each (file, code) pair in the output is the pair its directory owns.
    """
    findings = lint_dir(".")
    by_pair = {(Path(f.path).name, f.code) for f in findings}
    expected = {(f"bad_{d}.py", d.upper()) for d in RULE_DIRS}
    # the noqa fixture keeps one deliberately mis-suppressed print
    expected.add(("suppressed.py", "REP106"))
    assert by_pair == expected
    assert len(findings) == sum(len(v) for v in GOLDEN.values()) + 1
