"""REP104 regression: a knob added to the *real* ``EngineConfig`` is caught.

The rule exists for exactly one future moment: someone adds a field to
:class:`repro.core.config.EngineConfig` and forgets to decide whether it is
hashed into cache keys (``RESULT_KNOBS``) or result-neutral
(``WALL_CLOCK_KNOBS``).  These tests replay that moment against a copy of
the real source file, so the rule is proven against the code it guards —
not just against a hand-built fixture.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.core import config as config_module
from repro.core.config import RESULT_KNOBS, WALL_CLOCK_KNOBS, EngineConfig
from repro.devtools.driver import lint_paths

REAL_CONFIG = Path(config_module.__file__).resolve()
#: unique anchor inside EngineConfig: its last field declaration, where an
#: injected knob lands as the config's newest field
ANCHOR = "    window: Optional[int] = None\n"
#: the WALL_CLOCK_KNOBS literal the stale-entry test edits
WALL_CLOCK_LITERAL = "WALL_CLOCK_KNOBS = frozenset()"



def _rep104(paths):
    findings, _ = lint_paths([str(p) for p in paths], select=["REP104"])
    return findings


def test_unmodified_config_copy_is_clean(tmp_path):
    copy = tmp_path / "config_copy.py"
    copy.write_text(REAL_CONFIG.read_text())
    assert _rep104([copy]) == []


def test_injected_field_is_flagged(tmp_path):
    source = REAL_CONFIG.read_text()
    assert source.count(ANCHOR) == 1, "anchor drifted; update this test"
    copy = tmp_path / "config_copy.py"
    copy.write_text(source.replace(ANCHOR, ANCHOR + "    turbo: bool = False\n"))
    findings = _rep104([copy])
    assert len(findings) == 1
    assert findings[0].code == "REP104"
    assert "'turbo'" in findings[0].message
    assert "RESULT_KNOBS" in findings[0].message


def test_stale_knob_list_entry_is_flagged(tmp_path):
    source = REAL_CONFIG.read_text()
    assert source.count(WALL_CLOCK_LITERAL) == 1, "literal drifted; update this test"
    source = source.replace(
        WALL_CLOCK_LITERAL,
        'WALL_CLOCK_KNOBS = frozenset({"ghost"})',
    )
    copy = tmp_path / "config_copy.py"
    copy.write_text(source)
    findings = _rep104([copy])
    assert len(findings) == 1
    assert "'ghost'" in findings[0].message


def test_knob_lists_cover_runtime_fields_exactly():
    """The static invariant, checked at runtime: sets partition the fields."""
    from dataclasses import fields

    declared = {f.name for f in fields(EngineConfig)}
    assert RESULT_KNOBS | WALL_CLOCK_KNOBS == declared
    assert RESULT_KNOBS & WALL_CLOCK_KNOBS == set()


def test_wall_clock_knobs_never_reach_cache_key(monkeypatch):
    """No knob is wall-clock-only today, so every non-default field keys;
    a field listed in WALL_CLOCK_KNOBS drops out of the key."""
    cfg = EngineConfig(backend="numpy", chunk=64)
    assert cfg.cache_key() == '{"backend": "numpy", "chunk": 64}'
    monkeypatch.setattr(config_module, "WALL_CLOCK_KNOBS", frozenset({"chunk"}))
    assert cfg.cache_key() == EngineConfig(backend="numpy").cache_key()


def test_repo_source_is_lint_clean():
    """The acceptance gate CI enforces: ``repro-lint src/`` has zero findings."""
    src = Path(repro.__file__).resolve().parents[1]
    findings, files = lint_paths([str(src)])
    assert findings == []
    assert files > 50  # the whole package was actually swept
