"""REP104 — every ``EngineConfig`` field must decide its hashing story.

Adding a knob to :class:`repro.core.config.EngineConfig` silently touches
three contracts at once: cell ids (``non_default`` feeds
``ExperimentCell.cell_id``), spec JSON (``to_dict``/``from_dict``), and the
serve-layer trace-cache key (``cache_key`` must either include the knob or
*deliberately* exclude it as wall-clock-only).  Every knob added after the
first (``window`` and the since-removed ``stream_jobs`` and ``batch``) had
to make that include-or-exclude call by hand; this rule makes forgetting it
a lint error.

The contract, as encoded in ``core/config.py``:

* the module declares ``RESULT_KNOBS`` (fields that change computed
  results — part of every cache key) and ``WALL_CLOCK_KNOBS`` (fields the
  determinism contracts prove result-neutral — excluded from cache keys);
* every dataclass field appears in exactly one of the two sets, and every
  set entry is a real field (no stale names);
* ``cache_key()`` derives its exclusions from ``WALL_CLOCK_KNOBS`` (not a
  drifting inline literal);
* ``non_default()``, ``to_dict()`` and ``from_dict()`` are field-generic
  (``dataclasses.fields``) or mention every field explicitly.

This is a *project-level* check: it fires on whichever linted module
defines a ``@dataclass`` named ``EngineConfig``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.devtools.context import FileContext, Project
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register_rule

_INCLUDE_SET = "RESULT_KNOBS"
_EXCLUDE_SET = "WALL_CLOCK_KNOBS"
_SERIALIZERS = ("non_default", "to_dict", "from_dict")


def _dataclass_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Field name -> line for the annotated fields of a dataclass body
    (``ClassVar``/``InitVar`` annotations are not fields)."""
    fields: Dict[str, int] = {}
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        annotation_names = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt.annotation)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if annotation_names & {"ClassVar", "InitVar"}:
            continue
        fields[stmt.target.id] = stmt.lineno
    return fields


def _knob_set(tree: ast.Module, name: str) -> Optional[ast.Assign]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            return stmt
    return None


def _string_constants(node: ast.AST) -> Set[str]:
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _is_field_generic(fn: ast.FunctionDef) -> bool:
    """True when the method iterates ``dataclasses.fields(...)``."""
    return any(
        isinstance(n, ast.Call)
        and (
            (isinstance(n.func, ast.Name) and n.func.id == "fields")
            or (isinstance(n.func, ast.Attribute) and n.func.attr == "fields")
        )
        for n in ast.walk(fn)
    )


def _references(fn: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(fn))


@register_rule
class EngineConfigContract(Rule):
    code = "REP104"
    name = "engine-config-contract"
    category = "hashing"
    description = "every EngineConfig field decided in RESULT_KNOBS/WALL_CLOCK_KNOBS and serializers"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for ctx in project.files:
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "EngineConfig":
                    yield from self._check_config(ctx, node)

    def _check_config(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        def finding(line: int, message: str) -> Finding:
            return Finding(path=ctx.path, line=line, column=0, code=self.code, message=message)

        fields = _dataclass_fields(cls)
        include_stmt = _knob_set(ctx.tree, _INCLUDE_SET)
        exclude_stmt = _knob_set(ctx.tree, _EXCLUDE_SET)
        if include_stmt is None or exclude_stmt is None:
            missing = [
                name
                for name, stmt in ((_INCLUDE_SET, include_stmt), (_EXCLUDE_SET, exclude_stmt))
                if stmt is None
            ]
            yield finding(
                cls.lineno,
                f"EngineConfig module must declare {' and '.join(missing)} so every "
                "knob's cache-key story is explicit",
            )
            return

        include = _string_constants(include_stmt.value)
        exclude = _string_constants(exclude_stmt.value)
        for name, line in fields.items():
            if name in include and name in exclude:
                yield finding(
                    line,
                    f"EngineConfig field {name!r} is in both {_INCLUDE_SET} and "
                    f"{_EXCLUDE_SET}; a knob is result-changing or wall-clock-only, "
                    "never both",
                )
            elif name not in include and name not in exclude:
                yield finding(
                    line,
                    f"EngineConfig field {name!r} is in neither {_INCLUDE_SET} nor "
                    f"{_EXCLUDE_SET}; decide its cell-id/cache-key story before "
                    "shipping the knob",
                )
        for name in sorted((include | exclude) - set(fields)):
            stmt = include_stmt if name in include else exclude_stmt
            yield finding(
                stmt.lineno,
                f"{_INCLUDE_SET if name in include else _EXCLUDE_SET} lists {name!r}, "
                "which is not an EngineConfig field (stale entry)",
            )

        cache_key = _method(cls, "cache_key")
        if cache_key is None:
            yield finding(cls.lineno, "EngineConfig must define cache_key()")
        elif not _references(cache_key, _EXCLUDE_SET):
            yield finding(
                cache_key.lineno,
                f"cache_key() must derive its exclusions from {_EXCLUDE_SET} "
                "(an inline literal drifts from the declared contract)",
            )

        for method_name in _SERIALIZERS:
            fn = _method(cls, method_name)
            if fn is None:
                yield finding(cls.lineno, f"EngineConfig must define {method_name}()")
                continue
            if _is_field_generic(fn):
                continue
            mentioned = _string_constants(fn) | {
                n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
            }
            missing = sorted(set(fields) - mentioned)
            if missing:
                yield finding(
                    fn.lineno,
                    f"{method_name}() handles neither dataclasses.fields(...) nor "
                    f"the field(s) {', '.join(missing)}; every knob must "
                    "serialize and hash deliberately",
                )
