"""REP107 — frozen dataclasses mutate only inside ``__post_init__``.

The repo's frozen dataclasses (``EngineConfig``, ``ExperimentSpec``/
``ExperimentCell``, ``SlotAssignment``) are frozen *because* other
contracts depend on their immutability: configs are hashable dict keys and
picklable worker payloads, specs hash into content-addressed ``cell_id``s.
``object.__setattr__`` is the one sanctioned escape hatch — and only during
construction, inside ``__post_init__``, where the object is not yet shared
(normalising a field).
The same call anywhere else silently mutates an object whose hash/identity
other code may already have recorded.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register_rule


@register_rule
class FrozenDataclassMutation(Rule):
    code = "REP107"
    name = "frozen-dataclass-mutation"
    category = "immutability"
    description = "object.__setattr__ outside __post_init__"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, None, findings)
        return iter(findings)

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        function: Optional[str],
        findings: List[Finding],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and function != "__post_init__"
        ):
            where = f"{function}()" if function else "module scope"
            findings.append(
                Finding(
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    code=self.code,
                    message=(
                        f"object.__setattr__ in {where}; frozen instances mutate "
                        "only inside __post_init__, before they are shared "
                        "(hash/cell-id stability contract)"
                    ),
                )
            )
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, function, findings)
