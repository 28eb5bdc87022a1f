"""REP102 — callables handed to ``ProcessPoolExecutor`` must pickle.

The experiment pool of :mod:`repro.analysis.engine` ships work to
``spawn``-ed processes, and pickle serialises functions *by qualified
name*: only module-level functions survive the trip.  A lambda, a function
defined inside another function, or a bound method submitted to
``pool.submit``/``pool.map`` raises ``PicklingError`` at runtime — but only
on the ``jobs > 1`` path, which is exactly the path unit tests exercise
least.  This rule rejects those shapes statically: every callable handed
to the pool is a module-level function.

Receivers are tracked conservatively: only names provably bound to a
``ProcessPoolExecutor(...)`` (assignment or ``with ... as pool``) are
checked, so thread pools and unrelated ``.map``/``.submit`` APIs are never
flagged.  ``functools.partial(fn, ...)`` is transparent — the wrapped
callable is classified instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.context import FileContext
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register_rule
from repro.devtools.rules._util import callee_name

_POOL_METHODS = frozenset({"submit", "map"})


def _is_pool_ctor(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and callee_name(node) == "ProcessPoolExecutor"


class _Scope:
    """One function (or the module) while walking: what's defined locally."""

    __slots__ = ("name", "is_module", "local_defs", "pool_vars")

    def __init__(self, name: str, is_module: bool = False) -> None:
        self.name = name
        self.is_module = is_module
        self.local_defs: Set[str] = set()  # nested defs + lambda bindings
        self.pool_vars: Set[str] = set()


class _Walker(ast.NodeVisitor):
    def __init__(self, path: str, code: str) -> None:
        self.path = path
        self.code = code
        self.findings: List[Finding] = []
        self.scopes: List[_Scope] = []
        self.module_lambdas: Set[str] = set()

    # -- scope bookkeeping ---------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self.scopes.append(_Scope("<module>", is_module=True))
        self.generic_visit(node)
        self.scopes.pop()

    def _visit_function(self, node) -> None:
        if not self.scopes[-1].is_module:
            self.scopes[-1].local_defs.add(node.name)
        self.scopes.append(_Scope(node.name))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_pool_ctor(node.value):
                self.scopes[-1].pool_vars.add(target.id)
            elif isinstance(node.value, ast.Lambda):
                if self.scopes[-1].is_module:
                    self.module_lambdas.add(target.id)
                else:
                    self.scopes[-1].local_defs.add(target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if _is_pool_ctor(item.context_expr) and isinstance(
                item.optional_vars, ast.Name
            ):
                self.scopes[-1].pool_vars.add(item.optional_vars.id)
        self.generic_visit(node)

    # -- the check -----------------------------------------------------------
    def _is_pool_receiver(self, base: ast.AST) -> bool:
        if _is_pool_ctor(base):
            return True
        if isinstance(base, ast.Name):
            return any(base.id in scope.pool_vars for scope in self.scopes)
        return False

    def _classify(self, arg: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        """``(node, why)`` when the submitted callable cannot pickle."""
        if isinstance(arg, ast.Lambda):
            return arg, "a lambda"
        if isinstance(arg, ast.Call) and callee_name(arg) == "partial" and arg.args:
            return self._classify(arg.args[0])
        if isinstance(arg, ast.Name):
            for scope in reversed(self.scopes):
                if scope.is_module:
                    break
                if arg.id in scope.local_defs:
                    return arg, f"a function defined inside {scope.name}()"
            if arg.id in self.module_lambdas:
                return arg, "a module-level lambda binding"
            return None
        if isinstance(arg, ast.Attribute):
            if isinstance(arg.value, ast.Name) and arg.value.id in ("self", "cls"):
                return arg, "a bound method"
            return None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and self._is_pool_receiver(func.value)
            and node.args
        ):
            verdict = self._classify(node.args[0])
            if verdict is not None:
                offender, why = verdict
                self.findings.append(
                    Finding(
                        path=self.path,
                        line=offender.lineno,
                        column=offender.col_offset,
                        code=self.code,
                        message=(
                            f"ProcessPoolExecutor.{func.attr}() given {why}; "
                            "workers must be picklable module-level functions "
                            "(the jobs>1 worker contract)"
                        ),
                    )
                )
        self.generic_visit(node)


@register_rule
class PicklablePoolWorkers(Rule):
    code = "REP102"
    name = "picklable-pool-workers"
    category = "picklability"
    description = "ProcessPoolExecutor.submit/map callables must be module-level functions"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        walker = _Walker(ctx.path, self.code)
        walker.visit(ctx.tree)
        return iter(walker.findings)
