"""REP103 — nondeterminism sources in engine modules.

The engine's headline contract is byte-level reproducibility:
``jobs=1 == jobs=N``, dense == stream, and
content-addressed ``cell_id``s that never move (the differential suites in
``tests/core/`` prove each equality dynamically).  Everything rests on the
engine modules (``core/``, ``analysis/engine.py``) being pure functions of
their inputs plus explicitly derived seeds.  This rule rejects the four
ways nondeterminism has historically crept into such code:

* ``time.time()`` — wall-clock reads belong in *timing fields* stamped by
  the runner (``time.perf_counter()`` deltas), never in result-bearing
  engine code;
* global ``random.*`` calls — randomness must flow through
  :func:`repro.utils.rng.derive_seed` / seeded ``random.Random`` streams,
  never the process-global generator;
* iterating a ``set``/``frozenset`` without ``sorted(...)`` — set order
  depends on ``PYTHONHASHSEED``, so any set-driven loop can reorder
  output records or hash inputs between runs;
* ``json.dumps(...)`` without ``sort_keys=True`` — canonical JSON is the
  substrate of ``cell_id``/``cache_key`` hashing; unsorted dumps make equal
  payloads hash unequal.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.devtools.context import FileContext, is_engine_module
from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, register_rule
from repro.devtools.rules._util import callee_name, import_aliases

#: members of :mod:`random` that are deterministic when explicitly seeded
#: (instantiating a private ``Random(seed)`` stream is the sanctioned idiom).
_SEEDED_RANDOM_OK = frozenset({"Random", "SystemRandom"})


def _is_setish(node: ast.AST) -> bool:
    """Expressions whose iteration order depends on the hash seed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and callee_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp):  # set algebra: set(a) | set(b), a - b, ...
        return _is_setish(node.left) or _is_setish(node.right)
    return False


@register_rule
class EngineDeterminism(Rule):
    code = "REP103"
    name = "engine-determinism"
    category = "determinism"
    description = "time.time()/global random/unsorted set iteration/unsorted json.dumps in engine code"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not is_engine_module(ctx.path):
            return iter(())
        return iter(self._check(ctx))

    def _check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        time_mods, time_members = import_aliases(ctx.tree, "time")
        rand_mods, rand_members = import_aliases(ctx.tree, "random")
        json_mods, json_members = import_aliases(ctx.tree, "json")

        def flag(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    code=self.code,
                    message=message,
                )
            )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                # time.time() — wall clock in engine code
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "time"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in time_mods
                ) or (
                    isinstance(func, ast.Name)
                    and time_members.get(func.id) == "time"
                ):
                    flag(
                        node,
                        "time.time() in an engine module; timing belongs in "
                        "runner-stamped timing fields (time.perf_counter() deltas)",
                    )
                # process-global random.*
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in rand_mods
                    and func.attr not in _SEEDED_RANDOM_OK
                ) or (
                    isinstance(func, ast.Name)
                    and func.id in rand_members
                    and rand_members[func.id] not in _SEEDED_RANDOM_OK
                ):
                    flag(
                        node,
                        "process-global random.* in an engine module; route "
                        "randomness through repro.utils.rng.derive_seed / a "
                        "seeded random.Random stream",
                    )
                # json.dumps without sort_keys=True
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "dumps"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in json_mods
                ) or (
                    isinstance(func, ast.Name)
                    and json_members.get(func.id) == "dumps"
                ):
                    sorted_kw = False
                    for keyword in node.keywords:
                        if keyword.arg is None:  # **kwargs: can't tell, trust it
                            sorted_kw = True
                        elif keyword.arg == "sort_keys" and not (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is False
                        ):
                            sorted_kw = True
                    if not sorted_kw:
                        flag(
                            node,
                            "json.dumps() without sort_keys=True in an engine "
                            "module; canonical JSON backs cell_id/cache_key "
                            "hashing",
                        )
            # unsorted set iteration
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                if _is_setish(iter_expr):
                    flag(
                        iter_expr,
                        "iterating a set in an engine module without sorted(...); "
                        "set order depends on PYTHONHASHSEED",
                    )
        return findings
