"""Project-specific static analysis: ``repro-lint``.

Nine PRs of engine growth rest on a handful of cross-cutting invariants —
``jobs=1 == jobs=N`` determinism, content-addressed ``cell_id`` stability,
picklable module-level pool workers, the serve layer's lock discipline.
Every one of them is *enforced* dynamically (the differential suites), but
a violation only surfaces after the offending code executes.  This package
is the static companion: a stdlib-only (:mod:`ast` + :mod:`tokenize`)
analysis framework plus the project rules (``REP102``–``REP108``) that make
each contract fail at review time instead of fuzz time.

The shape mirrors :mod:`repro.algorithms.registry`: rules are classes
registered under a stable code via :func:`~repro.devtools.registry.register_rule`,
the driver (:func:`~repro.devtools.driver.lint_paths`) parses every file
exactly once and runs file-local visitors plus project-level cross-module
checks, and findings flow through text or JSON reporters (schema in
``docs/linting.md``).  ``# repro: noqa[REPxxx]`` suppresses a finding on
its line — policy: every suppression carries a one-line justification.

Entry points: the ``repro-lint`` console script and the ``repro-holiday
lint`` subcommand, both backed by :func:`repro.devtools.cli.main`.
"""

from repro.devtools.findings import Finding
from repro.devtools.registry import Rule, available_rules, get_rule, register_rule

__all__ = ["Finding", "Rule", "available_rules", "get_rule", "register_rule"]
