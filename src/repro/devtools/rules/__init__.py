"""The built-in rule set; importing this package registers every rule.

One module per rule family, each grounded in a runtime-enforced invariant
(the catalogue with the backing test for each lives in ``docs/linting.md``):

========  ==========================  ==============================================
REP102    picklable-pool-workers      ``ProcessPoolExecutor`` callables must be
                                      module-level functions
REP103    engine-determinism          ``time.time()``, global ``random.*``, unsorted
                                      set iteration, unsorted ``json.dumps`` in
                                      engine modules
REP104    engine-config-contract      every ``EngineConfig`` field decided in
                                      RESULT_KNOBS / WALL_CLOCK_KNOBS + serializers
REP105    serve-lock-discipline       mutable serve-layer state written outside
                                      ``with self._lock:``
REP106    no-print-in-library         ``print()`` outside CLI modules
REP107    frozen-dataclass-mutation   ``object.__setattr__`` outside ``__post_init__``
REP108    serve-error-envelope        broad ``except`` in serve code must re-raise
                                      or answer through the error envelope
========  ==========================  ==============================================

REP101 (legacy engine kwargs) is retired with the shim it policed; the code
is not reused.
"""

from repro.devtools.rules import (  # noqa: F401  (import registers the rules)
    config_contract,
    determinism,
    frozen_mutation,
    lock_discipline,
    no_print,
    pool_pickling,
    serve_errors,
)
