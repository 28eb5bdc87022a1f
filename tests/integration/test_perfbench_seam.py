"""perfbench's span wrapper still drives the engine entry points it patches.

``perfbench/spans.py`` times layers by replacing functions in the imported
modules; its ``build_trace`` wrapper forwards ``(schedule, graph, horizon,
None, trace)`` by position.  This runs the wrapper the way ``perfbench/run.py
--trace 1`` does — in a fresh process, spans installed before any query — so
a signature change that breaks it fails here, not only in the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

SCRIPT = """
import json

import spans
from repro.algorithms.registry import get_scheduler
from repro.api import Session
from repro.core.config import EngineConfig
from repro.graphs.suites import get_workload

recorder = spans.Recorder()
spans.install(recorder)
graph = get_workload("small/path")
out = {}
for mode, config in (("dense", EngineConfig()), ("stream", EngineConfig(horizon_mode="stream"))):
    first_span = len(recorder.spans)
    built_bytes = recorder.counters["trace.computed_bytes"]
    before = recorder.summary()
    for algorithm in ("degree-periodic", "phased-greedy", "first-come-first-grab"):
        schedule = get_scheduler(algorithm).build(graph, seed=1)
        session = Session(graph, config)
        session.evaluate(schedule, 64)
        assert session.validate(schedule, 64).ok
    after = recorder.summary()
    out[mode] = {
        "layers": [span[0] for span in recorder.spans[first_span:]],
        "built_bytes": recorder.counters["trace.computed_bytes"] - built_bytes,
        "steps": after["steps"] - before["steps"],
        "generate_s": after["self.core.schedule"] - before["self.core.schedule"],
    }
print(json.dumps(out))
"""

#: schedules in each mode's loop that a generator step makes, one holiday
#: per step: phased greedy and first-come-first-grab
APERIODIC_PER_MODE = 2
HORIZON = 64


def test_span_wrapper_times_session_queries_dense_and_streamed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(proc.stdout)
    for mode in ("dense", "stream"):
        layers = recorded[mode]["layers"]
        assert layers.count("core.trace") >= 1, (mode, layers)
        assert {"core.metrics", "core.validation", "api"} <= set(layers), (mode, layers)
        # counted by the build_trace wrapper itself, once per trace it built
        assert recorded[mode]["built_bytes"] > 0, mode
        # generation stays inside the wrapped step: one tallied step per
        # holiday of each aperiodic schedule, block draws included
        assert recorded[mode]["steps"] == APERIODIC_PER_MODE * HORIZON, mode
        assert recorded[mode]["generate_s"] > 0, mode
