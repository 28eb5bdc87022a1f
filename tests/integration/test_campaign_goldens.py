"""Campaign records replay the perfbench goldens, byte for byte.

``perfbench/goldens/campaign.json`` pins a digest of every record the
``campaign`` workload can produce, but only benchmark runs used to check
it.  This runs the same experiment (name ``perfbench``, every registered
scheduler on the 11 benchmark graphs) for root seeds 0–2 through the
serial engine and compares each record's digest with its golden, so a
change to any scheduler's output fails here too.  ``perfbench/harness.py``
is loaded read-only for its plan constants and digest rule.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.analysis.engine import ExperimentEngine, ExperimentSpec
from repro.io.results import record_to_dict

REPO = Path(__file__).resolve().parents[2]
ROOT_SEEDS = (0, 1, 2)


def load_harness():
    spec = importlib.util.spec_from_file_location(
        "perfbench_harness", REPO / "perfbench" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_campaign_records_match_goldens():
    harness = load_harness()
    golden = harness.load_golden("campaign")["records"]
    engine = ExperimentEngine(jobs=1)
    records = engine.run(ExperimentSpec(
        name=harness.CAMPAIGN_EXPERIMENT, workloads=harness.GRAPHS,
        algorithms=harness.CAMPAIGN_ALGORITHMS, seeds=ROOT_SEEDS,
    ))
    seen, differ = set(), []
    for record in records:
        row = record_to_dict(record)
        key = (row["workload"], row["algorithm"], row["params"]["seed"])
        packed = golden[harness.pair_key(row["workload"], row["algorithm"])]
        if harness.record_digest(row) != harness.packed_lookup(packed, key[2]):
            differ.append(key)
        seen.add(key)
    assert not differ, differ
    assert seen == {
        (g, a, s)
        for g in harness.GRAPHS for a in harness.CAMPAIGN_ALGORITHMS for s in ROOT_SEEDS
    }
