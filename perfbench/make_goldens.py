"""Regenerate the goldens every perfbench run checks its outputs against.

    python3 perfbench/make_goldens.py [campaign] [stream] [serve]

Run from the root of a source checkout, and only when a change to the
program legitimately changes its outputs.  The goldens are computed on the
library path, independently of the benchmark's own code paths:

* ``campaign`` — one digest per (graph, scheduler, root seed) of the record
  ``ExperimentEngine`` produces without a store, minus timing and the
  ``cached`` stamp, for every root seed a run can reach;
* ``stream``   — report summary and validation verdict per (graph, scheduler);
* ``serve``    — digests of the bodies ``report_payload``/``validation_payload``
  render for every request the plan can make, and of each ``/cell`` record.
"""

from __future__ import annotations

import sys
import time

import harness


def campaign_goldens() -> dict:
    from repro.analysis.engine import ExperimentEngine, ExperimentSpec
    from repro.io.results import record_to_dict

    seeds = tuple(range(harness.CAMPAIGN_SEED_POOL + 1))
    packed = {}
    for graph in harness.GRAPHS:
        records = ExperimentEngine(jobs=1).run(ExperimentSpec(
            name=harness.CAMPAIGN_EXPERIMENT, workloads=(graph,),
            algorithms=harness.CAMPAIGN_ALGORITHMS, seeds=seeds,
        ))
        digests = {}
        for record in records:
            row = record_to_dict(record)
            digests[(row["algorithm"], row["params"]["seed"])] = harness.record_digest(row)
        for algorithm in harness.CAMPAIGN_ALGORITHMS:
            packed[harness.pair_key(graph, algorithm)] = "".join(
                digests[(algorithm, s)] for s in seeds)
    return {"root_seeds": len(seeds), "records": packed}


def stream_goldens() -> dict:
    from repro.algorithms.registry import get_scheduler
    from repro.api import Session
    from repro.core.config import EngineConfig
    from repro.graphs.suites import get_workload
    from workloads import stream_verdict

    config = EngineConfig(horizon_mode="stream")
    reports = {}
    for graph_name in harness.STREAM_GRAPHS:
        graph = get_workload(graph_name)
        for algorithm in harness.STREAM_ALGORITHMS:
            schedule = get_scheduler(algorithm).build(graph, seed=0)
            report = Session(graph, config).report(schedule, horizon=harness.STREAM_HORIZON)
            reports[harness.pair_key(graph_name, algorithm)] = stream_verdict(report)
    return {"horizon": harness.STREAM_HORIZON, "reports": reports}


def serve_goldens() -> dict:
    from repro.algorithms.registry import get_scheduler
    from repro.analysis.engine import ExperimentCell, HorizonPolicy, execute_cell
    from repro.api import Session
    from repro.core.config import DEFAULT_CONFIG
    from repro.graphs.suites import get_workload
    from repro.io.results import record_to_dict
    from repro.serve.service import report_payload, validation_payload

    policy = HorizonPolicy()
    graphs = {g: get_workload(g) for g in harness.GRAPHS}

    def query(graph_name, algorithm, seed):
        graph = graphs[graph_name]
        horizon = policy.resolve(graph)
        identity = {"workload": graph_name, "algorithm": algorithm, "seed": seed,
                    "horizon": horizon, "n": graph.num_nodes()}
        schedule = get_scheduler(algorithm).build(graph, seed=seed)
        return identity, Session(graph, config=DEFAULT_CONFIG, policy=policy), schedule, horizon

    def body_digest(payload):
        return harness.digest(harness.canonical(payload))

    reports, validations = {}, {}
    for graph_name, algorithm in harness.serve_report_keys():
        identity, session, schedule, horizon = query(graph_name, algorithm, 0)
        combined = session.report(schedule, horizon)
        reports[harness.pair_key(graph_name, algorithm)] = body_digest(dict(
            identity, ok=combined.ok, summary=combined.summary(),
            report=report_payload(combined.report),
            validation=validation_payload(combined.validation)))
        identity, session, schedule, horizon = query(graph_name, algorithm, 0)
        validation = session.validate(schedule, horizon, check_periodic=True)
        validations[harness.pair_key(graph_name, algorithm)] = body_digest(
            dict(identity, validation=validation_payload(validation)))

    evaluations, cells = {}, {}
    for graph_name, algorithm in harness.serve_combos():
        key = harness.pair_key(graph_name, algorithm)
        digests = []
        for seed in range(1, harness.SERVE_EVAL_SEED_POOL + 1):
            identity, session, schedule, horizon = query(graph_name, algorithm, seed)
            digests.append(body_digest(
                dict(identity, report=report_payload(session.evaluate(schedule, horizon)))))
        evaluations[key] = "".join(digests)
        digests = []
        for seed in range(harness.SERVE_CELL_SEED_POOL):
            cell = ExperimentCell(
                experiment=harness.SERVE_EXPERIMENT, workload=graph_name, algorithm=algorithm,
                params={}, seed=seed, horizon=None, policy=policy, config=DEFAULT_CONFIG)
            digests.append(harness.record_digest(record_to_dict(execute_cell(cell))))
        cells[key] = "".join(digests)
    return {"report": reports, "validate": validations, "evaluate": evaluations, "cell": cells}


GENERATORS = {"campaign": campaign_goldens, "stream": stream_goldens, "serve": serve_goldens}


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(GENERATORS)
    unknown = sorted(set(names) - set(GENERATORS))
    if unknown:
        print(f"unknown golden set(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    for name in names:
        began = time.perf_counter()
        path = harness.write_golden(name, GENERATORS[name]())
        print(f"{path.relative_to(harness.ROOT)}: {time.perf_counter() - began:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
