"""Shared pieces of the perfbench harness.

Everything here is independent of the program under test: the seeded
operation plans of the three workloads, latency statistics (with the
tail-sample rule), golden digests, provenance and the result line.  The
workload modules (``workloads.py`` for the in-process workloads,
``serve_load.py`` for the HTTP one) and ``run.py`` build on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "goldens"

#: a latency percentile is only reported when at least this many samples lie
#: beyond it; a run that cannot meet that for p90 is refused.
MIN_BEYOND_TAIL = 10

# -- the workloads' inputs ---------------------------------------------------

#: the 11 benchmark graphs (``repro.graphs.suites.BENCHMARK_WORKLOADS``), in
#: suite order.
GRAPHS = (
    "clique", "star", "bipartite", "cycle", "grid", "tree",
    "gnp-sparse", "gnp-dense", "powerlaw", "regular", "society",
)

#: every registered scheduler (``repro.algorithms.registry``), sorted.
CAMPAIGN_ALGORITHMS = (
    "color-periodic-delta", "color-periodic-gamma", "color-periodic-omega",
    "color-periodic-omega-dsatur", "degree-periodic", "degree-periodic-distributed",
    "first-come-first-grab", "phased-greedy", "phased-greedy-distributed",
    "round-robin-color", "sequential",
)
CAMPAIGN_EXPERIMENT = "perfbench"
#: each graph advances one root seed per operation on it, wrapping after
#: this many (five times the laps one 7.5 s process makes today), so the
#: goldens cover root seeds ``0 .. CAMPAIGN_SEED_POOL``.  Root seeds do not
#: depend on the benchmark seed: op costs vary a lot between root seeds, and
#: a seed-dependent set of them would widen the spread between runs.
CAMPAIGN_SEED_POOL = 64

STREAM_GRAPHS = ("society", "powerlaw", "gnp-dense")
STREAM_ALGORITHMS = (
    "degree-periodic", "degree-periodic-distributed", "color-periodic-omega",
    "color-periodic-gamma", "round-robin-color", "sequential",
)
STREAM_HORIZON = 2 ** 20

SERVE_PERIODIC = ("degree-periodic", "color-periodic-omega", "round-robin-color", "sequential")
SERVE_APERIODIC = ("phased-greedy", "first-come-first-grab")
SERVE_ALGORITHMS = SERVE_PERIODIC + SERVE_APERIODIC
#: one block of ten requests: 6 /report, 2 /evaluate, 1 /validate, 1 /cell.
SERVE_BLOCK = ("report",) * 6 + ("evaluate",) * 2 + ("validate", "cell")
#: a server process is sent at most this many requests, even before its
#: time is up, so the goldens below cover every request a run can make.
SERVE_MAX_REQUESTS = 12_000
SERVE_EVAL_SEED_POOL = 40
SERVE_CELL_SEED_POOL = 10
SERVE_EXPERIMENT = "serve"


def serve_report_keys() -> List[Tuple[str, str]]:
    """The repeating /report and /validate key set: every graph with two
    schedulers, 22 ``(graph, algorithm)`` pairs, all at seed 0."""
    keys = []
    for i, graph in enumerate(GRAPHS):
        keys.append((graph, SERVE_ALGORITHMS[(2 * i) % len(SERVE_ALGORITHMS)]))
        keys.append((graph, SERVE_ALGORITHMS[(2 * i + 1) % len(SERVE_ALGORITHMS)]))
    return keys


def serve_combos() -> List[Tuple[str, str]]:
    """Every ``(graph, algorithm)`` pair the /evaluate and /cell requests use."""
    return [(g, a) for g in GRAPHS for a in SERVE_ALGORITHMS]


def _rng(seed: int, stream: str) -> random.Random:
    # one independent generator per (seed, purpose), stable across Python
    # versions: string seeds hash through SHA-512 in random.seed
    return random.Random(f"perfbench:{stream}:{seed}")


def _permuted(seq: Sequence, seed: int, stream: str) -> List:
    out = list(seq)
    _rng(seed, stream).shuffle(out)
    return out


class CampaignPlan:
    """Operation ``i`` runs one graph × all 11 schedulers × root seeds
    ``(s, s + 1)``; the previous operation on that graph ran ``s`` (set-up
    runs root seed 0 on every graph).  The seed orders the graphs."""

    def __init__(self, seed: int) -> None:
        self.graphs = _permuted(GRAPHS, seed, "campaign.graphs")

    def op(self, i: int) -> Tuple[str, Tuple[int, int]]:
        graph = self.graphs[i % len(self.graphs)]
        s = (i // len(self.graphs)) % CAMPAIGN_SEED_POOL
        return graph, (s, s + 1)


class StreamPlan:
    """Operation ``i`` reports one prebuilt periodic schedule at horizon 2²⁰,
    round-robin over a seeded order of the 18 (graph, scheduler) pairs."""

    def __init__(self, seed: int) -> None:
        self.combos = _permuted(
            [(g, a) for g in STREAM_GRAPHS for a in STREAM_ALGORITHMS], seed, "stream.combos"
        )

    def op(self, i: int) -> Tuple[str, str]:
        return self.combos[i % len(self.combos)]


class ServePlan:
    """The fixed, seeded request sequence of the ``serve`` workload.

    Request ``i`` is ``(endpoint, payload)``.  Every block of ten requests
    holds the same mix in a seeded order; /report and /validate cycle over
    the 22 report keys (trace-cache hits after the first pass), /evaluate
    walks every (graph, scheduler) pair with a fresh seed (a trace-cache
    miss), and every odd-numbered /cell request repeats the cell of an
    earlier one, so about half of them replay from the store.
    """

    def __init__(self, seed: int, length: int = SERVE_MAX_REQUESTS) -> None:
        self.report_keys = _permuted(serve_report_keys(), seed, "serve.report")
        self.validate_keys = _permuted(serve_report_keys(), seed, "serve.validate")
        self.eval_combos = _permuted(serve_combos(), seed, "serve.evaluate")
        self.cell_combos = _permuted(serve_combos(), seed, "serve.cell")
        # built whole up front: client threads then only read it
        rng = _rng(seed, "serve.blocks")
        tally = {kind: 0 for kind in SERVE_BLOCK}
        self._slots: List[Tuple[str, int]] = []  # (endpoint kind, its ordinal)
        while len(self._slots) < length:
            block = list(SERVE_BLOCK)
            rng.shuffle(block)
            for kind in block:
                self._slots.append((kind, tally[kind]))
                tally[kind] += 1
        del self._slots[length:]

    def __len__(self) -> int:
        return len(self._slots)

    def request(self, i: int) -> Tuple[str, Dict[str, object]]:
        kind, n = self._slots[i]
        if kind == "report":
            graph, algorithm = self.report_keys[n % len(self.report_keys)]
            return "/report", {"workload": graph, "algorithm": algorithm, "seed": 0}
        if kind == "validate":
            graph, algorithm = self.validate_keys[n % len(self.validate_keys)]
            return "/validate", {
                "workload": graph, "algorithm": algorithm, "seed": 0, "check_periodic": True,
            }
        if kind == "evaluate":
            graph, algorithm = self.eval_combos[n % len(self.eval_combos)]
            seed = 1 + (n // len(self.eval_combos)) % SERVE_EVAL_SEED_POOL
            return "/evaluate", {"workload": graph, "algorithm": algorithm, "seed": seed}
        key = n // 2 if n % 2 == 0 else max(n // 2 - 1, 0)
        graph, algorithm = self.cell_combos[key % len(self.cell_combos)]
        seed = (key // len(self.cell_combos)) % SERVE_CELL_SEED_POOL
        return "/cell", {"workload": graph, "algorithm": algorithm, "seed": seed}


# -- statistics --------------------------------------------------------------

class RefusedRun(RuntimeError):
    """The run cannot support the statistics it would have to report."""


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 (ms) of per-operation latencies, with the sample counts.

    Refuses (:class:`RefusedRun`) a run whose p90 leaves fewer than
    :data:`MIN_BEYOND_TAIL` samples beyond it: such a tail is one or two
    outliers, not a percentile.
    """
    if len(seconds) < 2:
        raise RefusedRun(f"only {len(seconds)} operation(s) completed")
    ordered = sorted(seconds)
    p90 = statistics.quantiles(ordered, n=10, method="inclusive")[8]
    beyond = sum(1 for x in ordered if x > p90)
    if beyond < MIN_BEYOND_TAIL:
        raise RefusedRun(
            f"p90 leaves {beyond} of {len(ordered)} samples beyond it; "
            f"at least {MIN_BEYOND_TAIL} are needed (run longer)"
        )
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": p90 * 1e3,
        "samples": len(ordered),
        "beyond_tail": beyond,
    }


# -- goldens -----------------------------------------------------------------

def digest(data: bytes) -> str:
    """Short content digest goldens are stored as (32 bits: a wrong output
    matches by chance with probability 2⁻³²)."""
    return hashlib.sha256(data).hexdigest()[:8]


def canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


#: record fields that legitimately differ between runs: the timing metrics
#: (``repro.analysis.engine.TIMING_METRICS``) and the store's replay stamp
#: (``repro.io.store.CACHED_PARAM``).
RECORD_TIMING_METRICS = ("build_seconds", "measure_seconds")
RECORD_CACHED_PARAM = "cached"


def record_digest(record: Mapping[str, object]) -> str:
    """Digest of a record dict (``repro.io.results.record_to_dict`` form)
    minus its timing metrics and ``cached`` stamp."""
    stripped = dict(record)
    stripped["metrics"] = {
        k: v for k, v in dict(record["metrics"]).items() if k not in RECORD_TIMING_METRICS
    }
    stripped["params"] = {
        k: v for k, v in dict(record["params"]).items() if k != RECORD_CACHED_PARAM
    }
    return digest(canonical(stripped))


def load_golden(name: str) -> Dict[str, object]:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_golden(name: str, payload: Mapping[str, object]) -> Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def pair_key(graph: str, algorithm: str) -> str:
    """Golden key of a (graph, scheduler) pair."""
    return f"{graph}|{algorithm}"


def packed_lookup(packed: str, index: int) -> str:
    """The ``index``-th 8-character digest of a concatenated digest string
    (goldens store one such string per (graph, scheduler), indexed by seed)."""
    return packed[8 * index: 8 * index + 8]


# -- provenance and output ---------------------------------------------------

def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    info: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    import numpy  # imported here: the harness itself needs only the stdlib

    info["numpy"] = numpy.__version__
    return info


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: Mapping[str, object]) -> str:
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": dict(metrics)}
    )
