"""The summary kernel: :func:`repro.core.trace.fold` and
:meth:`~repro.core.trace.TraceSummary.merge`.

Every trace kind reduces to these two functions, so they carry the whole
engine's contract: folding a block in one piece equals merging the folds of
any split of it (associativity, which the chunked and parallel passes rely
on), both arms of the fold agree, and the summary answers count, first/last
appearance, ``mul``, observed period and distinct differences exactly like
the frozenset reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core import trace as trace_module
from repro.core.metrics import HappinessTrace
from repro.core.problem import ConflictGraph
from repro.core.trace import FLAT_FOLD_WIDTH, TraceMatrix, TraceSummary, fold
from repro.graphs.random_graphs import erdos_renyi


def state(summary: TraceSummary):
    """A summary in comparable form (distinct diffs normalised)."""
    rows = range(len(summary.count))
    return (
        summary.count.tolist(), summary.first.tolist(), summary.last.tolist(),
        summary.dmax.tolist(), summary.dmin.tolist(),
        [summary.distinct(row) for row in rows],
        {k: list(v) for k, v in sorted(summary.collisions.items())},
        list(summary.unknown),
    )


def random_block(rng: random.Random, rows: int, width: int) -> np.ndarray:
    """Rows of mixed shapes: empty, single, periodic, and random densities."""
    block = np.zeros((rows, width), dtype=np.bool_)
    for row in range(rows):
        kind = row % 5
        if kind == 1:
            block[row, rng.randrange(width)] = True
        elif kind == 2:
            period = rng.randint(1, 9)
            block[row, rng.randrange(period)::period] = True
        elif kind in (3, 4):
            density = rng.choice([0.02, 0.2, 0.6])
            block[row] = [rng.random() < density for _ in range(width)]
    return block


def row_block(positions, width):
    block = np.zeros((1, width), dtype=np.bool_)
    block[0, [t - 1 for t in positions]] = True
    return block


# ---------------------------------------------------------------------------
# fold ≡ merge of the folds of the two halves, at every column split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rows,width,seed",
    [
        (6, 61, 1),                        # flat arm, and both halves flat
        (4, FLAT_FOLD_WIDTH + 37, 2),      # per-row arm; the halves cross the threshold
    ],
)
def test_fold_equals_merge_of_halves_at_every_split(rows, width, seed):
    rng = random.Random(seed)
    block = random_block(rng, rows, width)
    edge_rows = [(0, 2), (2, 3), (1, 3), (3, 4 % rows)]
    unknown = [(1, "x"), (width // 2, "y"), (width, "z")]
    whole = state(fold(block, 1, edge_rows, unknown))
    for split in range(1, width):
        left = fold(block[:, :split], 1, edge_rows, [(t, p) for t, p in unknown if t <= split])
        right = fold(
            block[:, split:], split + 1, edge_rows,
            [(t - split, p) for t, p in unknown if t > split],
        )
        assert state(left.merge(right)) == whole, split


@pytest.mark.parametrize("width", [37, FLAT_FOLD_WIDTH + 5])
def test_summary_matches_sets_reference(width):
    """Both arms answer like the frozenset reference on random blocks."""
    rng = random.Random(width)
    rows = 9
    block = random_block(rng, rows, width)
    graph = ConflictGraph(edges=[], nodes=list(range(rows)), name=f"empty-{rows}")
    sets = [frozenset(np.flatnonzero(block[:, j]).tolist()) for j in range(width)]
    reference = HappinessTrace.from_schedule(sets, graph, width)
    trace = TraceMatrix(graph, width, block)
    summary = fold(block, 1)
    for p in graph.nodes():
        times = reference.appearances[p]
        assert summary.count[p] == len(times)
        assert summary.first[p] == (times[0] if times else 0)
        assert summary.last[p] == (times[-1] if times else 0)
        assert summary.distinct(p) == sorted(set(reference.inter_appearance_gaps(p)))
        assert trace.mul(p) == reference.mul(p)
        assert trace.observed_period(p) == reference.observed_period(p)


def test_arms_agree_on_every_registered_scheduler(monkeypatch):
    """The flat scan and the per-row loop fold every scheduler's trace to
    the same summary, collisions included (taken over every node pair, so
    non-edges collide)."""
    graph = erdos_renyi(12, 0.3, seed=9, name="gnp-12")
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    collided = set()
    for name in available_schedulers():
        block = TraceMatrix.from_schedule(get_scheduler(name).build(graph, seed=2), graph, 64)._matrix
        arms = []
        for width in (1 << 62, 0):  # flat, then per-row
            monkeypatch.setattr(trace_module, "FLAT_FOLD_WIDTH", width)
            arms.append(state(fold(block, 1, pairs)))
        assert arms[0] == arms[1], name
        if arms[0][6]:
            collided.add(name)
    assert len(collided) > 1


def test_merge_is_associative_over_three_blocks():
    rng = random.Random(7)
    block = random_block(rng, 8, 90)
    a, b, c = fold(block[:, :20], 1), fold(block[:, 20:47], 21), fold(block[:, 47:], 48)
    assert state(a.merge(b).merge(c)) == state(a.merge(b.merge(c))) == state(fold(block, 1))


def positions_split_cases():
    return [
        ([], []),
        ([3], []),
        ([], [7]),
        ([1, 4, 7], [10, 13]),
        ([2], [3]),
        ([5, 6], [50]),
        ([1, 9, 17], [18, 26, 100]),
    ]


@pytest.mark.parametrize("left,right", positions_split_cases())
def test_merge_equals_single_fold_across_a_boundary(left, right):
    """One row whose appearances straddle the split: the boundary gap
    becomes one more observed difference."""
    width = 100
    split = right[0] - 1 if right else width // 2
    block = row_block(left + right, width)
    merged = fold(block[:, :split], 1).merge(fold(block[:, split:], split + 1))
    assert state(merged) == state(fold(block, 1))
    assert merged.distinct(0) == sorted({b - a for a, b in zip(left + right, (left + right)[1:])})
