"""Tests for the synchronous LOCAL-model simulator."""

import pytest
from local_oracle import simulated_coloring, simulated_slot_assignment

from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.slot_assignment import distributed_slot_assignment
from repro.core.problem import ConflictGraph
from repro.distributed.messages import Message, payload_bits
from repro.distributed.network import Network
from repro.distributed.node import NodeContext, NodeProcess
from repro.distributed.simulator import SimulationError, SyncSimulator
from repro.distributed.stats import RoundStats
from repro.graphs.families import cycle, path, star
from repro.graphs.suites import get_workload


class EchoOnce(NodeProcess):
    """Broadcasts its id once, records what it hears, halts after one round."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.heard = []

    def on_start(self, ctx):
        ctx.broadcast(("hello", self.node_id))

    def on_round(self, ctx, inbox):
        self.heard = sorted(m.payload[1] for m in inbox)
        ctx.halt()

    def result(self):
        return self.heard


class Forwarder(NodeProcess):
    """Forwards a token along a path; used to test multi-round propagation."""

    def __init__(self, node_id, last):
        self.node_id = node_id
        self.last = last
        self.received_at = None

    def on_start(self, ctx):
        if self.node_id == 0:
            ctx.send(ctx.neighbors[0], "token")
            ctx.halt()

    def on_round(self, ctx, inbox):
        if any(m.payload == "token" for m in inbox):
            self.received_at = ctx.round_index
            nxt = [q for q in ctx.neighbors if q > self.node_id]
            if nxt:
                ctx.send(nxt[0], "token")
            ctx.halt()

    def result(self):
        return self.received_at


class NeverHalts(NodeProcess):
    def on_round(self, ctx, inbox):
        pass


class TestMessages:
    def test_payload_bits_estimates(self):
        assert payload_bits(None) == 1
        assert payload_bits(True) == 1
        assert payload_bits(5) == 3
        assert payload_bits(1.5) == 64
        assert payload_bits("ab") == 16
        assert payload_bits([1, 2]) >= 2
        assert payload_bits({"a": 1}) >= 9
        assert payload_bits(object()) == 64

    def test_message_size(self):
        msg = Message(sender=0, receiver=1, round_sent=1, payload=255)
        assert msg.size_bits() == 8


class TestNodeContext:
    def test_rejects_non_neighbor_send(self):
        g = path(3)
        network = Network(g, seed=0)

        class Misbehaving(NodeProcess):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(2, "x")  # 0 and 2 are not adjacent in a path

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = SyncSimulator(network, {p: Misbehaving() for p in g.nodes()})
        with pytest.raises(ValueError, match="non-neighbor"):
            sim.run(max_rounds=5)

    def test_degree_property(self):
        ctx = NodeContext(node=0, neighbors=[1, 2, 3], rng=None, send=lambda *a: None, halt=lambda: None)
        assert ctx.degree == 3


class TestSyncSimulator:
    def test_broadcast_reaches_all_neighbors(self):
        g = cycle(5)
        network = Network(g, seed=1)
        processes = {p: EchoOnce(p) for p in g.nodes()}
        outcome = SyncSimulator(network, processes).run()
        assert outcome.halted
        for p in g.nodes():
            assert outcome.result_of(p) == sorted(g.neighbors(p))

    def test_round_and_message_accounting(self):
        g = cycle(4)
        network = Network(g, seed=1)
        outcome = SyncSimulator(network, {p: EchoOnce(p) for p in g.nodes()}).run()
        # 4 nodes broadcast to 2 neighbors each -> 8 messages delivered in round 1.
        assert outcome.stats.messages == 8
        assert outcome.stats.rounds >= 1
        assert outcome.stats.bits > 0
        assert outcome.stats.mean_messages_per_round > 0

    def test_token_propagation_takes_linear_rounds(self):
        g = path(5)
        network = Network(g, seed=0)
        processes = {p: Forwarder(p, last=4) for p in g.nodes()}
        outcome = SyncSimulator(network, processes).run(max_rounds=50)
        assert outcome.result_of(4) == 4  # token needs one round per hop

    def test_nontermination_raises(self):
        g = path(3)
        network = Network(g, seed=0)
        sim = SyncSimulator(network, {p: NeverHalts() for p in g.nodes()})
        with pytest.raises(SimulationError):
            sim.run(max_rounds=10)

    def test_nontermination_tolerated_when_requested(self):
        g = path(3)
        network = Network(g, seed=0)
        sim = SyncSimulator(network, {p: NeverHalts() for p in g.nodes()})
        outcome = sim.run(max_rounds=10, require_termination=False)
        assert not outcome.halted

    def test_missing_process_rejected(self):
        g = path(3)
        with pytest.raises(ValueError):
            SyncSimulator(Network(g, seed=0), {0: EchoOnce(0)})

    def test_empty_graph(self):
        g = ConflictGraph()
        outcome = SyncSimulator(Network(g, seed=0), {}).run()
        assert outcome.halted
        assert outcome.results == {}

    def test_bad_max_rounds(self):
        g = path(2)
        sim = SyncSimulator(Network(g, seed=0), {p: EchoOnce(p) for p in g.nodes()})
        with pytest.raises(ValueError):
            sim.run(max_rounds=0)


class TestNetwork:
    def test_rng_streams_are_per_node_and_cached(self):
        g = path(3)
        network = Network(g, seed=5)
        assert network.rng_for(0) is network.rng_for(0)
        assert network.rng_for(0).seed != network.rng_for(1).seed

    def test_reseed_resets_streams(self):
        g = path(3)
        network = Network(g, seed=5)
        first = network.rng_for(0).seed
        network.reseed(6)
        assert network.rng_for(0).seed != first

    def test_topology_passthrough(self, square_with_diagonal):
        network = Network(square_with_diagonal, seed=0)
        assert network.degree(1) == 3
        assert network.neighbors(0) == [1, 3]
        assert network.nodes() == [0, 1, 2, 3]


class TestRoundStats:
    def test_merge(self):
        a = RoundStats()
        a.record_round(5, 50)
        a.record_sender("x", 3)
        b = RoundStats()
        b.record_round(2, 10)
        b.record_sender("x", 1)
        b.record_sender("y", 4)
        merged = a.merge(b)
        assert merged.rounds == 2
        assert merged.messages == 7
        assert merged.bits == 60
        assert merged.messages_by_node == {"x": 4, "y": 4}
        assert merged.max_messages_by_node == 4

    def test_summary_keys(self):
        stats = RoundStats()
        stats.record_round(1, 8)
        summary = stats.summary()
        assert {"rounds", "messages", "bits", "mean_msgs_per_round", "max_msgs_one_node"} == set(summary)

    def test_empty_stats(self):
        stats = RoundStats()
        assert stats.mean_messages_per_round == 0.0
        assert stats.max_messages_by_node == 0


class SendsOnce(NodeProcess):
    """Node 0 sends each of its payloads to neighbour 1 once, in one round."""

    def __init__(self, node_id, payloads):
        self.node_id = node_id
        self.payloads = payloads

    def on_start(self, ctx):
        if self.node_id == 0:
            for payload in self.payloads:
                ctx.send(1, payload)

    def on_round(self, ctx, inbox):
        ctx.halt()


class Broadcaster(NodeProcess):
    """The star's centre broadcasts one payload object; every node then halts."""

    def __init__(self, node_id, payload):
        self.node_id = node_id
        self.payload = payload

    def on_start(self, ctx):
        if self.node_id == 0:
            ctx.broadcast(self.payload)

    def on_round(self, ctx, inbox):
        ctx.halt()


class TestPayloadSizing:
    """A broadcast's payload is sized once per delivery run, but every
    delivered message is still charged."""

    def test_broadcast_charges_every_neighbour(self):
        g = star(5)  # centre 0 with k = 5 leaves
        payload = ("color", [3, 17, 250])
        processes = {p: Broadcaster(p, payload) for p in g.nodes()}
        stats = SyncSimulator(Network(g, seed=0), processes).run().stats
        assert stats.messages == 5
        assert stats.bits == 5 * payload_bits(payload)
        assert stats.messages_per_round[0] == 5

    def test_equal_but_distinct_payloads_each_charged(self):
        g = path(2)
        payloads = [[1, 2, 300], [1, 2, 300]]
        assert payloads[0] == payloads[1] and payloads[0] is not payloads[1]
        processes = {p: SendsOnce(p, payloads) for p in g.nodes()}
        stats = SyncSimulator(Network(g, seed=0), processes).run().stats
        assert stats.messages == 2
        assert stats.bits == 2 * payload_bits(payloads[0])

    def test_none_payload_after_nothing_is_charged(self):
        g = path(2)
        processes = {p: SendsOnce(p, [None, None, 7]) for p in g.nodes()}
        stats = SyncSimulator(Network(g, seed=0), processes).run().stats
        assert stats.bits == 2 * payload_bits(None) + payload_bits(7)


#: The RoundStats of the LOCAL-model builds, merged over each build's
#: simulations with RoundStats.merge (the slot assignment runs one per
#: phase): (rounds, messages, bits, messages_per_round, messages_by_node
#: listed in graph order, 0 for a node that sent nothing).  Recorded while
#: the simulator still sized every delivered message on its own.
PINNED_ROUND_STATS = {
    ("distributed_deg_plus_one_coloring", "society", 0): (
        4, 238, 13228, [96, 96, 26, 20],
        [2, 4, 0, 4, 2, 4, 4, 2, 6, 6, 4, 4, 2, 2, 2, 2, 4, 4, 4, 2, 2, 6, 2, 0, 9, 3, 6, 0, 0,
         2, 2, 2, 0, 4, 4, 2, 2, 0, 4, 2, 6, 12, 4, 4, 16, 4, 6, 8, 2, 8, 4, 2, 12, 2, 4, 2, 2,
         8, 8, 8],
    ),
    ("distributed_deg_plus_one_coloring", "society", 1): (
        4, 248, 13845, [96, 96, 37, 19],
        [2, 4, 0, 4, 2, 4, 4, 2, 6, 6, 4, 4, 2, 2, 2, 2, 4, 4, 4, 2, 2, 6, 2, 0, 12, 2, 6, 0,
         0, 4, 2, 2, 0, 4, 6, 2, 2, 0, 4, 2, 6, 12, 2, 6, 12, 8, 6, 12, 2, 8, 4, 2, 12, 3, 8,
         3, 2, 8, 4, 6],
    ),
    ("distributed_deg_plus_one_coloring", "society", 2): (
        4, 227, 12496, [96, 96, 23, 12],
        [2, 4, 0, 4, 2, 4, 4, 2, 6, 6, 8, 4, 2, 2, 2, 2, 4, 4, 3, 2, 2, 6, 2, 0, 6, 4, 9, 0, 0,
         4, 2, 2, 0, 4, 4, 2, 2, 0, 4, 2, 6, 9, 2, 4, 8, 4, 6, 16, 2, 6, 8, 2, 6, 2, 8, 2, 2,
         4, 4, 4],
    ),
    ("distributed_deg_plus_one_coloring", "powerlaw", 0): (
        5, 822, 45643, [342, 342, 88, 46, 4],
        [54, 14, 33, 2, 50, 24, 33, 20, 16, 26, 10, 10, 8, 16, 10, 15, 20, 12, 22, 22, 20, 16,
         10, 28, 10, 20, 20, 9, 12, 10, 8, 16, 9, 6, 8, 6, 6, 6, 6, 6, 6, 8, 6, 14, 8, 16, 6,
         9, 6, 20, 9, 12, 6, 8, 6, 6, 9, 6, 6, 6],
    ),
    ("distributed_deg_plus_one_coloring", "powerlaw", 1): (
        4, 732, 40120, [342, 342, 34, 14],
        [54, 14, 22, 2, 50, 24, 22, 20, 16, 26, 10, 10, 12, 16, 10, 10, 10, 24, 22, 22, 10, 8,
         10, 14, 10, 10, 20, 6, 12, 10, 8, 8, 6, 6, 12, 6, 6, 6, 6, 9, 12, 8, 6, 14, 8, 8, 6,
         6, 6, 8, 6, 9, 6, 8, 6, 6, 6, 9, 6, 9],
    ),
    ("distributed_deg_plus_one_coloring", "powerlaw", 2): (
        4, 757, 41619, [342, 342, 42, 31],
        [54, 14, 22, 2, 50, 24, 22, 20, 16, 26, 10, 10, 8, 16, 10, 20, 10, 12, 22, 22, 10, 8,
         10, 14, 20, 15, 10, 6, 12, 10, 8, 16, 6, 6, 8, 6, 6, 6, 6, 6, 12, 8, 6, 28, 16, 8, 6,
         6, 6, 8, 6, 6, 6, 8, 9, 9, 12, 6, 6, 6],
    ),
    ("distributed_deg_plus_one_coloring", "gnp-dense", 0): (
        4, 1513, 85762, [626, 626, 160, 101],
        [20, 14, 16, 24, 22, 16, 22, 26, 20, 18, 26, 18, 16, 16, 20, 20, 26, 26, 18, 14, 24,
         26, 20, 20, 18, 10, 36, 40, 30, 18, 32, 21, 36, 24, 24, 18, 24, 28, 20, 26, 6, 48, 33,
         33, 28, 48, 30, 24, 22, 16, 34, 60, 14, 26, 30, 24, 44, 24, 24, 52],
    ),
    ("distributed_deg_plus_one_coloring", "gnp-dense", 1): (
        4, 1512, 85747, [626, 626, 154, 106],
        [20, 14, 16, 24, 22, 16, 22, 26, 20, 18, 26, 18, 16, 16, 20, 20, 26, 26, 27, 14, 24,
         26, 20, 20, 18, 10, 18, 20, 20, 18, 32, 14, 24, 24, 48, 36, 48, 14, 40, 52, 6, 48, 33,
         33, 28, 24, 30, 16, 22, 16, 51, 60, 14, 26, 30, 48, 44, 12, 12, 26],
    ),
    ("distributed_deg_plus_one_coloring", "gnp-dense", 2): (
        5, 1607, 91566, [626, 626, 246, 90, 19],
        [20, 14, 16, 24, 22, 16, 22, 52, 20, 18, 39, 18, 24, 16, 20, 30, 26, 26, 18, 14, 24,
         26, 20, 40, 18, 10, 18, 20, 20, 36, 64, 35, 24, 24, 36, 18, 24, 14, 30, 39, 6, 24, 33,
         44, 28, 48, 45, 16, 22, 24, 51, 30, 21, 39, 30, 60, 22, 12, 18, 39],
    ),
    ("distributed_slot_assignment", "society", 0): (
        9, 120, 6641, [0, 42, 42, 13, 4, 8, 8, 2, 1],
        [0, 4, 0, 4, 0, 4, 4, 2, 0, 4, 2, 2, 0, 0, 2, 0, 4, 2, 4, 0, 2, 2, 0, 0, 3, 2, 2, 0, 0,
         0, 2, 0, 0, 2, 8, 0, 0, 0, 2, 0, 2, 9, 2, 4, 0, 4, 2, 0, 0, 6, 6, 0, 3, 3, 8, 0, 0, 4,
         2, 2],
    ),
    ("distributed_slot_assignment", "society", 1): (
        9, 119, 6581, [0, 42, 42, 11, 5, 8, 8, 2, 1],
        [0, 4, 0, 4, 0, 4, 4, 2, 0, 4, 2, 2, 0, 0, 2, 0, 4, 2, 3, 0, 2, 2, 0, 0, 2, 4, 2, 0, 0,
         0, 2, 0, 0, 2, 8, 0, 0, 0, 2, 0, 2, 12, 2, 6, 0, 4, 2, 0, 0, 4, 4, 0, 2, 2, 6, 0, 0,
         4, 3, 3],
    ),
    ("distributed_slot_assignment", "society", 2): (
        10, 126, 7035, [0, 42, 42, 12, 6, 2, 8, 8, 3, 3],
        [0, 4, 0, 4, 0, 4, 4, 2, 0, 4, 2, 2, 0, 0, 2, 0, 4, 2, 2, 0, 2, 3, 0, 0, 2, 4, 2, 0, 0,
         0, 2, 0, 0, 2, 8, 0, 0, 0, 2, 0, 2, 9, 4, 4, 0, 8, 3, 0, 0, 10, 4, 0, 2, 4, 4, 0, 0,
         4, 2, 3],
    ),
    ("distributed_slot_assignment", "powerlaw", 0): (
        12, 143, 7906, [2, 2, 16, 16, 3, 3, 46, 46, 6, 3, 0, 0],
        [2, 8, 8, 0, 2, 12, 6, 4, 2, 2, 4, 2, 4, 2, 6, 2, 2, 2, 2, 0, 4, 2, 4, 12, 4, 6, 4, 0,
         6, 2, 2, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 8, 4, 2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0,
         0, 0, 0],
    ),
    ("distributed_slot_assignment", "powerlaw", 1): (
        10, 143, 7895, [2, 2, 16, 16, 46, 46, 10, 5, 0, 0],
        [2, 8, 8, 0, 2, 6, 6, 4, 2, 2, 4, 2, 4, 2, 12, 2, 2, 2, 2, 0, 8, 2, 4, 6, 4, 4, 4, 0,
         6, 2, 2, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 12, 4, 3, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0,
         0, 0, 0, 0],
    ),
    ("distributed_slot_assignment", "powerlaw", 2): (
        11, 139, 7623, [2, 2, 16, 16, 3, 46, 46, 5, 3, 0, 0],
        [2, 8, 8, 0, 2, 9, 6, 4, 2, 2, 4, 2, 4, 2, 12, 2, 2, 2, 2, 0, 4, 2, 6, 6, 4, 4, 4, 0,
         6, 2, 2, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 8, 4, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0,
         0, 0, 0],
    ),
    ("distributed_slot_assignment", "gnp-dense", 0): (
        9, 1171, 66911, [0, 464, 464, 154, 52, 33, 2, 2, 0],
        [20, 2, 12, 18, 30, 16, 16, 22, 18, 14, 26, 27, 12, 14, 36, 18, 24, 20, 16, 0, 36, 22,
         14, 18, 16, 0, 24, 18, 12, 14, 0, 0, 18, 24, 33, 21, 60, 0, 20, 30, 0, 20, 16, 40, 26,
         22, 39, 14, 18, 14, 0, 28, 2, 30, 36, 60, 45, 0, 0, 20],
    ),
    ("distributed_slot_assignment", "gnp-dense", 1): (
        9, 1148, 65523, [0, 464, 464, 146, 61, 9, 2, 2, 0],
        [20, 2, 12, 18, 30, 16, 16, 44, 18, 14, 26, 18, 12, 14, 45, 18, 24, 20, 16, 0, 24, 44,
         14, 27, 16, 0, 16, 18, 12, 14, 0, 0, 18, 24, 22, 14, 24, 0, 20, 20, 0, 20, 24, 20, 26,
         44, 39, 14, 27, 14, 0, 42, 2, 30, 24, 36, 36, 0, 0, 40],
    ),
    ("distributed_slot_assignment", "gnp-dense", 2): (
        9, 1189, 68038, [0, 464, 464, 146, 89, 22, 2, 2, 0],
        [20, 2, 12, 18, 20, 16, 16, 33, 18, 14, 26, 36, 12, 14, 18, 18, 24, 20, 32, 0, 36, 44,
         14, 18, 16, 0, 16, 18, 12, 28, 0, 0, 18, 24, 22, 14, 36, 0, 30, 20, 0, 20, 16, 20, 26,
         22, 65, 14, 45, 14, 0, 28, 2, 40, 36, 48, 18, 0, 0, 40],
    ),
}


LOCAL_BUILDS = {
    "distributed_deg_plus_one_coloring": distributed_deg_plus_one_coloring,
    "distributed_slot_assignment": distributed_slot_assignment,
}

#: the same builds through the simulator oracle, reduced to their merged stats
SIMULATED_BUILDS = {
    "distributed_deg_plus_one_coloring": lambda graph, seed: simulated_coloring(graph, seed)[1],
    "distributed_slot_assignment": lambda graph, seed: simulated_slot_assignment(graph, seed)[2],
}


def assert_pinned(stats, graph, pinned):
    rounds, messages, bits, per_round, by_node = pinned
    assert (stats.rounds, stats.messages, stats.bits) == (rounds, messages, bits)
    assert stats.messages_per_round == per_round
    assert stats.messages_by_node == {p: c for p, c in zip(graph.nodes(), by_node) if c}


@pytest.mark.parametrize("build, workload, seed", sorted(PINNED_ROUND_STATS))
def test_round_stats_pinned(build, workload, seed):
    """The round kernel's stats, the public rounds/messages and the simulator
    oracle's merged stats all equal the pinned literals."""
    graph = get_workload(workload)
    pinned = PINNED_ROUND_STATS[(build, workload, seed)]
    result = LOCAL_BUILDS[build](graph, seed=seed)
    assert (result.rounds, result.messages) == pinned[:2]
    assert_pinned(result.stats, graph, pinned)
    assert_pinned(SIMULATED_BUILDS[build](graph, seed), graph, pinned)
