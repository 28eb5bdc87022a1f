"""The synchronous round engine.

:class:`SyncSimulator` executes a set of :class:`~repro.distributed.node.NodeProcess`
programs over a :class:`~repro.distributed.network.Network` in lock-step
rounds:

1. round 0: every node's :meth:`on_start` runs and may queue messages;
2. each subsequent round: messages queued in the previous round are
   delivered, every *live* (non-halted) node's :meth:`on_round` runs with its
   inbox, and newly queued messages are buffered for the next round;
3. the run ends when every node has halted or ``max_rounds`` is reached.

The engine is deterministic given the network seed: nodes are always
scheduled in the graph's stable order and each node draws randomness only
from its private stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping

from repro.distributed.messages import Message
from repro.distributed.network import Network
from repro.distributed.node import NodeContext, NodeProcess
from repro.distributed.stats import RoundStats

__all__ = ["SyncSimulator", "SimulationResult", "SimulationError"]


#: stands for "no message seen yet" where any payload, None included, may follow
_NO_PAYLOAD = object()


class SimulationError(RuntimeError):
    """Raised when a run exceeds its round budget without terminating."""


@dataclass
class SimulationResult:
    """Outcome of a simulation: per-node results plus communication statistics."""

    results: Dict[Hashable, Any]
    stats: RoundStats
    halted: bool

    def result_of(self, node: Hashable) -> Any:
        """The value returned by ``node``'s program."""
        return self.results[node]


class SyncSimulator:
    """Synchronous LOCAL-model executor."""

    def __init__(self, network: Network, processes: Mapping[Hashable, NodeProcess]) -> None:
        missing = [p for p in network.nodes() if p not in processes]
        if missing:
            raise ValueError(f"no process supplied for nodes: {missing!r}")
        self.network = network
        self.processes: Dict[Hashable, NodeProcess] = dict(processes)
        self._contexts: Dict[Hashable, NodeContext] = {}
        self._outboxes: Dict[Hashable, List[Message]] = {p: [] for p in network.nodes()}
        self._halted: Dict[Hashable, bool] = {p: False for p in network.nodes()}
        self.stats = RoundStats()
        self._round = 0

    # -- wiring --------------------------------------------------------------------
    def _make_context(self, node: Hashable) -> NodeContext:
        def send(neighbor: Hashable, payload: Any) -> None:
            self._outboxes[node].append(
                Message(sender=node, receiver=neighbor, round_sent=self._round, payload=payload)
            )
            self.stats.record_sender(node)

        def halt() -> None:
            self._halted[node] = True

        return NodeContext(
            node=node,
            neighbors=self.network.neighbors(node),
            rng=self.network.rng_for(node),
            send=send,
            halt=halt,
        )

    # -- execution -----------------------------------------------------------------
    def run(self, max_rounds: int = 10_000, require_termination: bool = True) -> SimulationResult:
        """Run until global termination (all nodes halted) or ``max_rounds``.

        Raises :class:`SimulationError` when the budget is exhausted and
        ``require_termination`` is True; otherwise returns a result with
        ``halted=False``.
        """
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

        order = self.network.nodes()
        for node in order:
            self._contexts[node] = self._make_context(node)

        # Round 0: on_start hooks.
        for node in order:
            ctx = self._contexts[node]
            ctx.round_index = 0
            self.processes[node].on_start(ctx)

        pending: Dict[Hashable, List[Message]] = {p: [] for p in order}
        for round_index in range(1, max_rounds + 1):
            self._round = round_index
            # Deliver messages queued in the previous round.
            delivered = 0
            delivered_bits = 0
            for node in order:
                inbox: List[Message] = []
                pending[node] = inbox
            for node in order:
                outbox = self._outboxes[node]
                payload, bits = _NO_PAYLOAD, 0
                for message in outbox:
                    pending[message.receiver].append(message)
                    # a broadcast queues one payload object many times over:
                    # size it once per run of them
                    if message.payload is not payload:
                        payload, bits = message.payload, message.size_bits()
                    delivered_bits += bits
                delivered += len(outbox)
                outbox.clear()

            live = [p for p in order if not self._halted[p]]
            if not live and delivered == 0:
                break

            for node in live:
                ctx = self._contexts[node]
                ctx.round_index = round_index
                self.processes[node].on_round(ctx, pending[node])

            self.stats.record_round(delivered, delivered_bits)

            if all(self._halted[p] for p in order) and not any(self._outboxes[p] for p in order):
                break
        else:
            if require_termination:
                still_live = [p for p in order if not self._halted[p]]
                raise SimulationError(
                    f"simulation did not terminate within {max_rounds} rounds; "
                    f"{len(still_live)} node(s) still live"
                )

        results = {p: self.processes[p].result() for p in order}
        return SimulationResult(
            results=results,
            stats=self.stats,
            halted=all(self._halted[p] for p in order),
        )
