"""Seeded random-number stream management.

Distributed algorithms in this package (the randomized coloring of
:mod:`repro.coloring.distributed`, the first-come-first-grab baseline, the
radio simulation) need *per-node* randomness that is reproducible across
runs and independent across nodes.  :class:`RngStream` wraps
:class:`numpy.random.Generator` and provides deterministic child-stream
derivation keyed by arbitrary hashable labels, so node ``17`` of run
``seed=3`` always sees the same random bits regardless of scheduling order.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, List

import numpy as np

__all__ = ["RngStream", "derive_seed", "spawn_streams"]

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, *labels: Hashable) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a label path.

    The derivation is a SHA-256 hash of the textual representation of the
    seed and labels, so it is stable across processes and Python versions
    (unlike the built-in ``hash``).
    """
    payload = repr((int(root_seed), tuple(labels))).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & _MASK64


class RngStream:
    """A labelled, reproducible random stream.

    Attributes:
        seed: the 64-bit seed backing this stream.
        generator: the underlying :class:`numpy.random.Generator`.
    """

    __slots__ = ("seed", "generator", "_label")

    def __init__(self, seed: int, label: Hashable = "root") -> None:
        self.seed = int(seed) & _MASK64
        self._label = label
        self.generator = np.random.default_rng(self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, label={self._label!r})"

    def child(self, *labels: Hashable) -> "RngStream":
        """Return a child stream deterministically derived from this one."""
        return RngStream(derive_seed(self.seed, *labels), labels)

    # -- convenience passthroughs -------------------------------------------------
    def integers(self, low: int, high: int | None = None, size=None):
        """Uniform integers, mirroring :meth:`numpy.random.Generator.integers`."""
        return self.generator.integers(low, high, size=size)

    def random(self, size=None):
        """Uniform floats in ``[0, 1)``."""
        return self.generator.random(size)

    def choice(self, seq, size=None, replace: bool = True):
        """Random choice from a sequence."""
        return self.generator.choice(seq, size=size, replace=replace)

    def shuffle(self, values: list) -> None:
        """In-place Fisher–Yates shuffle of a Python list."""
        self.generator.shuffle(values)

    def permutation(self, n: int):
        """Random permutation of ``range(n)`` (a numpy array)."""
        return self.generator.permutation(n)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform floats in ``[low, high)``."""
        return self.generator.uniform(low, high, size=size)

    def exponential(self, scale: float = 1.0, size=None):
        """Exponentially distributed floats."""
        return self.generator.exponential(scale, size=size)


def spawn_streams(root_seed: int, labels: Iterable[Hashable]) -> List[RngStream]:
    """Spawn one independent :class:`RngStream` per label.

    Useful for assigning per-node streams:
    ``spawn_streams(seed, graph.nodes())``.
    """
    return [RngStream(derive_seed(root_seed, label), label) for label in labels]
