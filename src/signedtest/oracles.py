"""Query oracles over signed graphs, with exact query accounting.

Testers never touch a ``SignedGraph`` directly; they see one of the two query
models here. Every adjacency-matrix entry and every neighbor slot read adds
one to ``query_count``, including empty-slot answers, whether it is read by
``query`` or by a bulk read (``induced``, ``neighbors``). Free metadata is
limited to the node count and (bounded model) the degree bound.

The testers of both models also share the seeded randomness and the
``Verdict`` they return, defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .core import SignedGraph, Witness


class DenseOracle:
    """Adjacency-matrix access: query(u, v) -> sign (0 or 1) or None (absent).

    Diagonal queries are a caller bug and raise; they are never charged.
    """

    def __init__(self, graph: SignedGraph):
        self.n = graph.n
        self.query_count = 0
        self._signs = graph._sign_map  # shared immutable lookup

    def query(self, u: int, v: int) -> int | None:
        if u == v:
            raise ValueError(f"diagonal query ({u},{u})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"query ({u},{v}) out of range for n={self.n}")
        self.query_count += 1
        return self._signs[u].get(v)

    def induced(self, nodes) -> SignedGraph:
        """Read every pair among distinct nodes, charged k(k-1)/2 queries, and
        return the induced graph relabeled to 0..k-1 in the given order, its
        rows built as from_edges would build them, without its redundant checks."""
        k = len(nodes)
        if k == 0 or len(set(nodes)) != k:
            raise ValueError("induced read needs one or more distinct nodes")
        if not (0 <= min(nodes) and max(nodes) < self.n):
            raise ValueError(f"induced read out of range for n={self.n}")
        self.query_count += k * (k - 1) // 2
        adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for i, u in enumerate(nodes):
            row = self._signs[u]
            for j in range(i + 1, k):
                s = row.get(nodes[j])
                if s is not None:
                    adj[i].append((j, s))
                    adj[j].append((i, s))
        return SignedGraph(k, tuple(map(tuple, adj)))


class BoundedDegreeOracle:
    """Adjacency-list access: query(v, i) -> (neighbor, sign) or None when
    node v has fewer than i neighbors. i is 1-based and must stay within the
    degree bound d; the out-of-range answer still costs one query.

    Neighbor order is the graph's edge insertion order and is stable across
    calls.
    """

    def __init__(self, graph: SignedGraph):
        if graph.degree_bound is None:
            raise ValueError("bounded-degree oracle needs a graph with a degree bound")
        self.n = graph.n
        self.d = graph.degree_bound
        self.query_count = 0
        self._adj = graph.adj

    def query(self, v: int, i: int) -> tuple[int, int] | None:
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        if not 1 <= i <= self.d:
            raise ValueError(f"neighbor index {i} outside 1..{self.d}")
        self.query_count += 1
        row = self._adj[v]
        if i <= len(row):
            return row[i - 1]
        return None

    def neighbors(self, v: int) -> Iterator[tuple[int, int]]:
        """Read slots 1..d of v in order, yielding (neighbor, sign) up to the
        first empty slot. Each slot read costs one query as it is read, the
        empty one included, so a caller that stops early pays only for the
        slots it took. The range check on v runs at the first read."""
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        row = self._adj[v]
        for pair in row:
            self.query_count += 1
            yield pair
        if len(row) < self.d:
            self.query_count += 1


@dataclass(frozen=True)
class RandomSource:
    """Seeded randomness with reproducible independent substreams.

    ``stream(*path)`` keys a fresh generator off (seed, path) via NumPy's
    SeedSequence spawn keys, so e.g. a trial's stream depends only on the
    seed and the trial index, not on which trials ran before it.
    """

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def stream(self, *path: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=path))

    def generator(self) -> np.random.Generator:
        return self.stream()


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return RandomSource(int(seed)).generator()


_CHUNK = 4096  # rows per draw in _chunked_draws


def _chunked_draws(draw, rows: int, *shape: int) -> Iterator:
    """The rows of draw(size=(rows, *shape)), say draw = rng.random, as Python
    values, drawn _CHUNK rows at a time so memory stays bounded. The chunks
    concatenate to that one draw and leave the stream where it would."""
    for lo in range(0, rows, _CHUNK):
        yield from draw(size=(min(_CHUNK, rows - lo), *shape)).tolist()


def _chunked_integers(rng, low: int, high: int, rows: int, *shape: int) -> Iterator:
    return _chunked_draws(partial(rng.integers, low, high), rows, *shape)


@dataclass(frozen=True)
class Verdict:
    """Tester outcome. One-sided testers attach a witness to every reject;
    exact_fallback marks runs that read the whole graph and answered
    exactly instead of sampling."""

    accept: bool
    witness: Optional[Witness] = None
    queries_used: int = 0
    exact_fallback: bool = False
    details: dict = field(default_factory=dict)

    @property
    def decision(self) -> str:
        return "accept" if self.accept else "reject"
