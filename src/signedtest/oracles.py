"""Query oracles over signed graphs, with exact query accounting.

Testers never touch a ``SignedGraph`` directly; they see one of the two query
models here. Every adjacency-matrix entry and every neighbor slot read adds
one to ``query_count``, including empty-slot answers, whether it is read by
``query`` or by a bulk read (``induced``, ``neighbors``, ``query_batch``,
``read_all``). Free metadata is limited to the node count and (bounded model)
the degree bound.

A dense query reads one cell of the graph's signed adjacency matrix, n*n bytes
built once per graph; above ``_CELLS_MAX_N`` nodes, dense reads and ``query_batch``
take the graph's NumPy CSR arrays (``core.csr_rows``), held from the build of a
generated or loaded graph. A dense read of ``_ARRAY_READ_MIN`` nodes or more returns
a ``core.CSRGraph``; on one with no rows, each bounded point read builds its row once.

The testers of both models also share the seeded randomness and the
``Verdict`` they return, defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .core import CSRGraph, SignedGraph, Witness, csr_entries, csr_rows


# An induced read of at least this many nodes takes its block of the cells as one
# array, a smaller one each pair's cell: the two cost the same at 14-16 nodes on a
# complete 1000-node graph, at 24-32 at degree 6; at 4 nodes the pairs are 3-4x cheaper.
_ARRAY_READ_MIN = 24

# A larger graph gets no cells (here at most 16 MiB) but reads its CSR arrays: criterion
# 6 runs dense testers on sparse graphs of 10^5 nodes, whose cells would take 10 GB.
_CELLS_MAX_N = 4096

_ANSWER = (None, 0, 1)  # a query's answer, indexed by its cell


class DenseOracle:
    """Adjacency-matrix access: query(u, v) -> sign (0 or 1) or None (absent).

    Diagonal queries and non-integer ids are caller bugs: they raise uncharged.
    """

    def __init__(self, graph: SignedGraph):
        self.n = graph.n
        self.query_count = 0
        cells = self._cells = _cells(graph) if graph.n <= _CELLS_MAX_N else None
        self._csr = None if cells else graph._indexes.get("csr") or csr_rows(graph.adj, graph._indexes)

    def query(self, u: int, v: int) -> int | None:
        if type(u) is not int or type(v) is not int:
            u, v = _integers(u, v)
        if u == v:
            raise ValueError(f"diagonal query ({u},{u})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"query ({u},{v}) out of range for n={self.n}")
        self.query_count += 1
        if (cells := self._cells) is not None:
            return _ANSWER[cells[u * self.n + v]]
        indptr, nbr, sign = self._csr  # scan u's row
        row = nbr[indptr[u]:indptr[u + 1]].tolist()
        return int(sign[indptr[u] + row.index(v)]) if v in row else None

    def induced(self, nodes) -> SignedGraph:
        """Read every pair among distinct nodes, charged k(k-1)/2 queries, and
        return the induced graph relabeled to 0..k-1 in the given order, each
        row ascending by label, as from_edges would build it from the pairs in
        order, without its redundant checks. Every error is raised before the
        charge. A read of _ARRAY_READ_MIN nodes or more, or of a graph with no
        cells, returns the same graph as a CSRGraph."""
        k = len(nodes)
        if k == 0 or len(set(nodes)) != k:
            raise ValueError("induced read needs one or more distinct nodes")
        ids = _id_array(nodes, "induced read needs integer node ids")
        if not (0 <= min(nodes) and max(nodes) < self.n):
            raise ValueError(f"induced read out of range for n={self.n}")
        self.query_count += k * (k - 1) // 2
        if (cells := self._cells) is None:
            return self._gather(ids)
        if k >= _ARRAY_READ_MIN:  # nonzero lists the block's entries by (row, column)
            block = np.frombuffer(cells, np.uint8).reshape(self.n, self.n)[np.ix_(ids, ids)]
            row, col = np.nonzero(block)
            return _csr_graph(k, row, col, block[row, col] - 1)
        n, adj = self.n, [[] for _ in range(k)]
        for i, u in enumerate(nodes):
            at = u * n
            for j in range(i + 1, k):
                if c := cells[at + nodes[j]]:
                    adj[i].append((j, c - 1))
                    adj[j].append((i, c - 1))
        return SignedGraph(k, tuple(map(tuple, adj)))

    def _gather(self, ids: np.ndarray) -> SignedGraph:
        """induced on a graph with no cells, from the sampled rows: O(k*d) at degree d."""
        k = len(ids)
        indptr, nbr, sign = self._csr
        label = np.zeros(self.n, dtype=np.int32)  # lazily mapped: costs the pages read
        label[ids] = np.arange(1, k + 1, dtype=np.int32)  # 1 + label, 0 if not sampled
        lo, size = indptr[ids], indptr[ids + 1] - indptr[ids]
        at = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())  # the rows' entries
        col = label[nbr[at]] - 1
        key = (np.repeat(np.arange(0, k * k, k), size) + col) * 2 + sign[at]  # (row, col, sign)
        rc, sgn = np.divmod(np.sort(key[col >= 0]), 2)
        return _csr_graph(k, *np.divmod(rc, k), sgn)


def _csr_graph(k: int, row, col, sgn) -> CSRGraph:
    """The k-node CSRGraph whose entries, sorted by (row, column), are row, col and sgn."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=k))))
    return CSRGraph(k, {"csr": (indptr, np.append(col, -1), np.append(sgn.astype(np.int8), np.int8(-1)))})


def _cells(graph: SignedGraph) -> bytes:
    """The graph's signed adjacency matrix as n*n bytes, kept in its _indexes: cell u*n + v
    is 0 for no edge, 1 plus, 2 minus. A scatter from CSR arrays, else a loop on rows."""
    n, indexes = graph.n, graph._indexes
    if (cells := indexes.get("cells")) is None:
        if csr := indexes.get("csr"):
            src, nbr, sign = csr_entries(n, *csr)
            matrix = np.zeros(n * n, dtype=np.uint8)
            matrix[src * n + nbr] = sign + 1
        else:
            matrix = bytearray(n * n)
            for u, row in enumerate(graph.adj):
                for v, s in row:
                    matrix[u * n + v] = s + 1
        cells = indexes["cells"] = bytes(matrix)
    return cells


class BoundedDegreeOracle:
    """Adjacency-list access: query(v, i) -> (neighbor, sign) or None when
    node v has fewer than i neighbors; i is 1-based, at most the degree bound
    d. That empty answer costs one query; a non-integer v or i raises uncharged.

    Neighbor order is the graph's edge insertion order and is stable across
    calls.
    """

    def __init__(self, graph: SignedGraph):
        if graph.degree_bound is None:
            raise ValueError("bounded-degree oracle needs a graph with a degree bound")
        self.n = graph.n
        self.d = graph.degree_bound
        self.query_count = 0
        self._indexes = graph._indexes  # holds the CSR index or gets it at a query_batch
        built = not isinstance(graph, CSRGraph) or "adj" in graph._indexes  # its rows
        self._adj = graph.adj if built else self._indexes.get("rows")
        if self._adj is None:  # a row store, filled by _row: unlike a list, never GC-tracked
            self._adj = self._indexes["rows"] = np.full(self.n, None)

    def _row(self, v: int) -> tuple[tuple[int, int], ...]:
        """v's row, built from the CSR arrays and kept in the row store."""
        indptr, nbr, sign = self._indexes["csr"]
        a, b = indptr[v:v + 2].tolist()
        row = self._adj[v] = tuple(zip(nbr[a:b].tolist(), sign[a:b].tolist()))
        return row

    def query(self, v: int, i: int) -> tuple[int, int] | None:
        if type(v) is not int or type(i) is not int:
            v, i = _integers(v, i)
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        if not 1 <= i <= self.d:
            raise ValueError(f"neighbor index {i} outside 1..{self.d}")
        self.query_count += 1
        if (row := self._adj[v]) is None:
            row = self._row(v)
        if i <= len(row):
            return row[i - 1]
        return None

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Slots 1..d of v up to the first empty one, as the graph's own row
        of (neighbor, sign) pairs, charged at once as reading them one by one
        would be: min(deg(v) + 1, d) queries, the empty slot included."""
        if type(v) is not int:
            v, = _integers(v)
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        if (row := self._adj[v]) is None:
            row = self._row(v)
        self.query_count += min(len(row) + 1, self.d)
        return row

    def read_all(self) -> SignedGraph:
        """The whole graph at min(deg(v) + 1, d) queries a node, as neighbors(v)
        charges: its rows if this oracle reads them, else its CSR arrays as a CSRGraph."""
        if not isinstance(adj := self._adj, np.ndarray):
            self.query_count += sum(min(len(row) + 1, self.d) for row in adj)
            return SignedGraph(self.n, adj, self.d)
        self.query_count += int(np.minimum(np.diff(self._indexes["csr"][0]) + 1, self.d).sum())
        return CSRGraph(self.n, self._indexes, self.d)

    def query_batch(self, nodes, slots) -> tuple[np.ndarray, np.ndarray]:
        """query(nodes[k], slots[k]) for every k at once, as two arrays
        (neighbors, signs), both -1 where the slot is empty. Every entry is
        checked before any is charged; then each costs one query."""
        nodes, slots = (_id_array(a, "query_batch needs integer nodes and slots")
                        for a in (nodes, slots))
        if nodes.shape != slots.shape:
            raise ValueError("query_batch needs one slot per node")
        if nodes.size and not (0 <= nodes.min() and nodes.max() < self.n):
            raise ValueError(f"node out of range for n={self.n}")
        if slots.size and not (1 <= slots.min() and slots.max() <= self.d):
            raise ValueError(f"neighbor index outside 1..{self.d}")
        nodes, slots = nodes.astype(np.int64, copy=False), slots.astype(np.int64, copy=False)
        self.query_count += nodes.size
        indptr, nbr, sign = self._indexes.get("csr") or csr_rows(self._adj, self._indexes)
        pos = indptr[nodes] + slots - 1
        pos[pos >= indptr[nodes + 1]] = -1  # an empty slot reads the -1 past the last row
        return nbr[pos], sign[pos]


def _integers(*args) -> list[int]:
    """A point read's arguments as ints: NumPy integers pass, floats and bools raise."""
    if all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in args):
        return [int(x) for x in args]
    raise ValueError(f"oracle reads need integer arguments, got {args}")


def _id_array(ids, message: str) -> np.ndarray:
    """ids as an array, refused with message unless every entry is an integer:
    an array by its dtype alone, any other sequence also entry by entry, since
    np.asarray reads a bool among ints as 0 or 1."""
    array = np.asarray(ids)
    if array.size and (array.dtype.kind not in "iu" or not isinstance(ids, np.ndarray)
                       and not {bool, np.bool_}.isdisjoint(map(type, ids))):
        raise ValueError(message)
    return array


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


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return RandomSource(int(seed)).stream()


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
