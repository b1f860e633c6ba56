"""Core signed-graph data types, validation, file I/O, and graph transforms.

A signed graph is a simple undirected graph whose edges carry a + or - label.
Everything downstream (exact checkers, testers, generators) works on the
immutable ``SignedGraph`` defined here. ``SignedGraph.from_arrays`` builds one
from (u, v, sign) integer arrays with vectorized checks and one pass over
the rows; the generators and the ``.sgl`` loader use it.
``SignedGraph.from_edges`` takes any iterable of edge tuples, with a Python
loop that is about ten times cheaper on a graph of a few nodes; tests and
hand-written lists use it, and ``from_arrays`` calls it only to word a
rejection. A whole-graph read keeps the rows it reads and calls neither.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain, pairwise, repeat
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np


class Sign(IntEnum):
    """Edge sign. PLUS sorts before MINUS; serialized as '+' / '-'.

    Graphs and oracles carry a sign as the plain int a member names, never as
    the member: members are GC-tracked, and so is every tuple holding one, so
    each full collection would rescan every edge. Minus is the truthy one.
    """

    PLUS = 0
    MINUS = 1

    @property
    def token(self) -> str:
        return "+" if self is Sign.PLUS else "-"

    @classmethod
    def from_token(cls, tok: str) -> "Sign":
        if tok == "+":
            return cls.PLUS
        if tok == "-":
            return cls.MINUS
        raise ValueError(f"bad sign token {tok!r}, expected '+' or '-'")


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input or invalid graph construction."""


# Sign values from_edges accepts, and the int each stores. The type check
# keeps out True and 1.0, which hash and compare equal to 1.
_SIGN_VALUES = {"+": 0, "-": 1, 0: 0, 1: 1}
_SIGN_TYPES = frozenset((str, int, Sign))


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph: ``adj[v]`` lists ``(neighbor, sign)`` pairs,
    each sign the plain int 0 (plus) or 1 (minus); see Sign.

    Neighbor order inside each adjacency list is edge insertion order; the
    bounded-degree oracle exposes exactly this order, so it is part of the
    graph's identity, not an implementation detail.
    """

    n: int
    adj: tuple[tuple[tuple[int, int], ...], ...]
    degree_bound: int | None = None
    # Indexes built at their first use and shared by every oracle on the
    # graph (see csr_rows). An oracle keeps this dict instead of the graph: an
    # empty dict is not GC-tracked, so a graph that only oracles reach is
    # freed and adds no object for each full collection to scan.
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, Sign | int | str]],
        degree_bound: int | None = None,
    ) -> "SignedGraph":
        if n < 1:
            raise GraphFormatError("graph needs at least one node")
        if degree_bound is not None and degree_bound < 1:
            raise GraphFormatError("degree bound must be >= 1")
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v, s in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) endpoint out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            ok = type(s) in _SIGN_TYPES or isinstance(s, np.integer)
            sign = _SIGN_VALUES.get(s) if ok else None
            if sign is None:
                raise GraphFormatError(
                    f"edge ({u},{v}) has sign {s!r}, expected '+', '-', 0 or 1")
            lists[u].append((v, sign))
            lists[v].append((u, sign))
        if degree_bound is not None:
            for v in range(n):
                if len(lists[v]) > degree_bound:
                    raise GraphFormatError(
                        f"node {v} has degree {len(lists[v])} > bound {degree_bound}"
                    )
        return cls(n, tuple(tuple(l) for l in lists), degree_bound)

    @classmethod
    def from_arrays(cls, n: int, u, v, sign, degree_bound: int | None = None) -> "SignedGraph":
        """The graph of ``from_edges(n, zip(u, v, sign), degree_bound)`` from
        three integer arrays, checked and built with NumPy.

        Every check of ``from_edges`` runs vectorized; on any failure the
        edges go through ``from_edges``, which raises its message for the
        first offending edge. Rows keep insertion order. Each node's id is one
        int object, and each (neighbour, sign) entry one tuple, shared by
        every row that holds it.
        """
        u, v, sign = arrays = [np.asarray(a) for a in (u, v, sign)]
        if any(a.ndim != 1 or a.dtype.kind not in "iu" or len(a) != len(u) for a in arrays):
            raise GraphFormatError("from_arrays needs three 1-d integer arrays of one length")
        ends = np.stack([u, v], axis=1).astype(np.int64)
        lo, hi = np.minimum(*ends.T), np.maximum(*ends.T)
        key = np.sort(lo * n + hi)
        ok = (n >= 1 and (degree_bound is None or degree_bound >= 1)
              and lo.min(initial=0) >= 0 and hi.max(initial=0) < n and (lo < hi).all()
              and ((sign == 0) | (sign == 1)).all() and (key[1:] > key[:-1]).all())
        if ok:
            deg = np.bincount(ends.ravel(), minlength=n)
            ok = degree_bound is None or deg.max() <= degree_bound
        if not ok:
            cls.from_edges(n, zip(*(a.tolist() for a in arrays)), degree_bound)
            raise AssertionError("from_edges accepted edges that from_arrays rejects")
        # entry 2i + j is edge i seen from its endpoint j; sorting the keys
        # (endpoint, entry) groups the entries by row, in insertion order
        # (n * 2m, like n * n above, fits int64 for any graph held in memory)
        m2 = 2 * len(u)
        order = np.sort(ends.ravel() * m2 + np.arange(m2)) % m2
        ids = list(range(n))
        table = np.fromiter(chain(zip(ids, repeat(0)), zip(ids, repeat(1))),
                            dtype=object, count=2 * n)  # entry (w, s) at s*n + w
        code = ends[:, ::-1] + n * sign.astype(np.int64)[:, None]
        entries = table[code.ravel()[order]].tolist()
        cuts = [0, *np.cumsum(deg).tolist()]
        return cls(n, tuple(tuple(entries[a:b]) for a, b in pairwise(cuts)), degree_bound)

    @cached_property
    def _sign_map(self) -> tuple[dict[int, int], ...]:  # [u][v] -> sign of (u, v)
        return tuple(map(dict, self.adj))

    def sign_of(self, u: int, v: int) -> int | None:
        """Sign of edge (u,v), or None if absent."""
        return self._sign_map[u].get(v) if 0 <= u < self.n else None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each edge once, as (u, v, sign) with u < v, sorted."""
        out = [(u, v, s) for u in range(self.n) for v, s in self.adj[u] if u < v]
        out.sort(key=lambda e: (e[0], e[1]))
        return iter(out)

    @cached_property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    @cached_property
    def num_positive_edges(self) -> int:
        return sum(1 for _, _, s in self.edges() if s == Sign.PLUS)

    def max_degree(self) -> int:
        return max((len(l) for l in self.adj), default=0)


def validate(g: SignedGraph) -> str | None:
    """Return None if g satisfies every structural invariant, else the first violation."""
    if g.n < 1:
        return "graph needs at least one node"
    if len(g.adj) != g.n:
        return f"adjacency has {len(g.adj)} rows for n={g.n}"
    for u in range(g.n):
        seen: set[int] = set()
        for v, s in g.adj[u]:
            if not 0 <= v < g.n:
                return f"neighbor {v} of {u} out of range"
            if v == u:
                return f"self-loop at {u}"
            if v in seen:
                return f"parallel edge ({u},{v})"
            seen.add(v)
            if type(s) not in (int, Sign) or s not in (0, 1):
                return f"edge ({u},{v}) has non-sign label {s!r}"
            back = [t for w, t in g.adj[v] if w == u]
            if not back:
                return f"asymmetric edge ({u},{v})"
            if back[0] != s:
                return f"edge ({u},{v}) sign mismatch across directions"
    if g.degree_bound is not None:
        if g.degree_bound < 1:
            return "degree bound must be >= 1"
        for u in range(g.n):
            if len(g.adj[u]) > g.degree_bound:
                return f"node {u} has degree {len(g.adj[u])} > bound {g.degree_bound}"
    return None


# ---------------------------------------------------------------------------
# Edge-list file format
#
# Header line "n m", then m lines "u v s" with 0 <= u < v < n and s in {+,-}.
# '#' starts a comment, blank lines are ignored, encoding is UTF-8 with LF.
# ---------------------------------------------------------------------------


def _data_lines(stream: TextIO) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_edge_list(source: str | Path | TextIO, degree_bound: int | None = None) -> SignedGraph:
    """Parse a .sgl edge list from a path or an open text stream."""
    if hasattr(source, "read"):
        return _parse(source, degree_bound)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as fh:
        return _parse(fh, degree_bound)


def _parse(stream: TextIO, degree_bound: int | None) -> SignedGraph:
    lines = _data_lines(stream)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphFormatError("line 1: missing 'n m' header") from None
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    if n < 1:
        raise GraphFormatError(f"line {lineno}: n must be >= 1")
    if m < 0:
        raise GraphFormatError(f"line {lineno}: m must be >= 0")

    edges: list[tuple[int, int, int]] = []
    for lineno, line in lines:
        if len(edges) == m:
            raise GraphFormatError(f"line {lineno}: more than the declared {m} edges")
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v s', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        if not 0 <= u < v < n:
            raise GraphFormatError(f"line {lineno}: endpoints must satisfy 0 <= u < v < n")
        try:
            s = int(Sign.from_token(fields[2]))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        edges.append((u, v, s))
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    u, v, s = np.array(edges, dtype=np.int64).reshape(m, 3).T
    return SignedGraph.from_arrays(n, u, v, s, degree_bound)


def save_edge_list(g: SignedGraph, dest: str | Path | TextIO) -> None:
    """Write g in canonical form: sorted edges, '+'/'-' tokens, LF endings."""
    if hasattr(dest, "write"):
        _write(g, dest)  # type: ignore[arg-type]
        return
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        _write(g, fh)


def _write(g: SignedGraph, fh: TextIO) -> None:
    fh.write(f"{g.n} {g.num_edges}\n")
    for u, v, s in g.edges():
        fh.write(f"{u} {v} {'+-'[s]}\n")


def dumps_edge_list(g: SignedGraph) -> str:
    buf = io.StringIO()
    _write(g, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Derived graphs
# ---------------------------------------------------------------------------


def midpoint(n: int, u: int, v: int) -> int:
    """Id of the subdivision node on positive edge (u, v) of an n-node graph.

    Original node u keeps id u; the midpoint of (u, v) with u < v is
    n + u*n + v, so every id is a plain int and ids never collide.
    """
    if u > v:
        u, v = v, u
    return n + u * n + v


def csr_rows(adj: tuple[tuple[tuple[int, int], ...], ...],
             indexes: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A graph's rows ``adj`` as CSR arrays (indptr, nbr as int32, sign as
    int8), each row in insertion order; nbr and sign end with one -1 past the
    last row, the answer read for an empty slot. Built at the first call and
    kept in ``indexes``, the same graph's ``_indexes``."""
    csr = indexes.get("csr")
    if csr is None:
        n = len(adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(adj)),
                            dtype=np.int32, count=2 * int(indptr[-1]))
        csr = indexes["csr"] = (indptr, np.append(pairs[0::2], -1),
                                np.append(pairs[1::2], -1).astype(np.int8))
    return csr


@dataclass(frozen=True)
class UnsignedGraph:
    """Plain undirected graph produced by the subdivision transform."""

    n: int
    adj: tuple[tuple[int, ...], ...]
    degree_bound: int | None = None

    def num_edges(self) -> int:
        return sum(len(l) for l in self.adj) // 2


def zaslavsky_transform(g: SignedGraph) -> tuple[UnsignedGraph, tuple[int, ...]]:
    """Subdivide each positive edge with a fresh midpoint; keep negative edges.

    Returns the unsigned result and a provenance map: entry i is the id of
    node i's source, the original vertex or the ``midpoint`` of its edge.
    The result is bipartite exactly when g is balanced, and its minimum
    edge-deletion distance to bipartiteness equals g's frustration index.
    """
    pos_edges = [(u, v) for u, v, s in g.edges() if s == Sign.PLUS]
    prov = [*range(g.n), *(midpoint(g.n, u, v) for u, v in pos_edges)]
    lists: list[list[int]] = [[] for _ in range(len(prov))]
    for idx, (u, v) in enumerate(pos_edges):
        w = g.n + idx
        lists[u].append(w)
        lists[w].append(u)
        lists[v].append(w)
        lists[w].append(v)
    for u, v, s in g.edges():
        if s == Sign.MINUS:
            lists[u].append(v)
            lists[v].append(u)
    bound = None if g.degree_bound is None else max(g.degree_bound, 2)
    gp = UnsignedGraph(len(prov), tuple(tuple(l) for l in lists), bound)
    return gp, tuple(prov)


# ---------------------------------------------------------------------------
# Witnesses and clusterings
# ---------------------------------------------------------------------------


class WitnessKind(IntEnum):
    BAD_CYCLE = 0            # cycle with exactly one negative edge
    ODD_NEGATIVE_CYCLE = 1   # cycle with an odd number of negative edges
    SIGNED_TRIANGLE = 2      # triangle matching a queried sign multiset


@dataclass(frozen=True)
class Witness:
    """A concrete forbidden substructure found in a graph.

    ``signs[i]`` is the sign of edge ``(nodes[i], nodes[(i+1) % len(nodes)])``;
    the closing edge is included, so len(signs) == len(nodes).
    """

    kind: WitnessKind
    nodes: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.signs):
            raise ValueError("witness needs one sign per cycle edge, closing edge included")

    def edge_pairs(self) -> Iterator[tuple[int, int, int]]:
        k = len(self.nodes)
        for i in range(k):
            yield self.nodes[i], self.nodes[(i + 1) % k], self.signs[i]


@dataclass(frozen=True)
class Clustering:
    """Partition of nodes into clusters 0..k-1; every id must be used."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("clustering needs at least one cluster")
        used = set(self.assignment)
        if used != set(range(self.k)):
            raise ValueError(f"cluster ids must be exactly 0..{self.k - 1}")

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "Clustering":
        """Relabel arbitrary hashable labels to 0..k-1 in first-seen order."""
        remap: dict[int, int] = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return cls(tuple(out), len(remap))

    def clusters(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for node, c in enumerate(self.assignment):
            groups[c].append(node)
        return groups
