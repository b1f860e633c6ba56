"""Checks the benchmark makes apart from the program.

Every verdict is judged here from the instance's edge set, never from the
program's own checkers: witnesses are walked edge by edge, ground truth for
whole-graph verdicts comes from networkx, and query counts are compared with
bounds derived from each tester's documented schedule. ``exact.verify_witness``
is called only to confirm that it agrees with the benchmark's checker, on a
throwaway graph so that the instance's lazy caches stay untouched.
"""

from __future__ import annotations

import math
from pathlib import Path

import networkx as nx

from signedtest import exact
from signedtest.core import SignedGraph, Witness, WitnessKind

# Captured at import, before tracing can patch them: checks never show up as
# spans and never pay the tracing cost.
_from_edges = SignedGraph.from_edges
_verify_witness = exact.verify_witness

PLUS, MINUS = "+", "-"
_KIND = {WitnessKind.BAD_CYCLE: "bad-cycle",
         WitnessKind.ODD_NEGATIVE_CYCLE: "odd-negative-cycle",
         WitnessKind.SIGNED_TRIANGLE: "signed-triangle"}


def token(sign) -> str:
    """'+' or '-' for a program Sign (PLUS == 0) or an already written token."""
    if isinstance(sign, str):
        return sign
    return PLUS if int(sign) == 0 else MINUS


def canon_witness(w) -> tuple | None:
    """(kind, nodes, signs) from a Witness or its JSON record; None stays None."""
    if w is None:
        return None
    if isinstance(w, Witness):
        return _KIND[w.kind], tuple(int(v) for v in w.nodes), "".join(token(s) for s in w.signs)
    return w["kind"], tuple(int(v) for v in w["nodes"]), "".join(w["signs"])


class EdgeSet:
    """Signed edges keyed by ordered pair, plus degrees: the instance as the
    benchmark sees it."""

    def __init__(self, n: int, edges):
        self.n = n
        self.sign: dict[tuple[int, int], str] = {}
        self.degree = [0] * n
        for u, v, s in edges:
            key = (u, v) if u < v else (v, u)
            self.sign[key] = token(s)
            self.degree[u] += 1
            self.degree[v] += 1

    @classmethod
    def of_graph(cls, g: SignedGraph) -> "EdgeSet":
        return cls(g.n, ((u, v, s) for u in range(g.n) for v, s in g.adj[u] if u < v))

    @classmethod
    def of_sgl(cls, path: Path) -> "EdgeSet":
        """Parse a canonical .sgl file without the program's reader."""
        with open(path, encoding="utf-8") as fh:
            n, m = (int(x) for x in fh.readline().split())
            edges = []
            for line in fh:
                u, v, s = line.split()
                edges.append((int(u), int(v), s))
        if len(edges) != m:
            raise ValueError(f"{path}: header says {m} edges, file has {len(edges)}")
        return cls(n, edges)

    def lookup(self, u: int, v: int) -> str | None:
        return self.sign.get((u, v) if u < v else (v, u))

    def fallback_queries(self, d: int) -> int:
        """Queries a whole-graph read costs: each row up to its first empty
        slot, or all d slots when the row is full."""
        return sum(min(deg + 1, d) for deg in self.degree)

    def is_balanced(self) -> bool:
        """Bipartiteness of the graph with every positive edge subdivided."""
        h = nx.Graph()
        h.add_nodes_from(range(self.n))
        for idx, ((u, v), s) in enumerate(self.sign.items()):
            if s == MINUS:
                h.add_edge(u, v)
            else:
                mid = self.n + idx
                h.add_edge(u, mid)
                h.add_edge(mid, v)
        return nx.is_bipartite(h)

    def is_clusterable(self) -> bool:
        """No negative edge inside a connected component of the positive subgraph."""
        pos = nx.Graph()
        pos.add_nodes_from(range(self.n))
        pos.add_edges_from(e for e, s in self.sign.items() if s == PLUS)
        comp = {}
        for cid, nodes in enumerate(nx.connected_components(pos)):
            for v in nodes:
                comp[v] = cid
        return all(comp[u] != comp[v] for (u, v), s in self.sign.items() if s == MINUS)


def witness_problem(w: tuple, lookup, n: int, pattern: str | None = None) -> str | None:
    """Why a canonical witness is not a forbidden substructure of the
    instance, or None when it is one."""
    kind, nodes, signs = w
    k = len(nodes)
    if len(signs) != k:
        return f"{k} nodes but {len(signs)} signs"
    if kind == "signed-triangle":
        if k != 3:
            return f"triangle with {k} nodes"
        if pattern is not None and sorted(signs) != sorted(pattern):
            return f"triangle {signs} does not match pattern {pattern}"
    elif k < 3:
        return f"cycle with {k} nodes"
    if len(set(nodes)) != k or not all(0 <= v < n for v in nodes):
        return f"nodes {nodes} repeat or fall outside 0..{n - 1}"
    for i in range(k):
        u, v = nodes[i], nodes[(i + 1) % k]
        actual = lookup(u, v)
        if actual != signs[i]:
            return f"edge ({u},{v}) is {actual!r} in the instance, witness says {signs[i]!r}"
    neg = signs.count(MINUS)
    if kind == "bad-cycle" and neg != 1:
        return f"bad cycle with {neg} negative edges"
    if kind == "odd-negative-cycle" and neg % 2 == 0:
        return f"odd-negative cycle with {neg} negative edges"
    return None


def row_lookup(g: SignedGraph):
    """Edge lookup by scanning adjacency rows; builds nothing on the graph."""
    def lookup(u: int, v: int) -> str | None:
        if not (0 <= u < g.n and 0 <= v < g.n):
            return None
        for x, s in g.adj[u]:
            if x == v:
                return token(s)
        return None
    return lookup


def program_agrees(n: int, w: Witness, lookup, own_problem: str | None) -> bool:
    """Does ``exact.verify_witness`` reach the benchmark's conclusion? It runs
    on the instance's edges among the witness nodes, which is all it reads."""
    nodes = sorted(set(int(v) for v in w.nodes if 0 <= v < n))
    edges = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            s = lookup(u, v)
            if s is not None:
                edges.append((u, v, s))
    valid = _verify_witness(_from_edges(n, edges), w) is None
    return valid == (own_problem is None)


def dense_triangle_samples(eps: float, c_t: float) -> int:
    return max(1, math.ceil(c_t / eps**3))


def bounded_triangle_samples(eps: float, c_t: float) -> int:
    return max(1, math.ceil(c_t / eps))
