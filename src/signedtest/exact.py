"""Exact decision procedures and brute-force distances for signed graphs.

These run in time polynomial (checkers) or exponential (distances) in the
graph size and serve as ground truth for the sublinear testers: balance,
clusterability, signed-triangle search, frustration indices, and witness
verification.

Balance and clusterability share one BFS forest. A violating edge (u, v)
closes the witness through ``forest_paths``, which the walk testers use too:
the cycle runs from the lowest common ancestor down to u, across to v, and up.
A CSRGraph with no rows yet and 2048+ row entries (generated, loaded, a dense
read) is checked on its arrays, node 0's tree first; others take the FIFO loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Clustering, CSRGraph, Sign, SignedGraph, Witness, WitnessKind, csr_entries

FRUSTRATION_MAX_NODES = 24
K_FRUSTRATION_MAX_NODES = 12
TRIANGLE_DISTANCE_MAX_NODES = 16


class SizeCapError(ValueError):
    """A brute-force solver was given a graph above its hard size cap."""


def triangle_pattern(spec: Sequence[Sign | str] | str) -> tuple[Sign, Sign, Sign]:
    """Canonicalize a triangle sign multiset, e.g. '++-' -> (PLUS, PLUS, MINUS)."""
    signs = tuple(Sign.from_token(p) if isinstance(p, str) else Sign(p) for p in spec)
    if len(signs) != 3:
        raise ValueError("a triangle pattern is exactly 3 signs")
    return tuple(sorted(signs))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Balance (every cycle has an even number of negative edges)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceResult:
    balanced: bool
    sides: tuple[int, ...] | None = None     # 2-coloring when balanced
    witness: Witness | None = None           # odd-negative cycle otherwise


def forest_paths(parent, u: int, v: int) -> tuple[list[int], list[int]]:
    """In a forest of parent links (list or dict, roots mapped to None) that
    holds u and v in one tree: the path from u up to their lowest common
    ancestor, that ancestor included, and the path from v up to its child."""
    up_u = [u]
    while (p := parent[up_u[-1]]) is not None:
        up_u.append(p)
    on_u = {x: i for i, x in enumerate(up_u)}
    up_v = []
    while v not in on_u:
        up_v.append(v)
        v = parent[v]
    return up_u[: on_u[v] + 1], up_v


_ARRAY_MIN_ENTRIES = 2048  # on fewer, rows built once and the FIFO loop cost less


def _arrays(g: SignedGraph):
    """The CSR arrays of a CSRGraph with no rows yet and 2m >= _ARRAY_MIN_ENTRIES, else None."""
    csr = isinstance(g, CSRGraph) and "adj" not in g._indexes and g._indexes["csr"]
    return csr if csr and csr[0][-1] >= _ARRAY_MIN_ENTRIES else None


def _bfs(g: SignedGraph, follow_negative: bool):
    """BFS forest over every edge, or the positive ones only: (parent, label,
    conflict). parent[v] is None at a root; label[v] = 2*root + parity, flipped
    by negative edges; conflict, the first followed edge whose labels disagree
    (never in the positive forest), else None. CSR arrays take _level_bfs."""
    if (csr := _arrays(g)) is not None:
        return _level_bfs(g.n, *csr, follow_negative)
    parent: list[int | None] = [None] * g.n
    label = [-1] * g.n
    for root in range(g.n):
        if label[root] != -1:
            continue
        label[root] = 2 * root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in g.adj[u]:
                if s and not follow_negative:
                    continue
                want = label[u] ^ s  # minus (1) flips the parity
                if label[v] == -1:
                    label[v] = want
                    parent[v] = u
                    queue.append(v)
                elif label[v] != want:
                    return parent, label, (u, v)
    return parent, label, None


def _level_bfs(n: int, indptr, nbr, sign, follow_negative: bool):
    """_bfs on CSR arrays a level at a time, rows in FIFO order: over every edge,
    node 0's tree alone up to its first level with a conflict, then, unless it has
    one or spans the graph, every other tree at once. The conflict is the first in
    the lowest tree with one; what the FIFO loop would not reach by then is unlabelled."""
    if not follow_negative:  # keep the positive entries only
        kept = np.flatnonzero(sign[:indptr[-1]] == 0)
        indptr, nbr, sign = np.searchsorted(kept, indptr), nbr[kept], sign[kept]
    deg, label, parent, stamp = np.diff(indptr), np.full(n, -1), np.full(n, -1), np.full(n, -1)
    frontier = np.zeros(int(follow_negative), dtype=np.int64)  # node 0, over every edge only
    label[frontier], firsts, done, every = 0, {}, 0, False
    while every or not firsts:  # firsts: each tree's first conflict, {root: (entry, u, v)}
        if not frontier.size:  # node 0's tree, if grown, is done and has no conflict
            if every or label.min() >= 0:
                break
            rows, low, comp = np.flatnonzero(deg), np.arange(n), None
            while comp is None or (low != comp).any():  # comp ends as each node's lowest reachable
                comp, low = low, low.copy()
                reach = np.minimum.reduceat(comp[nbr[:indptr[-1]]], indptr[rows])
                low[rows] = np.minimum(comp[rows], reach)
                low = low[low]
            frontier = np.flatnonzero((comp == np.arange(n)) & (label < 0))  # the roots, in order
            label[frontier], every = 2 * frontier, True
        src, d = np.repeat(frontier, deg[frontier]), deg[frontier]
        at = np.arange(len(src)) + np.repeat(indptr[frontier + 1] - np.cumsum(d), d)
        dst, want = nbr[at], label[src] ^ sign[at]
        new = np.flatnonzero((have := label[dst]) == -1)
        fresh, first, back = np.unique(dst[new], return_index=True, return_inverse=True)
        first = new[first]  # the entry of each new node's first arrival
        have[new] = want[first][back]
        bad = np.flatnonzero(have != want)
        for root, i in np.transpose(np.unique(label[src[bad]] >> 1, return_index=True)).tolist():
            firsts.setdefault(root, (done + bad[i], int(src[bad[i]]), int(dst[bad[i]])))
        label[fresh], parent[fresh], stamp[fresh] = want[first], src[first], done + first
        done, frontier = done + len(at), dst[np.sort(first)]
    if firsts:
        root, (entry, *conflict) = min(firsts.items())
        drop = ((tree := label >> 1) > root) | ((tree == root) & (stamp > entry))
        label[drop] = parent[drop] = -1
    return ([None if p < 0 else p for p in parent.tolist()], label.tolist(),
            tuple(conflict) if firsts else None)


def _cycle_witness(parent: list, label: list, u: int, v: int, kind: WitnessKind) -> Witness:
    """Close the non-tree edge (u, v) through the BFS forest: from the lowest
    common ancestor down to u, across to v, and back up. Each sign is the parity
    its ends' labels differ by, flipped on (u, v), so no row is read."""
    up_u, up_v = forest_paths(parent, u, v)
    nodes = up_u[::-1] + up_v
    signs = [(label[a] ^ label[b]) & 1 for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    signs[len(up_u) - 1] ^= 1
    return Witness(kind, tuple(nodes), tuple(signs))  # type: ignore[arg-type]


def is_balanced(g: SignedGraph) -> BalanceResult:
    """BFS 2-labeling: positive edges keep the label, negative edges flip it;
    the first conflicting edge closes an odd-negative cycle through the tree."""
    parent, label, conflict = _bfs(g, follow_negative=True)
    if conflict is not None:
        w = _cycle_witness(parent, label, *conflict, WitnessKind.ODD_NEGATIVE_CYCLE)
        return BalanceResult(False, None, w)
    return BalanceResult(True, tuple(x & 1 for x in label), None)


# ---------------------------------------------------------------------------
# Clusterability (no cycle with exactly one negative edge)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterabilityResult:
    clusterable: bool
    clustering: Clustering | None = None     # positive components when clusterable
    witness: Witness | None = None           # bad cycle otherwise


def positive_component_clustering(g: SignedGraph) -> Clustering:
    """Connected components of the positive subgraph, ids in discovery order."""
    return Clustering.from_labels(_bfs(g, follow_negative=False)[1])


def is_clusterable(g: SignedGraph) -> ClusterabilityResult:
    """A graph is clusterable iff no negative edge joins two nodes of the same
    positive component; the smallest violating edge closes a cycle with
    exactly one negative edge through the positive BFS forest."""
    parent, label, _ = _bfs(g, follow_negative=False)
    if (csr := _arrays(g)) is not None:  # the bad entries, read from the arrays
        (src, dst, sign), lab = csr_entries(g.n, *csr), np.asarray(label)
        at = (sign == 1) & (src < dst) & (lab[src] == lab[dst])
        edges = zip(src[at].tolist(), dst[at].tolist())
    else:
        edges = ((u, v) for u in range(g.n) for v, s in g.adj[u]
                 if s and u < v and label[u] == label[v])
    bad = min(edges, default=None)
    if bad is not None:
        w = _cycle_witness(parent, label, *bad, WitnessKind.BAD_CYCLE)
        return ClusterabilityResult(False, None, w)
    return ClusterabilityResult(True, Clustering.from_labels(label), None)


# ---------------------------------------------------------------------------
# Signed triangles
# ---------------------------------------------------------------------------


def _pattern_triangles(
    g: SignedGraph, pattern: Sequence[Sign | str] | str
) -> Iterator[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Every triangle u < v < w whose sign multiset equals the pattern, by (u, v),
    then by w's place in v's row, as ((u, v, w), (s_uv, s_vw, s_uw))."""
    want = triangle_pattern(pattern)
    for u, row in enumerate(g.adj):
        signs = dict(row)  # u's row only: no sign map of the whole graph
        for v, s_uv in sorted(e for e in row if e[0] > u):
            for w, s_vw in g.adj[v]:
                s_uw = signs.get(w) if w > v else None
                if s_uw is not None and tuple(sorted((s_uv, s_vw, s_uw))) == want:
                    yield (u, v, w), (s_uv, s_vw, s_uw)


def has_signed_triangle(
    g: SignedGraph, pattern: Sequence[Sign | str] | str
) -> Witness | None:
    """First triangle (in _pattern_triangles' order) whose sign multiset equals
    the pattern, or None."""
    for nodes, signs in _pattern_triangles(g, pattern):
        return Witness(WitnessKind.SIGNED_TRIANGLE, nodes, signs)
    return None


# ---------------------------------------------------------------------------
# Frustration indices (brute force, hard size caps)
# ---------------------------------------------------------------------------


def frustration_index(g: SignedGraph) -> int:
    """Minimum edge deletions to balance: min over bipartitions of
    (positive edges across) + (negative edges inside). Cap n <= 24."""
    if g.n > FRUSTRATION_MAX_NODES:
        raise SizeCapError(f"frustration_index caps at n={FRUSTRATION_MAX_NODES}, got {g.n}")
    edges = list(g.edges())
    if not edges or g.n == 1:
        return 0
    masks = np.arange(1 << (g.n - 1), dtype=np.uint32)  # node n-1 pinned to side 0
    viol = np.zeros(masks.shape, dtype=np.int32)
    for u, v, s in edges:
        cross = ((masks >> u) & 1) != ((masks >> v) & 1)
        viol += cross if s == Sign.PLUS else ~cross
    return int(viol.min())


def clustering_violations(g: SignedGraph, labels: Sequence[int]) -> int:
    """Edges a cluster labeling violates: positive across or negative inside,
    each counted once, from the row of its smaller end."""
    if (csr := _arrays(g)) is not None:  # every entry on the arrays, kept from its smaller end
        (src, dst, sign), lab = csr_entries(g.n, *csr), np.asarray(labels)
        return int(((lab[src] != lab[dst]) ^ (sign == 1))[src < dst].sum())
    bad = 0
    for u, row in enumerate(g.adj):
        for v, s in row:
            if u < v:
                bad += (labels[u] != labels[v]) ^ s  # a minus sign (1) flips the test
    return bad


def folded_components(g: SignedGraph, k: int) -> list[int]:
    """Positive components, folded into at most k labels: the clustering both
    k-frustration searches start from."""
    return [min(c, k - 1) for c in positive_component_clustering(g).assignment]


def k_frustration_index(g: SignedGraph, k: int) -> int:
    """Minimum edges violating a partition into at most k clusters
    (positive across or negative inside). Exact enumeration over canonical
    cluster labelings with branch-and-bound. Cap n <= 12."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n > K_FRUSTRATION_MAX_NODES:
        raise SizeCapError(f"k_frustration_index caps at n={K_FRUSTRATION_MAX_NODES}, got {g.n}")
    k = min(k, g.n)
    prev = [[(j, s) for j, s in g.adj[i] if j < i] for i in range(g.n)]
    best = clustering_violations(g, folded_components(g, k))  # the starting bound
    if best == 0:
        return 0
    assign = [0] * g.n
    n = g.n

    def rec(i: int, used: int, viol: int) -> None:
        nonlocal best
        if viol >= best:
            return
        if i == n:
            best = viol
            return
        for c in range(min(used + 1, k)):
            dv = 0
            for j, s in prev[i]:
                if s == Sign.PLUS:
                    dv += assign[j] != c
                else:
                    dv += assign[j] == c
            if dv:
                if viol + dv >= best:
                    continue
            assign[i] = c
            rec(i + 1, used + (c == used), viol + dv)

    rec(0, 0, 0)
    return best


def weak_frustration_index(g: SignedGraph) -> int:
    """Minimum edge deletions to clusterability: k-frustration with unbounded k."""
    return k_frustration_index(g, g.n)


def triangle_free_distance(g: SignedGraph, pattern: Sequence[Sign | str] | str) -> int:
    """Minimum edge deletions removing every pattern triangle (exact hitting
    set by branch and bound). Cap n <= 16."""
    if g.n > TRIANGLE_DISTANCE_MAX_NODES:
        raise SizeCapError(
            f"triangle_free_distance caps at n={TRIANGLE_DISTANCE_MAX_NODES}, got {g.n}"
        )
    triangles = [((u, v), (v, w), (u, w)) for (u, v, w), _ in _pattern_triangles(g, pattern)]
    best = len(triangles)  # deleting one edge per triangle always suffices

    def rec(deleted: frozenset[tuple[int, int]], count: int) -> None:
        nonlocal best
        if count >= best:
            return
        for tri in triangles:
            if not any(e in deleted for e in tri):
                for e in tri:
                    rec(deleted | {e}, count + 1)
                return
        best = count

    rec(frozenset(), 0)
    return best


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------


def verify_witness(g: SignedGraph, w: Witness) -> str | None:
    """Re-check every invariant of a witness against g. None means valid."""
    k = len(w.nodes)
    if w.kind is WitnessKind.SIGNED_TRIANGLE and k != 3:
        return f"triangle witness has {k} nodes"
    if k < 3:
        return f"cycle witness has only {k} nodes"
    if len(set(w.nodes)) != k:
        return "repeated node in cycle"
    csr = _arrays(g)
    for u, v, s in w.edge_pairs():
        if not (0 <= u < g.n and 0 <= v < g.n):
            return f"node out of range on edge ({u},{v})"
        row = g.adj[u] if csr is None else zip(*(a[csr[0][u]:csr[0][u + 1]].tolist() for a in csr[1:]))
        actual = next((t for x, t in row if x == v), None)  # a row scan: sign_of indexes all rows
        if actual is None:
            return f"missing edge ({u},{v})"
        if actual != s:
            return f"sign mismatch on edge ({u},{v})"
    negatives = sum(1 for s in w.signs if s == Sign.MINUS)
    if w.kind is WitnessKind.BAD_CYCLE and negatives != 1:
        return f"bad cycle needs exactly one negative edge, found {negatives}"
    if w.kind is WitnessKind.ODD_NEGATIVE_CYCLE and negatives % 2 == 0:
        return f"negative-edge count {negatives} is even"
    return None
