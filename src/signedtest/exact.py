"""Exact decision procedures and brute-force distances for signed graphs.

These run in time polynomial (checkers) or exponential (distances) in the
graph size and serve as ground truth for the sublinear testers: balance,
clusterability, signed-triangle search, frustration indices, the small-cluster
merge step, and witness verification.

Balance and clusterability share one BFS forest. A violating edge (u, v)
closes the witness through ``forest_paths``, which the walk testers use too:
the cycle runs from the lowest common ancestor down to u, across to v, and up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Clustering, Sign, SignedGraph, Witness, WitnessKind

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


def _bfs(g: SignedGraph, follow_negative: bool):
    """BFS forest over every edge, or the positive ones only: (parent, label,
    conflict). parent[v] is None at a root; label[v] = 2*root + parity, the
    parity flipped by negative edges. conflict is the first followed edge whose
    labels disagree (never on the positive-only forest), else None."""
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


def _cycle_witness(g: SignedGraph, parent: list, u: int, v: int, kind: WitnessKind) -> Witness:
    """Close the non-tree edge (u, v) through the BFS forest: from the lowest
    common ancestor down to u, across to v, and back up."""
    up_u, up_v = forest_paths(parent, u, v)
    nodes = up_u[::-1] + up_v
    signs = [_row_sign(g, a, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]
    return Witness(kind, tuple(nodes), tuple(signs))  # type: ignore[arg-type]


def is_balanced(g: SignedGraph) -> BalanceResult:
    """BFS 2-labeling: positive edges keep the label, negative edges flip it;
    the first conflicting edge closes an odd-negative cycle through the tree."""
    parent, label, conflict = _bfs(g, follow_negative=True)
    if conflict is not None:
        w = _cycle_witness(g, parent, *conflict, WitnessKind.ODD_NEGATIVE_CYCLE)
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
    bad = min(((u, v) for u in range(g.n) for v, s in g.adj[u]
               if s and u < v and label[u] == label[v]), default=None)
    if bad is not None:
        w = _cycle_witness(g, parent, *bad, WitnessKind.BAD_CYCLE)
        return ClusterabilityResult(False, None, w)
    return ClusterabilityResult(True, Clustering.from_labels(label), None)


# ---------------------------------------------------------------------------
# Signed triangles
# ---------------------------------------------------------------------------


def _pattern_triangles(
    g: SignedGraph, pattern: Sequence[Sign | str] | str
) -> Iterator[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Every triangle u < v < w whose sign multiset equals the pattern, in
    lexicographic node order, as ((u, v, w), (s_uv, s_vw, s_uw))."""
    want = triangle_pattern(pattern)
    for u, v, s_uv in g.edges():
        for w, s_vw in g.adj[v]:
            if w <= v:
                continue
            s_uw = g.sign_of(u, w)
            if s_uw is None:
                continue
            if tuple(sorted((s_uv, s_vw, s_uw))) == want:
                yield (u, v, w), (s_uv, s_vw, s_uw)


def has_signed_triangle(
    g: SignedGraph, pattern: Sequence[Sign | str] | str
) -> Witness | None:
    """First triangle (by lexicographic node order) whose sign multiset equals
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
    """Edges a cluster labeling violates: positive across or negative inside."""
    bad = 0
    for u, v, s in g.edges():
        if s == Sign.PLUS:
            bad += labels[u] != labels[v]
        else:
            bad += labels[u] == labels[v]
    return bad


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
    # positive components, folded into at most k labels, give the starting bound
    comp = positive_component_clustering(g).assignment
    best = clustering_violations(g, [min(c, k - 1) for c in comp])
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
# Cluster surgery
# ---------------------------------------------------------------------------


def merge_small_clusters(clustering: Clustering, n: int, eps: float) -> Clustering:
    """Keep clusters of size >= eps*n; greedily merge the rest (first-fit in
    cluster-id order) into groups of size in [eps*n, 2*eps*n), except possibly
    one undersized remainder. The result has at most ceil(1/eps) clusters."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n != len(clustering.assignment):
        raise ValueError("n disagrees with the clustering size")
    threshold = eps * n
    sizes = [0] * clustering.k
    for c in clustering.assignment:
        sizes[c] += 1
    remap: dict[int, int] = {}
    next_id = 0
    for cid in range(clustering.k):
        if sizes[cid] >= threshold:
            remap[cid] = next_id
            next_id += 1
    group_size = 0
    group_open = False
    for cid in range(clustering.k):
        if cid in remap:
            continue
        if not group_open:
            group_open = True
            group_size = 0
        remap[cid] = next_id
        group_size += sizes[cid]
        if group_size >= threshold:
            group_open = False
            next_id += 1
    if group_open:
        next_id += 1  # undersized remainder group
    merged = Clustering(tuple(remap[c] for c in clustering.assignment), next_id)
    # guaranteed by the size accounting; 1e-9 guards float noise in 1/eps
    assert merged.k <= int(np.ceil(1.0 / eps - 1e-9))
    return merged


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------


def _row_sign(g: SignedGraph, u: int, v: int) -> int | None:
    """Sign of edge (u, v) or None, by a scan of u's row (g.sign_of indexes all rows)."""
    return next((t for x, t in g.adj[u] if x == v), None)


def verify_witness(g: SignedGraph, w: Witness) -> str | None:
    """Re-check every invariant of a witness against g. None means valid."""
    k = len(w.nodes)
    if w.kind is WitnessKind.SIGNED_TRIANGLE and k != 3:
        return f"triangle witness has {k} nodes"
    if k < 3:
        return f"cycle witness has only {k} nodes"
    if len(set(w.nodes)) != k:
        return "repeated node in cycle"
    for u, v, s in w.edge_pairs():
        if not (0 <= u < g.n and 0 <= v < g.n):
            return f"node out of range on edge ({u},{v})"
        actual = _row_sign(g, u, v)
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
