"""Shared builders for the test suite, and the references tests compare
against: the explicit positive-edge subdivision G2, which the walk testers
never build, the small-cluster merge behind the dense tester's k, and the
one-walk-at-a-time and row-scoring forms of the testers' inner loops."""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass

import numpy as np

from signedtest import bounded_testers as bt
from signedtest import exact
from signedtest.core import Clustering, Sign, SignedGraph, csr_rows, midpoint, save_edge_list
from signedtest.dense_testers import LOCAL_SEARCH_MOVE_FACTOR, LOCAL_SEARCH_RESTARTS
from signedtest.exact import forest_paths
from signedtest.oracles import _chunked_draws, _chunked_integers

_PAIRS = {n: list(itertools.combinations(range(n), 2)) for n in range(1, 6)}


def make_graph(n, edges, d=None):
    return SignedGraph.from_edges(n, edges, degree_bound=d)


def assert_csr_of_rows(csr, adj) -> None:
    """csr equals, array by array and dtype by dtype, the CSR arrays that
    csr_rows builds from the rows adj."""
    want = csr_rows(adj, {})
    assert [a.dtype for a in csr] == [b.dtype for b in want]
    assert all(np.array_equal(a, b) for a, b in zip(csr, want))


def sgl_text(g):
    """g as the .sgl text save_edge_list writes."""
    buf = io.StringIO()
    save_edge_list(g, buf)
    return buf.getvalue()


def triangle(s01, s12, s02, d=None):
    """Triangle on {0,1,2}; signs given for edges (0,1), (1,2), (0,2)."""
    return make_graph(3, [(0, 1, s01), (1, 2, s12), (0, 2, s02)], d)


def all_signed_graphs(n):
    """Every simple signed graph on n labeled nodes (each pair absent/+/-)."""
    for combo in itertools.product((None, Sign.PLUS, Sign.MINUS), repeat=len(_PAIRS[n])):
        edges = [(u, v, s) for (u, v), s in zip(_PAIRS[n], combo) if s is not None]
        yield SignedGraph.from_edges(n, edges)


def random_signed_graph(rng, n, p_edge=0.5, p_minus=0.5, max_positive=None):
    """Random simple signed graph; optionally cap the positive edge count
    (extra positives are flipped to negative, keeping the edge set)."""
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p_edge:
            s = Sign.MINUS if rng.random() < p_minus else Sign.PLUS
            edges.append([u, v, s])
    if max_positive is not None:
        pos_idx = [i for i, e in enumerate(edges) if e[2] is Sign.PLUS]
        if len(pos_idx) > max_positive:
            rng.shuffle(pos_idx)
            for i in pos_idx[max_positive:]:
                edges[i][2] = Sign.MINUS
    return SignedGraph.from_edges(n, [tuple(e) for e in edges])


def parity_search_walking_one_walk_at_a_time(o, p, rng):
    """Reference balance search: the walks of one start run one after another,
    one oracle query per step, and the search stops at the first move that
    reaches a node with the other parity."""
    s = bt._draw_start(o, rng)
    if s is None:
        return None
    parent = {2 * s: None}
    steps = p.walks_per_start * p.walk_length
    draws = zip(_chunked_integers(rng, 1, o.d + 1, steps), _chunked_draws(rng.random, steps))
    for _ in range(p.walks_per_start):
        x, state = s, 2 * s
        for slot, coin in itertools.islice(draws, p.walk_length):
            nxt = gprime_step(o, x, slot, coin)
            if nxt == x:
                continue
            x, prev = nxt, state
            state = 2 * x + ((prev & 1) ^ 1)
            parent.setdefault(state, prev)
            if state ^ 1 in parent:
                up, down = forest_paths(parent, state, state ^ 1)
                cyc = [t >> 1 for t in up + down[::-1]][:-1]
                assert len(set(cyc)) == len(cyc), "the closed walk repeats a node"
                return bt._contract_to_g_cycle(cyc, o.n)
    return None


def gprime_step(o, x, slot, coin):
    """One lazy step on G2 from node id x, one query from an original node:
    empty slot -> stay, negative edge -> the neighbor, positive edge -> its
    midpoint; a midpoint moves to its smaller end when coin*d < 1, to its
    larger when coin*d < 2, else stays."""
    n = o.n
    if x < n:
        res = o.query(x, slot)
        if res is None:
            return x
        v, sign = res
        return v if sign else midpoint(n, x, v)
    if coin * o.d < 2.0:
        u, v = divmod(x - n, n)
        return u if coin * o.d < 1.0 else v
    return x


def local_search_scoring_each_candidate_from_its_row(g, k, rng):
    """Reference dense local search: every candidate cluster of a node is
    scored by a pass over the node's row, and the start count comes from
    exact.clustering_violations."""
    n = g.n
    k = min(k, max(n, 1))
    if n == 0 or k < 1:
        return 0

    def delta_for(assign, v, target):
        d = 0
        for u, s in g.adj[v]:
            before = assign[u] == assign[v]
            after = assign[u] == target
            if s == Sign.PLUS:
                d += (not after) - (not before)
            else:
                d += after - before
        return d

    best = None
    move_budget = LOCAL_SEARCH_MOVE_FACTOR * n * k
    for restart in range(LOCAL_SEARCH_RESTARTS):
        if restart == 0:
            # positive components, folded into at most k labels
            comp = exact.positive_component_clustering(g).assignment
            assign = [min(c, k - 1) for c in comp]
        else:
            assign = [int(x) for x in rng.integers(0, k, size=n)]
        sizes = [0] * k
        for c in assign:
            sizes[c] += 1
        # lazy stack of empty cluster ids (entries may go stale after moves)
        empties = [c for c in range(k - 1, -1, -1) if sizes[c] == 0]
        cur = exact.clustering_violations(g, assign)
        improved = True
        while improved and move_budget > 0:
            improved = False
            for v in rng.permutation(n):
                v = int(v)
                candidates = {assign[u] for u, _ in g.adj[v]}
                while empties and sizes[empties[-1]] != 0:
                    empties.pop()
                if empties:
                    candidates.add(empties[-1])
                candidates.discard(assign[v])
                for target in candidates:
                    move_budget -= 1
                    d = delta_for(assign, v, target)
                    if d < 0:
                        old = assign[v]
                        assign[v] = target
                        sizes[old] -= 1
                        sizes[target] += 1
                        if sizes[old] == 0:
                            empties.append(old)
                        cur += d
                        improved = True
                        break
                if move_budget <= 0:
                    break
        if best is None or cur < best:
            best = cur
        if best == 0:
            break
    return int(best)


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
