"""Shared builders for the test suite."""

from __future__ import annotations

import itertools

from signedtest import bounded_testers as bt
from signedtest.core import Sign, SignedGraph, midpoint
from signedtest.exact import forest_paths
from signedtest.oracles import _chunked_draws, _chunked_integers

_PAIRS = {n: list(itertools.combinations(range(n), 2)) for n in range(1, 6)}


def make_graph(n, edges, d=None):
    return SignedGraph.from_edges(n, edges, degree_bound=d)


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
