"""Differential fuzzing on random signed edge lists with at most 10 nodes.

Each property compares the library with a reference that shares none of its
code: the edge list as drawn, a networkx graph, or a plain re-parse.
"""

from __future__ import annotations

import io
import itertools

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from signedtest.core import Sign, SignedGraph, dumps_edge_list, load_edge_list
from signedtest.exact import is_balanced, is_clusterable
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# every accepted way to write a sign (Sign.PLUS == 0 and hashes alike, so a
# dict of them would keep only one of the two), and the int stored for it
SIGN_FORMS = ["+", "-", 0, 1, Sign.PLUS, Sign.MINUS]


def _stored(s) -> int:
    return "+-".index(s) if isinstance(s, str) else int(s)


@st.composite
def edge_lists(draw):
    """(n, edges): distinct pairs in random order and orientation, each with
    a sign written in one of the accepted forms."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(SIGN_FORMS))))
    return n, edges


def _rows(n, edges):
    """Expected adjacency: (neighbor, stored sign) in edge insertion order."""
    rows = [[] for _ in range(n)]
    for u, v, s in edges:
        rows[u].append((v, _stored(s)))
        rows[v].append((u, _stored(s)))
    return rows


@FUZZ
@given(edge_lists())
def test_sgl_roundtrip_is_byte_identical(case):
    n, edges = case
    text = dumps_edge_list(SignedGraph.from_edges(n, edges))
    assert dumps_edge_list(load_edge_list(io.StringIO(text))) == text
    lines = text.splitlines()
    assert lines[0] == f"{n} {len(edges)}"
    want = sorted((min(u, v), max(u, v), "+-"[_stored(s)]) for u, v, s in edges)
    assert [tuple(line.split()) for line in lines[1:]] == [(str(u), str(v), t) for u, v, t in want]


@FUZZ
@given(edge_lists())
def test_oracles_return_the_input_signs_in_insertion_order(case):
    n, edges = case
    rows = _rows(n, edges)
    d = max(1, max(len(r) for r in rows))
    bounded = BoundedDegreeOracle(SignedGraph.from_edges(n, edges, degree_bound=d))
    for v in range(n):
        got = list(bounded.neighbors(v))
        assert got == rows[v]
        assert all(type(s) is int for _, s in got)
    dense = DenseOracle(SignedGraph.from_edges(n, edges))
    stored = {(u, w): s for u in range(n) for w, s in rows[u]}
    for u, w in itertools.permutations(range(n), 2):
        assert dense.query(u, w) == stored.get((u, w))
        assert dense.query(u, w) is None or type(dense.query(u, w)) is int


@FUZZ
@given(edge_lists())
def test_balance_matches_bipartite_subdivision(case):
    n, edges = case
    sub = nx.Graph()
    sub.add_nodes_from(range(n))
    for u, v, s in edges:
        if _stored(s) == Sign.PLUS:
            sub.add_edges_from([(u, ("mid", u, v)), (("mid", u, v), v)])
        else:
            sub.add_edge(u, v)
    assert is_balanced(SignedGraph.from_edges(n, edges)).balanced == nx.is_bipartite(sub)


@FUZZ
@given(edge_lists())
def test_clusterable_iff_no_negative_edge_inside_a_positive_component(case):
    n, edges = case
    pos = nx.Graph()
    pos.add_nodes_from(range(n))
    pos.add_edges_from((u, v) for u, v, s in edges if _stored(s) == Sign.PLUS)
    comp = {v: i for i, c in enumerate(nx.connected_components(pos)) for v in c}
    want = all(comp[u] != comp[v] for u, v, s in edges if _stored(s) == Sign.MINUS)
    assert is_clusterable(SignedGraph.from_edges(n, edges)).clusterable == want
