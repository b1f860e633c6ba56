"""Differential fuzzing on random signed edge lists with at most 10 nodes.

Each property compares the library with a reference that shares none of its
code: the edge list as drawn, a networkx graph, or a plain re-parse.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedtest import bounded_testers as bt
from signedtest import dense_testers as dt
from signedtest.core import (
    GraphFormatError,
    Sign,
    SignedGraph,
    WitnessKind,
    dumps_edge_list,
    load_edge_list,
    midpoint,
)
from signedtest.exact import is_balanced, is_clusterable
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

from conftest import parity_search_walking_one_walk_at_a_time

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# every accepted way to write a sign (Sign.PLUS == 0 and hashes alike, so a
# dict of them would keep only one of the two), and the int stored for it
SIGN_FORMS = ["+", "-", 0, 1, Sign.PLUS, Sign.MINUS]


def _stored(s) -> int:
    return "+-".index(s) if isinstance(s, str) else int(s)


@st.composite
def edge_lists(draw, min_nodes=1):
    """(n, edges): distinct pairs in random order and orientation, each with
    a sign written in one of the accepted forms."""
    n = draw(st.integers(min_nodes, 10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(SIGN_FORMS))))
    return n, edges


@st.composite
def corrupted_edge_lists(draw):
    """(n, edges, degree_bound): a valid list of int-signed edges with up to
    three bad ones inserted anywhere (an endpoint out of range, a self-loop,
    a pair already listed, a sign other than 0 or 1), and a bound that may be
    below the maximum degree."""
    n, edges = draw(edge_lists())
    edges = [(u, v, _stored(s)) for u, v, s in edges]
    for _ in range(draw(st.integers(0, 3))):
        w = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["endpoint", "loop", "duplicate", "sign"]))
        if kind == "endpoint":
            bad = (w, draw(st.sampled_from([-1, n, n + 7])), 0)
        elif kind == "loop":
            bad = (w, w, 1)
        elif kind == "duplicate" and edges:
            u, v, s = draw(st.sampled_from(edges))
            bad = (v, u, 1 - s) if draw(st.booleans()) else (u, v, s)
        else:
            bad = (w, (w + 1) % n, draw(st.sampled_from([-1, 2, 255])))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges, draw(st.none() | st.integers(1, 6))


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


def _subdivision_is_bipartite(n, edges) -> bool:
    """networkx bipartiteness of the graph with every positive edge subdivided."""
    sub = nx.Graph()
    sub.add_nodes_from(range(n))
    for u, v, s in edges:
        if _stored(s) == Sign.PLUS:
            sub.add_edges_from([(u, ("mid", u, v)), (("mid", u, v), v)])
        else:
            sub.add_edge(u, v)
    return nx.is_bipartite(sub)


def _no_negative_edge_inside_a_positive_component(n, edges) -> bool:
    pos = nx.Graph()
    pos.add_nodes_from(range(n))
    pos.add_edges_from((u, v) for u, v, s in edges if _stored(s) == Sign.PLUS)
    comp = {v: i for i, c in enumerate(nx.connected_components(pos)) for v in c}
    return all(comp[u] != comp[v] for u, v, s in edges if _stored(s) == Sign.MINUS)


@FUZZ
@given(edge_lists())
def test_balance_matches_bipartite_subdivision(case):
    n, edges = case
    want = _subdivision_is_bipartite(n, edges)
    assert is_balanced(SignedGraph.from_edges(n, edges)).balanced == want


@FUZZ
@given(edge_lists())
def test_clusterable_iff_no_negative_edge_inside_a_positive_component(case):
    n, edges = case
    want = _no_negative_edge_inside_a_positive_component(n, edges)
    assert is_clusterable(SignedGraph.from_edges(n, edges)).clusterable == want


# short walks, few of them: small graphs then reject often on the walk path
WALKS_ONLY = bt.BoundedConstants(allow_exact_fallback=False, c1=1.0, c2=2e-2, c3=5e-2,
                                 c4=2.0, c5=2.0, c6=4.0, walk_len_log_exponent=0)


def _assert_cycle_in(edges, w, negatives_ok) -> None:
    """w is a simple cycle of the drawn edge list, with its signs as drawn."""
    sign = {}
    for u, v, s in edges:
        sign[u, v] = sign[v, u] = _stored(s)
    assert len(w.nodes) >= 3 and len(set(w.nodes)) == len(w.nodes)
    assert [sign.get((u, v)) for u, v, _ in w.edge_pairs()] == list(w.signs)
    assert negatives_ok(sum(w.signs))


def test_walk_testers_are_one_sided_and_their_witnesses_hold():
    rejects = Counter()

    @FUZZ
    @given(edge_lists(min_nodes=2), st.integers(0, 2**32 - 1))
    def check(case, seed):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        g = SignedGraph.from_edges(n, edges, degree_bound=d)
        bal = bt.test_balance_bounded(BoundedDegreeOracle(g), 0.9, seed, WALKS_ONLY)
        clu = bt.test_clusterability_bounded(BoundedDegreeOracle(g), 0.9, seed, WALKS_ONLY)
        assert not bal.exact_fallback and not clu.exact_fallback
        if not bal.accept:
            assert not _subdivision_is_bipartite(n, edges)
            assert bal.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
            _assert_cycle_in(edges, bal.witness, lambda k: k % 2 == 1)
            rejects["balance"] += 1
        if not clu.accept:
            assert not _no_negative_edge_inside_a_positive_component(n, edges)
            assert clu.witness.kind is WitnessKind.BAD_CYCLE
            _assert_cycle_in(edges, clu.witness, lambda k: k == 1)
            rejects["clusterability"] += 1

    check()
    # the witness checks above ran on both testers
    assert rejects["balance"] > 0 and rejects["clusterability"] > 0


def test_lockstep_parity_search_matches_walking_one_walk_at_a_time():
    seen = Counter()

    # tiny groups and blocks split the walks the way long schedules do
    @FUZZ
    @given(edge_lists(min_nodes=2), st.integers(1, 60), st.integers(1, 30),
           st.integers(1, 64), st.integers(1, 512), st.integers(0, 2**32 - 1), st.data())
    def check(case, walks, length, group_walks, group_steps, seed, data):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        g = SignedGraph.from_edges(n, edges, degree_bound=d)
        mids = [midpoint(n, min(u, v), max(u, v)) for u, v, s in edges if _stored(s) == Sign.PLUS]
        start = data.draw(st.sampled_from(mids) if mids and data.draw(st.booleans())
                          else st.integers(0, n - 1))
        p = bt.WalkParams(starts=1, walks_per_start=walks, walk_length=length)
        lockstep, stepping = BoundedDegreeOracle(g), BoundedDegreeOracle(g)
        with mock.patch.multiple(bt, _draw_start=lambda o, rng: start,
                                 _GROUP_WALKS=group_walks, _GROUP_STEPS=group_steps):
            got = bt._parity_search(lockstep, p, np.random.default_rng(seed))
            want = parity_search_walking_one_walk_at_a_time(stepping, p, np.random.default_rng(seed))
        assert got == want
        if got is None:
            assert lockstep.query_count == stepping.query_count
        else:
            assert lockstep.query_count >= stepping.query_count
            seen["reject"] += 1
        seen["midpoint start" if start >= n else "original start"] += 1

    check()
    assert min(seen[k] for k in ("reject", "midpoint start", "original start")) > 0


def _has_triangle(n, edges, pattern) -> bool:
    """A triangle of the drawn edge list with the pattern's sign multiset."""
    sign = {}
    for u, v, s in edges:
        sign[u, v] = sign[v, u] = _stored(s)
    want = sorted("+-".index(c) for c in pattern)
    return any(sorted((sign.get((a, b)), sign.get((b, c)), sign.get((a, c)))) == want
               for a, b, c in itertools.combinations(range(n), 3)
               if (a, b) in sign and (b, c) in sign and (a, c) in sign)


def test_triangle_and_dense_balance_testers_are_one_sided_and_their_witnesses_hold():
    rejects = Counter()

    @FUZZ
    @given(edge_lists(min_nodes=3), st.sampled_from(["+++", "++-", "+--", "---"]),
           st.integers(0, 2**32 - 1))
    def check(case, pattern, seed):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        dense = SignedGraph.from_edges(n, edges)
        triangles = {
            "dense triangle": dt.test_triangle_dense(DenseOracle(dense), pattern,
                                                     dt.DenseParams(eps=0.9, seed=seed)),
            "bounded triangle": bt.test_triangle_bounded(
                BoundedDegreeOracle(SignedGraph.from_edges(n, edges, degree_bound=d)),
                pattern, 0.9, seed),
        }
        for name, v in triangles.items():
            if not v.accept:
                assert _has_triangle(n, edges, pattern)
                assert v.witness.kind is WitnessKind.SIGNED_TRIANGLE
                _assert_cycle_in(edges, v.witness, lambda k: k == pattern.count("-"))
                rejects[name] += 1
        bal = dt.test_balance_dense(DenseOracle(dense), 0.9, seed)
        if not bal.accept:
            assert not _subdivision_is_bipartite(n, edges)
            assert bal.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
            _assert_cycle_in(edges, bal.witness, lambda k: k % 2 == 1)
            rejects["dense balance"] += 1

    check()
    # the witness checks above ran on all three testers
    assert min(rejects[k] for k in ("dense triangle", "bounded triangle", "dense balance")) > 0


@FUZZ
@given(corrupted_edge_lists())
def test_from_arrays_builds_or_rejects_as_from_edges_does(case):
    n, edges, bound = case
    cols = [np.array([e[i] for e in edges], dtype=np.int64) for i in range(3)]
    try:
        want = SignedGraph.from_edges(n, edges, bound)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            SignedGraph.from_arrays(n, *cols, bound)
        assert str(got.value) == str(exc)
        return
    got = SignedGraph.from_arrays(n, *cols, bound)
    assert got == want and repr(got.adj) == repr(want.adj)
