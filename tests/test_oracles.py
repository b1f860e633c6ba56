"""Oracle query semantics and the seeded randomness source."""

from __future__ import annotations

import numpy as np
import pytest

from signedtest.core import Sign, SignedGraph
from signedtest.oracles import BoundedDegreeOracle, DenseOracle, RandomSource

from conftest import make_graph, random_signed_graph, triangle


class TestDenseOracle:
    def test_returns_signs_and_none(self):
        o = DenseOracle(make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS)]))
        assert o.query(0, 1) == Sign.PLUS
        assert o.query(2, 1) == Sign.MINUS
        assert o.query(0, 2) is None

    def test_symmetric(self):
        o = DenseOracle(triangle(Sign.PLUS, Sign.MINUS, Sign.MINUS))
        for u in range(3):
            for v in range(3):
                if u != v:
                    assert o.query(u, v) is o.query(v, u)

    def test_counts_every_query(self):
        o = DenseOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))
        for _ in range(7):
            o.query(0, 1)
        o.query(1, 2)
        assert o.query_count == 8

    def test_diagonal_rejected_and_uncharged(self):
        o = DenseOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))
        with pytest.raises(ValueError):
            o.query(1, 1)
        assert o.query_count == 0

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, 3), (3, 0), (0, -2)])
    def test_out_of_range_rejected_and_uncharged(self, u, v):
        o = DenseOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))
        with pytest.raises(ValueError):
            o.query(u, v)
        assert o.query_count == 0

    def test_fuzz_against_adjacency(self):
        rng = np.random.default_rng(7)
        g = random_signed_graph(rng, 30, p_edge=0.2)
        lookup = {}
        for u, v, s in g.edges():
            lookup[(u, v)] = s
            lookup[(v, u)] = s
        o = DenseOracle(g)
        pairs = rng.integers(0, 30, size=(100_000, 2))
        asked = 0
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                continue
            asked += 1
            assert o.query(u, v) is lookup.get((u, v))
        assert o.query_count == asked

    def test_induced_charges_every_pair_and_adds_edges_in_pair_order(self):
        rng = np.random.default_rng(3)
        g = random_signed_graph(rng, 12, p_edge=0.5)
        for nodes in ([5, 0, 11, 3, 7], [2, 9], [4], list(range(12))):
            o, ref = DenseOracle(g), DenseOracle(g)
            got = o.induced(nodes)
            k = len(nodes)
            assert o.query_count == k * (k - 1) // 2
            # reference: one query per pair, i < j, in the given node order
            edges = [(i, j, ref.query(nodes[i], nodes[j]))
                     for i in range(k) for j in range(i + 1, k)]
            expected = SignedGraph.from_edges(k, [e for e in edges if e[2] is not None])
            assert got == expected

    @pytest.mark.parametrize("nodes", [[0, 1, 0], [0, 3], [-1, 2], []])
    def test_induced_rejects_repeated_or_out_of_range_uncharged(self, nodes):
        o = DenseOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))
        with pytest.raises(ValueError):
            o.induced(nodes)
        assert o.query_count == 0


class TestBoundedDegreeOracle:
    def test_requires_degree_bound(self):
        with pytest.raises(ValueError):
            BoundedDegreeOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))

    def test_neighbor_slots_follow_load_order(self):
        # adjacency order is edge insertion order, and slots are 1-based
        g = make_graph(4, [(2, 0, Sign.MINUS), (0, 1, Sign.PLUS), (0, 3, Sign.MINUS)], d=3)
        o = BoundedDegreeOracle(g)
        assert o.query(0, 1) == (2, Sign.MINUS)
        assert o.query(0, 2) == (1, Sign.PLUS)
        assert o.query(0, 3) == (3, Sign.MINUS)

    def test_out_of_range_slot_returns_none_and_charges(self):
        g = make_graph(3, [(0, 1, Sign.PLUS)], d=2)
        o = BoundedDegreeOracle(g)
        assert o.query(0, 2) is None
        assert o.query(2, 1) is None
        assert o.query_count == 2

    def test_slot_beyond_bound_rejected(self):
        g = make_graph(3, [(0, 1, Sign.PLUS)], d=2)
        o = BoundedDegreeOracle(g)
        with pytest.raises(ValueError):
            o.query(0, 3)
        with pytest.raises(ValueError):
            o.query(0, 0)
        with pytest.raises(ValueError):
            o.query(3, 1)
        assert o.query_count == 0

    def test_fuzz_against_adjacency(self):
        rng = np.random.default_rng(11)
        g = random_signed_graph(rng, 25, p_edge=0.15)
        d = max(1, g.max_degree())
        g = SignedGraph.from_edges(g.n, [(u, v, s) for u, v, s in g.edges()], degree_bound=d)
        o = BoundedDegreeOracle(g)
        for _ in range(100_000):
            v = int(rng.integers(25))
            i = int(rng.integers(1, d + 1))
            got = o.query(v, i)
            row = g.adj[v]
            if i <= len(row):
                assert got == (row[i - 1][0], row[i - 1][1])
            else:
                assert got is None
        assert o.query_count == 100_000

    def test_neighbors_charges_each_slot_read_up_to_the_first_empty(self):
        g = make_graph(5, [(0, 1, Sign.PLUS), (0, 2, Sign.MINUS), (0, 3, Sign.PLUS),
                           (1, 2, Sign.MINUS)], d=3)
        o = BoundedDegreeOracle(g)
        for v, cost in ((0, 3), (1, 3), (3, 2), (4, 1)):  # full row costs d, else deg + 1
            before = o.query_count
            assert list(o.neighbors(v)) == list(g.adj[v])
            assert o.query_count - before == cost

    def test_neighbors_stopped_early_pays_only_for_slots_read(self):
        g = make_graph(4, [(0, 1, Sign.PLUS), (0, 2, Sign.MINUS), (0, 3, Sign.PLUS)], d=4)
        for j in (1, 2, 3):
            o = BoundedDegreeOracle(g)
            pairs = o.neighbors(0)
            assert [next(pairs) for _ in range(j)] == list(g.adj[0][:j])
            assert o.query_count == j

    def test_neighbors_out_of_range_rejected_and_uncharged(self):
        o = BoundedDegreeOracle(make_graph(3, [(0, 1, Sign.PLUS)], d=2))
        for v in (-1, 3):
            with pytest.raises(ValueError):
                next(o.neighbors(v))
        assert o.query_count == 0


class TestRandomSource:
    def test_same_seed_same_draws(self):
        a = RandomSource(42).stream(3, 1)
        b = RandomSource(42).stream(3, 1)
        assert np.array_equal(a.integers(0, 100, 50), b.integers(0, 100, 50))

    def test_streams_independent_of_consumption_order(self):
        src = RandomSource(9)
        first = src.stream(0)
        _ = first.random(1000)  # burn
        later = src.stream(1).random(5)
        fresh = RandomSource(9).stream(1).random(5)
        assert np.array_equal(later, fresh)

    def test_distinct_paths_distinct_streams(self):
        src = RandomSource(5)
        a = src.stream(0).random(20)
        b = src.stream(1).random(20)
        assert not np.array_equal(a, b)

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(1 << 64)
