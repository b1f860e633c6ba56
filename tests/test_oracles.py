"""Oracle query semantics and the seeded randomness source."""

from __future__ import annotations

import gc
import itertools
import re
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from signedtest import bounded_testers, dense_testers, oracles
from signedtest.core import CSRGraph, Sign, SignedGraph, _csr_adj
from signedtest.generators import (BALANCED_TWO_SIDE, CLUSTERABLE_COMMUNITIES, FAMILIES,
                                   GenSpec, generate)
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

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, 3), (3, 0), (0, -2),
                                     (0.0, 1), (0, 1.0), (1.5, 0), (True, 0)])
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
        small = random_signed_graph(rng, 12, p_edge=0.5)
        # nodes 130..199 have no edges, so their rows are empty
        large = SignedGraph.from_edges(200, random_signed_graph(rng, 130, p_edge=0.2).edges())
        above = [  # reads that take the array path
            sorted(rng.choice(200, size=80, replace=False).tolist()),
            rng.permutation(200)[:120].tolist(),
            list(range(200)),
            list(range(199, 129, -1)),
            [*range(130, 170), *range(0, 30)],
        ]
        assert min(map(len, above)) >= oracles._ARRAY_READ_MIN
        cases = [(small, nodes) for nodes in ([5, 0, 11, 3, 7], [2, 9], [4], list(range(12)))]
        for g, nodes in cases + [(large, nodes) for nodes in above]:
            o, ref = DenseOracle(g), DenseOracle(g)
            got = o.induced(nodes)
            k = len(nodes)
            assert o.query_count == k * (k - 1) // 2
            # reference: one query per pair, i < j, in the given node order
            edges = [(i, j, ref.query(nodes[i], nodes[j]))
                     for i in range(k) for j in range(i + 1, k)]
            expected = SignedGraph.from_edges(k, [e for e in edges if e[2] is not None])
            assert got == expected

    @pytest.mark.parametrize("n, nodes", [
        (3, [0, 1, 0]), (3, [0, 3]), (3, [-1, 2]), (3, []), (3, [0.0, 1.0]),
        (3, [0, True]), (3, [0, np.True_]),
        (70, [*range(70), 5]), (70, [*range(1, 70), 70]), (70, [float(v) for v in range(70)]),
        (70, [0, *range(2, 70), True]),
    ], ids=["repeated", "above-n", "negative", "empty", "float-loop-read",
            "bool-loop-read", "numpy-bool-loop-read",
            "repeated-array-read", "above-n-array-read", "float-array-read", "bool-array-read"])
    def test_induced_rejects_repeated_or_out_of_range_uncharged(self, n, nodes):
        g = make_graph(n, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS), (0, 2, Sign.MINUS)])
        o = DenseOracle(g)
        built = dict(g._indexes)
        with pytest.raises(ValueError):
            o.induced(nodes)
        assert o.query_count == 0
        # nor did the read build anything beyond the cells made at construction
        assert g._indexes == built and list(built) == ["cells"]

    def test_complete_graph_gets_cells_from_its_arrays_and_no_rows(self):
        g, _ = generate(GenSpec(BALANCED_TWO_SIDE, 1000, seed=1))
        o = DenseOracle(g)
        assert sorted(g._indexes) == ["cells", "csr"]  # no "adj": the rows were never built
        assert "_sign_map" not in vars(g) and "adj" not in vars(g)
        cells = g._indexes["cells"]
        assert type(cells) is bytes and len(cells) == 1000 * 1000
        indptr, nbr, sign = g._indexes["csr"]
        for at in (0, indptr[1] - 1):  # node 0's first and last neighbour
            assert o.query(0, int(nbr[at])) == int(sign[at]) == cells[nbr[at]] - 1
        assert sorted(g._indexes) == ["cells", "csr"]

    def test_oracles_on_one_graph_share_its_cells(self):
        for g in (generate(GenSpec(BALANCED_TWO_SIDE, 100, seed=1))[0],
                  make_graph(4, [(0, 1, Sign.PLUS), (2, 3, Sign.MINUS)])):
            first, second = DenseOracle(g), DenseOracle(g)
            assert first._cells is second._cells is g._indexes["cells"]

    def test_graph_above_the_cap_is_read_from_its_arrays(self):
        n = oracles._CELLS_MAX_N + 904
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, n, seed=2, d=6, k=10))
        o = DenseOracle(g)
        rng = np.random.default_rng(5)
        indptr, nbr, _ = g._indexes["csr"]
        src = np.repeat(np.arange(n), np.diff(indptr))
        pairs = [*zip(src[::97].tolist(), nbr[:-1:97].tolist()),  # edges, both ways round
                 *(p for p in rng.integers(0, n, size=(300, 2)).tolist() if p[0] != p[1])]
        samples = [rng.choice(n, size=k, replace=False).tolist() for k in (2, 40, 64, 400)]
        samples.append([*nbr[indptr[7]:indptr[8]].tolist(), 7])  # a node and its neighbours
        answers = [o.query(u, v) for u, v in pairs]
        reads = [o.induced(nodes) for nodes in samples]
        assert list(g._indexes) == ["csr"] and "_sign_map" not in vars(g) and "adj" not in vars(g)
        assert o._cells is None
        with mock.patch.object(oracles, "_CELLS_MAX_N", n):
            ref = DenseOracle(g)
        assert "cells" in g._indexes
        assert answers == [ref.query(u, v) for u, v in pairs]
        assert None in answers and 0 in answers and 1 in answers
        assert all(type(a) is int for a in answers if a is not None)
        assert reads == [ref.induced(nodes) for nodes in samples]
        assert reads[-1].num_edges >= indptr[8] - indptr[7] > 0 and o.query_count == ref.query_count


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
        for v, i in ((1.0, 1), (0, 1.0), (0, True)):  # ids that are not integers
            with pytest.raises(ValueError, match="integer"):
                o.query(v, i)
        assert o.query_count == 0

    def test_fuzz_against_adjacency(self):
        rng = np.random.default_rng(11)
        g = random_signed_graph(rng, 25, p_edge=0.15)
        d = max(1, max(map(len, g.adj)))
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
            assert o.neighbors(v) is g.adj[v]  # the stored row, not a copy
            assert o.query_count - before == cost

    def test_neighbors_out_of_range_rejected_and_uncharged(self):
        g = make_graph(3, [(0, 1, Sign.PLUS)], d=2)
        o = BoundedDegreeOracle(g)
        for v in (-1, 3):
            with pytest.raises(ValueError):
                o.neighbors(v)
        for v in (True, 1.0, np.float64(1), np.bool_(True)):  # ids that are not integers
            with pytest.raises(ValueError, match="integer"):
                o.neighbors(v)
        assert o.query_count == 0
        assert o.neighbors(np.int64(1)) is g.adj[1] and o.query_count == 2


    @pytest.mark.parametrize("g", [
        make_graph(5, [(0, 1, Sign.PLUS), (0, 2, Sign.MINUS), (0, 3, Sign.PLUS),
                       (1, 2, Sign.MINUS)], d=3),
        SignedGraph.from_edges(3, [], degree_bound=2),
    ], ids=["short rows", "no edges"])
    def test_query_batch_answers_every_entry_as_query_does_at_one_query_each(self, g):
        # every (node, slot) pair twice, empty slots included
        entries = list(itertools.product(range(g.n), range(1, g.degree_bound + 1))) * 2
        o, ref = BoundedDegreeOracle(g), BoundedDegreeOracle(g)
        nbrs, signs = o.query_batch(*zip(*entries))
        assert o.query_count == len(entries)
        assert signs.dtype == np.int8
        got = [None if w < 0 else (w, s) for w, s in zip(nbrs.tolist(), signs.tolist())]
        assert got == [ref.query(v, i) for v, i in entries]

    def test_query_batch_fuzz_against_adjacency(self):
        rng = np.random.default_rng(12)
        g = random_signed_graph(rng, 25, p_edge=0.15)
        d = max(1, max(map(len, g.adj)))
        g = SignedGraph.from_edges(g.n, list(g.edges()), degree_bound=d)
        nodes, slots = rng.integers(25, size=10_000), rng.integers(1, d + 1, size=10_000)
        o = BoundedDegreeOracle(g)
        nbrs, signs = o.query_batch(nodes, slots)
        for v, i, w, s in zip(nodes.tolist(), slots.tolist(), nbrs.tolist(), signs.tolist()):
            row = g.adj[v]
            assert (w, s) == (row[i - 1] if i <= len(row) else (-1, -1))
        assert o.query_count == 10_000

    @pytest.mark.parametrize("nodes, slots", [
        ([0, 3], [1, 1]), ([-1, 0], [1, 1]), ([0, 1], [1, 0]), ([2, 0], [1, 3]),
        ([0, 1], [1]), ([1.7], [1]), ([1], [1.9]), ([True], [1]),
        ([0, True], [1, 1]), ([0, 1], [True, 1]), ([0, np.True_], [1, 1]),
    ])
    def test_query_batch_rejects_any_bad_entry_uncharged(self, nodes, slots):
        o = BoundedDegreeOracle(make_graph(3, [(0, 1, Sign.PLUS)], d=2))
        with pytest.raises(ValueError):
            o.query_batch(nodes, slots)
        assert o.query_count == 0

    def test_empty_query_batch_costs_nothing(self):
        o = BoundedDegreeOracle(make_graph(3, [(0, 1, Sign.PLUS)], d=2))
        nbrs, signs = o.query_batch([], [])
        assert nbrs.size == signs.size == 0 and o.query_count == 0

    def test_query_batch_index_is_built_once_per_graph_at_the_first_batch_read(self):
        g = make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS)], d=2)
        first, second = BoundedDegreeOracle(g), BoundedDegreeOracle(g)
        first.query(0, 1)
        first.neighbors(1)
        assert not g._indexes
        first.query_batch([0], [1])
        index = g._indexes["csr"]
        indptr, nbr, sign = index
        assert (indptr.dtype, nbr.dtype, sign.dtype) == (np.int64, np.int64, np.int8)
        assert indptr.tolist() == [0, 1, 3, 4]
        assert nbr.tolist() == [1, 0, 2, 1, -1] and sign.tolist() == [0, 0, 1, 1, -1]
        second.query_batch([1], [2])
        assert g._indexes["csr"] is index

    def test_oracle_does_not_keep_its_graph_alive(self):
        # the harness and the small-graph sweeps build many oracles on graphs
        # nobody else holds; each graph kept alive is one more object for
        # every full garbage collection to scan
        g = make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS)], d=2)
        graph = weakref.ref(g)
        o = BoundedDegreeOracle(g)
        del g
        assert graph() is None
        assert not gc.is_tracked(o._indexes)
        nbrs, _ = o.query_batch([1, 1, 2], [1, 2, 2])
        assert nbrs.tolist() == [0, 2, -1]


class TestRowsBuiltAtPointReads:
    """On a graph holding only CSR arrays, a point read builds the row it
    reads, once, into the graph's row store."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_each_row_equals_the_whole_row_build(self, family):
        g, _ = generate(GenSpec(family, 600, seed=2, d=4))  # all-negative-regular: 2400 entries
        want = _csr_adj(g.n, {"csr": g._indexes["csr"]})
        o = BoundedDegreeOracle(g)
        for v in np.random.default_rng(2).permutation(g.n).tolist():
            slots = [o.query(v, i) for i in range(1, o.d + 1)]
            assert repr(o.neighbors(v)) == repr(want[v])  # plain ints, in insertion order
            assert slots == [*want[v], *[None] * (o.d - len(want[v]))]
        assert o.query_count == g.n * o.d + sum(min(len(row) + 1, o.d) for row in want)
        assert "adj" not in g._indexes

    def test_read_all_returns_the_arrays_unless_the_oracle_reads_whole_rows(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 60, seed=1, d=6))
        o = BoundedDegreeOracle(g)
        for v in range(g.n):
            o.neighbors(v)  # every row in the store, but the graph's rows unbuilt
        charge = o.query_count  # a whole read charges what these reads did
        whole = o.read_all()
        assert isinstance(whole, CSRGraph) and whole._indexes is g._indexes
        assert "adj" not in g._indexes and o.query_count == 2 * charge
        g.adj  # the graph's rows, built after the oracle was made: shared, not rebuilt
        assert o.read_all().adj is g.adj and BoundedDegreeOracle(g).read_all().adj is g.adj
        assert whole == g and o.query_count == 3 * charge


def test_testers_read_graphs_only_through_charged_oracle_methods():
    # the private state of both oracles and of the graph they read, its
    # indexes included: a tester naming any of it could read without paying
    g = make_graph(3, [(0, 1, Sign.PLUS)], d=2)
    bounded, dense = BoundedDegreeOracle(g), DenseOracle(g)
    with mock.patch.object(oracles, "_CELLS_MAX_N", 0):  # the state of a graph with no cells
        sparse = DenseOracle(g)
    bounded.query_batch([0], [1])
    g._sign_map  # still a cached property of every graph, though no oracle builds it
    private = {name for obj in (bounded, dense, sparse, g) for name in vars(obj)
               if name.startswith("_")} | set(g._indexes)  # the indexes' keys too
    assert {"_adj", "_indexes", "_cells", "_csr", "_sign_map", "cells", "csr"} <= private
    for module in (bounded_testers, dense_testers):
        source = Path(module.__file__).read_text(encoding="utf-8")
        for name in private:
            assert not re.search(rf"""\.{name}\b|['"]{name}['"]""", source), (module.__name__, name)


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
