"""Exact checkers and brute-force distances, cross-checked against
independent enumerations written here."""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest

from signedtest import exact
from signedtest.core import (
    Clustering, CSRGraph, Sign, SignedGraph, Witness, WitnessKind, load_edge_list, save_edge_list,
)
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR, BALANCED_TWO_SIDE, DISJOINT_BAD_TRIANGLES, FAMILIES,
    PLANTED_NEGATIVE_MATCHING, GenSpec, generate,
)
from signedtest.exact import (
    SizeCapError,
    clustering_violations,
    forest_paths,
    frustration_index,
    has_signed_triangle,
    is_balanced,
    is_clusterable,
    k_frustration_index,
    positive_component_clustering,
    triangle_free_distance,
    triangle_pattern,
    verify_witness,
    weak_frustration_index,
)
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

from conftest import (
    all_signed_graphs,
    make_graph,
    merge_small_clusters,
    random_signed_graph,
    triangle,
)

# ---------------------------------------------------------------------------
# Independent reference enumerations (deliberately different algorithms from
# the library: plain loops over bipartition masks / label products / set
# partitions, no pruning, no numpy).
# ---------------------------------------------------------------------------


def ref_frustration(g) -> int:
    edges = list(g.edges())
    if g.n == 1 or not edges:
        return 0
    best = len(edges)
    for mask in range(1 << (g.n - 1)):
        side = [(mask >> i) & 1 for i in range(g.n - 1)] + [0]
        bad = 0
        for u, v, s in edges:
            crossing = side[u] != side[v]
            if (s == Sign.PLUS) == crossing:
                bad += 1
        best = min(best, bad)
    return best


def ref_k_frustration(g, k: int) -> int:
    edges = list(g.edges())
    best = len(edges)
    for tail in itertools.product(range(k), repeat=g.n - 1):
        lab = (0,) + tail
        bad = 0
        for u, v, s in edges:
            if s == Sign.PLUS:
                bad += lab[u] != lab[v]
            else:
                bad += lab[u] == lab[v]
        best = min(best, bad)
    return best


def ref_weak_frustration(g) -> int:
    return ref_k_frustration(g, g.n)


def violations(g, labels) -> int:
    bad = 0
    for u, v, s in g.edges():
        if s == Sign.PLUS:
            bad += labels[u] != labels[v]
        else:
            bad += labels[u] == labels[v]
    return bad


class TestIsBalanced:
    def test_all_positive_is_balanced(self):
        r = is_balanced(triangle("+", "+", "+"))
        assert r.balanced and set(r.sides) == {0}

    def test_two_negatives_balance_a_triangle(self):
        r = is_balanced(triangle("+", "-", "-"))
        assert r.balanced
        # sides must satisfy every edge: positive inside, negative across
        for u, v, s in triangle("+", "-", "-").edges():
            same = r.sides[u] == r.sides[v]
            assert same == (s == Sign.PLUS)

    def test_single_negative_triangle_unbalanced_with_witness(self):
        g = triangle("+", "+", "-")
        r = is_balanced(g)
        assert not r.balanced
        assert r.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
        assert verify_witness(g, r.witness) is None

    def test_witnesses_verify_on_random_unbalanced_graphs(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(300):
            g = random_signed_graph(rng, int(rng.integers(3, 12)))
            r = is_balanced(g)
            if not r.balanced:
                found += 1
                assert verify_witness(g, r.witness) is None
            else:
                for u, v, s in g.edges():
                    assert (r.sides[u] == r.sides[v]) == (s == Sign.PLUS)
        assert found > 100

    def test_matches_zero_frustration_exhaustively_small(self):
        for n in range(1, 5):
            for g in all_signed_graphs(n):
                assert is_balanced(g).balanced == (ref_frustration(g) == 0)


class TestIsClusterable:
    def test_all_negative_triangle_clusterable_but_not_balanced(self):
        g = triangle("-", "-", "-")
        assert is_clusterable(g).clusterable
        assert not is_balanced(g).balanced

    def test_one_negative_triangle_not_clusterable(self):
        g = triangle("+", "+", "-")
        r = is_clusterable(g)
        assert not r.clusterable
        assert r.witness.kind is WitnessKind.BAD_CYCLE
        assert sum(1 for s in r.witness.signs if s == Sign.MINUS) == 1
        assert verify_witness(g, r.witness) is None

    def test_clustering_output_is_positive_components(self):
        g = make_graph(5, [(0, 1, "+"), (2, 3, "+"), (1, 2, "-"), (0, 4, "-")])
        r = is_clusterable(g)
        assert r.clusterable
        assert r.clustering.assignment == (0, 0, 1, 1, 2)

    def test_matches_zero_weak_frustration_exhaustively_small(self):
        for n in range(1, 5):
            for g in all_signed_graphs(n):
                assert is_clusterable(g).clusterable == (ref_weak_frustration(g) == 0)

    def test_balance_implies_clusterability_exhaustively_small(self):
        for n in range(1, 5):
            for g in all_signed_graphs(n):
                if is_balanced(g).balanced:
                    assert is_clusterable(g).clusterable

    def test_deep_witness_on_long_path_closed_negatively(self):
        n = 9
        edges = [(i, i + 1, "+") for i in range(n - 1)] + [(0, n - 1, "-")]
        g = make_graph(n, edges)
        r = is_clusterable(g)
        assert not r.clusterable
        assert len(r.witness.nodes) == n
        assert verify_witness(g, r.witness) is None


# (graph, is_balanced witness, is_clusterable witness), each witness as
# (nodes, signs); recorded before the two checkers shared one BFS
_HAND_BUILT = make_graph(9, [(6, 2, "+"), (0, 4, "+"), (5, 8, "-"), (4, 2, "+"), (2, 5, "+"),
                             (8, 3, "+"), (3, 6, "+"), (1, 7, "-"), (7, 0, "+")])
PINNED_WITNESSES = [
    (_HAND_BUILT, ((2, 6, 3, 8, 5), (0, 0, 0, 1, 0)), ((2, 5, 8, 3, 6), (0, 1, 0, 0, 0))),
    (generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 40, seed=1, d=4))[0],
     ((0, 19, 37, 26, 29, 3, 7), (0, 1, 1, 0, 1, 0, 0)),
     ((0, 7, 3, 4, 6, 18, 17, 13, 19), (0, 0, 0, 1, 0, 0, 0, 0, 0))),
]


@pytest.mark.parametrize("g, balance, cluster", PINNED_WITNESSES)
def test_exact_witness_order_is_pinned(g, balance, cluster):
    # a witness runs from the common ancestor down to the closing edge and
    # back up; the dense balance tester and the bounded fallbacks report it
    b, c = is_balanced(g).witness, is_clusterable(g).witness
    assert (b.kind, (b.nodes, b.signs)) == (WitnessKind.ODD_NEGATIVE_CYCLE, balance)
    assert (c.kind, (c.nodes, c.signs)) == (WitnessKind.BAD_CYCLE, cluster)


@pytest.mark.parametrize("as_map", [list, dict.fromkeys])
def test_forest_paths_meet_at_the_lowest_common_ancestor(as_map):
    # tree 0 -> 1 -> {2, 3}, 3 -> 4, and a second tree rooted at 5
    parent = [None, 0, 1, 1, 3, None]
    parent = parent if as_map is list else dict(enumerate(parent))
    assert forest_paths(parent, 2, 4) == ([2, 1], [4, 3])
    assert forest_paths(parent, 4, 0) == ([4, 3, 1, 0], [])
    assert forest_paths(parent, 0, 4) == ([0], [4, 3, 1])
    assert forest_paths(parent, 5, 5) == ([5], [])


class TestHasSignedTriangle:
    def test_finds_matching_pattern(self):
        g = triangle("+", "+", "-")
        w = has_signed_triangle(g, "++-")
        assert w is not None and w.nodes == (0, 1, 2)
        assert verify_witness(g, w) is None

    def test_pattern_is_a_multiset(self):
        g = triangle("+", "-", "+")
        assert has_signed_triangle(g, "-++") is not None
        assert has_signed_triangle(g, "+-+") is not None
        assert has_signed_triangle(g, "---") is None

    def test_no_triangle_returns_none(self):
        g = make_graph(4, [(0, 1, "+"), (1, 2, "+"), (2, 3, "+")])
        assert has_signed_triangle(g, "+++") is None

    def test_pattern_must_have_three_signs(self):
        with pytest.raises(ValueError, match="3 signs"):
            triangle_pattern("++")

    def test_exhaustive_against_direct_enumeration(self):
        pattern = triangle_pattern("++-")
        for g in all_signed_graphs(4):
            expect = False
            for a, b, c in itertools.combinations(range(4), 3):
                signs = (g.sign_of(a, b), g.sign_of(b, c), g.sign_of(a, c))
                if None not in signs and tuple(sorted(signs)) == pattern:
                    expect = True
                    break
            assert (has_signed_triangle(g, "++-") is not None) == expect


class TestFrustrationIndex:
    def test_balanced_graphs_have_zero(self):
        assert frustration_index(triangle("+", "-", "-")) == 0

    def test_one_negative_triangle_needs_one_edit(self):
        assert frustration_index(triangle("+", "+", "-")) == 1

    def test_all_negative_k4_needs_two(self):
        edges = [(u, v, "-") for u, v in itertools.combinations(range(4), 2)]
        assert frustration_index(make_graph(4, edges)) == 2
        assert ref_frustration(make_graph(4, edges)) == 2

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            g = random_signed_graph(rng, int(rng.integers(1, 9)))
            assert frustration_index(g) == ref_frustration(g)

    def test_size_cap_is_a_hard_error(self):
        g = make_graph(25, [(0, 1, "+")])
        with pytest.raises(SizeCapError, match="caps at n=24"):
            frustration_index(g)


class TestKFrustration:
    def test_all_negative_triangle_two_clusters(self):
        g = triangle("-", "-", "-")
        assert k_frustration_index(g, 2) == 1
        assert ref_k_frustration(g, 2) == 1
        assert k_frustration_index(g, 3) == 0

    def test_two_disjoint_bad_triangles_need_two_edits(self):
        edges = [(0, 1, "+"), (1, 2, "+"), (0, 2, "-"),
                 (3, 4, "+"), (4, 5, "+"), (3, 5, "-")]
        g = make_graph(6, edges)
        assert weak_frustration_index(g) == 2

    def test_monotone_nonincreasing_in_k(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            g = random_signed_graph(rng, int(rng.integers(2, 8)))
            vals = [k_frustration_index(g, k) for k in range(1, g.n + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == weak_frustration_index(g)

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            n = int(rng.integers(2, 8))
            g = random_signed_graph(rng, n)
            k = int(rng.integers(1, n + 1))
            assert k_frustration_index(g, k) == ref_k_frustration(g, k)

    def test_size_caps(self):
        g = make_graph(13, [(0, 1, "+")])
        with pytest.raises(SizeCapError, match="caps at n=12"):
            k_frustration_index(g, 3)
        with pytest.raises(ValueError, match="k must be"):
            k_frustration_index(triangle("+", "+", "+"), 0)


class TestTriangleFreeDistance:
    def test_single_triangle_one_deletion(self):
        assert triangle_free_distance(triangle("+", "+", "-"), "++-") == 1

    def test_disjoint_triangles_add_up(self):
        edges = [(0, 1, "+"), (1, 2, "+"), (0, 2, "-"),
                 (3, 4, "+"), (4, 5, "+"), (3, 5, "-")]
        assert triangle_free_distance(make_graph(6, edges), "++-") == 2

    def test_shared_edge_counted_once(self):
        edges = [(0, 1, "-"), (0, 2, "+"), (1, 2, "+"), (0, 3, "+"), (1, 3, "+")]
        g = make_graph(4, edges)
        # both pattern triangles contain the (0,1) edge
        assert triangle_free_distance(g, "++-") == 1

    def test_absent_pattern_needs_nothing(self):
        assert triangle_free_distance(triangle("+", "+", "+"), "++-") == 0


class TestMergeSmallClusters:
    def test_documented_example(self):
        # sizes {3,2,1,1,1} at eps=0.25, n=8: keep 3 and 2, merge singletons
        labels = (0, 0, 0, 1, 1, 2, 3, 4)
        merged = merge_small_clusters(Clustering(labels, 5), 8, 0.25)
        sizes = sorted(np.bincount(merged.assignment).tolist())
        assert merged.k == 4
        assert sizes == [1, 2, 2, 3]

    def test_ten_singletons_at_half(self):
        merged = merge_small_clusters(Clustering(tuple(range(10)), 10), 10, 0.5)
        assert merged.k == 2
        assert sorted(np.bincount(merged.assignment).tolist()) == [5, 5]

    def test_first_fit_follows_cluster_id_order(self):
        labels = (0, 1, 2, 3)
        merged = merge_small_clusters(Clustering(labels, 4), 4, 0.5)
        assert merged.assignment == (0, 0, 1, 1)

    def test_cluster_count_bound_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            labels = Clustering.from_labels([int(x) for x in rng.integers(0, n, n)])
            eps = float(rng.uniform(0.05, 1.0))
            merged = merge_small_clusters(labels, n, eps)
            assert merged.k <= int(np.ceil(1.0 / eps - 1e-9))
            # merged groups stay in [eps*n, 2*eps*n) except one remainder
            small = [c for c in np.bincount(merged.assignment).tolist() if c < eps * n]
            assert len(small) <= 1

    def test_merge_deletion_bound_on_clusterable_graphs(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(400):
            g = random_signed_graph(rng, int(rng.integers(2, 11)))
            if not is_clusterable(g).clusterable:
                continue
            checked += 1
            for eps in (0.5, 1 / 3, 0.25):
                merged = merge_small_clusters(positive_component_clustering(g), g.n, eps)
                lab = merged.assignment
                inside = [(u, v) for u, v, _ in g.edges() if lab[u] == lab[v]]
                assert len(inside) <= 4 * eps * g.n * g.n
                # removing intra-cluster edges leaves only negative cross edges
                for u, v, s in g.edges():
                    if lab[u] != lab[v]:
                        assert s == Sign.MINUS
        assert checked > 60

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            merge_small_clusters(Clustering((0,), 1), 1, 0.0)


class TestVerifyWitness:
    def _bad_cycle(self):
        return Witness(WitnessKind.BAD_CYCLE, (0, 1, 2), (Sign.PLUS, Sign.PLUS, Sign.MINUS))

    def test_valid_bad_cycle(self):
        assert verify_witness(triangle("+", "+", "-"), self._bad_cycle()) is None

    def test_two_negative_edges_rejected(self):
        g = triangle("+", "-", "-")
        w = Witness(WitnessKind.BAD_CYCLE, (0, 1, 2), (Sign.PLUS, Sign.MINUS, Sign.MINUS))
        assert "exactly one negative" in verify_witness(g, w)

    def test_missing_edge_rejected(self):
        g = make_graph(3, [(0, 1, "+"), (1, 2, "+")])
        assert "missing edge" in verify_witness(g, self._bad_cycle())

    def test_sign_mismatch_rejected(self):
        assert "sign mismatch" in verify_witness(triangle("+", "+", "+"), self._bad_cycle())

    def test_even_negative_cycle_rejected(self):
        g = triangle("+", "-", "-")
        w = Witness(
            WitnessKind.ODD_NEGATIVE_CYCLE, (0, 1, 2), (Sign.PLUS, Sign.MINUS, Sign.MINUS)
        )
        assert "even" in verify_witness(g, w)

    def test_repeated_node_rejected(self):
        g = make_graph(4, [(0, 1, "+"), (1, 2, "+"), (2, 0, "+"), (2, 3, "+"), (3, 0, "+")])
        w = Witness(
            WitnessKind.ODD_NEGATIVE_CYCLE,
            (0, 1, 2, 0, 3),
            (Sign.PLUS,) * 5,
        )
        assert "repeated node" in verify_witness(g, w)

    def test_triangle_witness_needs_three_nodes(self):
        g = make_graph(4, [(0, 1, "+"), (1, 2, "+"), (2, 3, "+"), (0, 3, "+")])
        w = Witness(WitnessKind.SIGNED_TRIANGLE, (0, 1, 2, 3), (Sign.PLUS,) * 4)
        assert "has 4 nodes" in verify_witness(g, w)

    def test_checks_edges_without_building_the_sign_map(self):
        valid, mismatched = triangle("+", "+", "-"), triangle("+", "+", "+")
        assert verify_witness(valid, self._bad_cycle()) is None
        assert "sign mismatch" in verify_witness(mismatched, self._bad_cycle())
        assert "_sign_map" not in valid.__dict__
        assert "_sign_map" not in mismatched.__dict__

    def test_out_of_range_node_rejected(self):
        w = Witness(WitnessKind.BAD_CYCLE, (0, 1, 7), (Sign.PLUS, Sign.PLUS, Sign.MINUS))
        assert "out of range" in verify_witness(triangle("+", "+", "-"), w)


class _ArrayPath(Exception):
    """Raised by a patched _level_bfs: the check took the array path."""


def _level_bfs_ran(*args):
    raise _ArrayPath


class TestArrayPathIsChosenByRows:
    """The checks read CSR arrays exactly on a graph that holds no tuple rows
    yet (every generated or loaded graph until something reads its rows) and
    has _ARRAY_MIN_ENTRIES row entries or more, and answer as on its rows
    without building them. A graph with rows keeps the FIFO loop, though it
    holds arrays from its build or from an oracle's batch read, and answers as
    on the same rows alone; so does a smaller one, once its rows are built."""

    @staticmethod
    def _generated_and_loaded(tmp_path):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 200, seed=3))
        save_edge_list(g, tmp_path / "g.sgl")
        return g, load_edge_list(tmp_path / "g.sgl", degree_bound=g.degree_bound)

    def test_graphs_with_rows_take_the_loop(self, monkeypatch, tmp_path):
        generated, loaded = self._generated_and_loaded(tmp_path)
        generated.adj, loaded.adj  # a generated and a loaded graph once their rows are read
        from_edges = SignedGraph.from_edges(200, generated.edges(), generated.degree_bound)
        BoundedDegreeOracle(from_edges).query_batch([0], [1])
        monkeypatch.setattr(exact, "_level_bfs", _level_bfs_ran)
        labels = [v % 3 for v in range(200)]
        for g in (generated, from_edges, loaded):
            assert "csr" in g._indexes
            bare = SignedGraph(g.n, g.adj)  # the same rows, holding no arrays
            assert is_balanced(g) == is_balanced(bare)
            assert is_clusterable(g) == is_clusterable(bare)
            assert positive_component_clustering(g) == positive_component_clustering(bare)
            assert clustering_violations(g, labels) == clustering_violations(bare, labels)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_graphs_take_the_array_path(self, monkeypatch, family):
        g, _ = generate(GenSpec(family, 1200, seed=3, d=4))
        assert g._indexes["csr"][0][-1] >= exact._ARRAY_MIN_ENTRIES
        bare = SignedGraph(g.n, CSRGraph(g.n, {"csr": g._indexes["csr"]}).adj)
        ran, level_bfs = [], exact._level_bfs
        monkeypatch.setattr(exact, "_level_bfs", lambda *args: ran.append(args[-1]) or level_bfs(*args))
        balance, cluster = is_balanced(g), is_clusterable(g)
        assert balance == is_balanced(bare) and cluster == is_clusterable(bare)
        assert positive_component_clustering(g) == positive_component_clustering(bare)
        assert ran == [True, False, False]  # follow_negative of each array BFS
        for w in (balance.witness, cluster.witness):
            assert w is None or verify_witness(g, w) is None
        assert "adj" not in g._indexes and "adj" not in vars(g)  # no check built rows

    def test_the_balance_check_inside_generate_takes_the_array_path(self, monkeypatch):
        monkeypatch.setattr(exact, "_level_bfs", _level_bfs_ran)
        with pytest.raises(_ArrayPath):
            generate(GenSpec(ALL_NEGATIVE_REGULAR, 2000, seed=3))  # its builder checks balance

    @pytest.mark.parametrize("triangles", [341, 342])  # 2046 and 2052 row entries
    def test_graphs_below_the_entry_floor_build_their_rows_once(self, monkeypatch, triangles):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 3 * triangles))
        bare = SignedGraph(g.n, CSRGraph(g.n, {"csr": g._indexes["csr"]}).adj)
        ran, level_bfs = [], exact._level_bfs
        monkeypatch.setattr(exact, "_level_bfs", lambda *args: ran.append(args[-1]) or level_bfs(*args))
        for _ in range(2):
            assert is_balanced(g) == is_balanced(bare) and is_clusterable(g) == is_clusterable(bare)
        small = 6 * triangles < exact._ARRAY_MIN_ENTRIES
        assert ran == ([] if small else [True, False] * 2)
        assert ("adj" in g._indexes) is small and (not small or g._indexes["adj"] == bare.adj)

    @mock.patch.object(exact, "_ARRAY_MIN_ENTRIES", 0)  # these graphs are small
    def test_graphs_holding_only_arrays_take_the_array_path(self, monkeypatch, tmp_path):
        generated, loaded = self._generated_and_loaded(tmp_path)
        read = DenseOracle(generated).induced(range(100))
        labels = [v % 3 for v in range(200)]
        for g in (loaded, read):
            assert isinstance(g, CSRGraph) and "adj" not in g._indexes
            bare = SignedGraph(g.n, CSRGraph(g.n, {"csr": g._indexes["csr"]}).adj)
            balance, cluster = is_balanced(g), is_clusterable(g)
            assert balance == is_balanced(bare) and cluster == is_clusterable(bare)
            assert positive_component_clustering(g) == positive_component_clustering(bare)
            assert clustering_violations(g, labels[:g.n]) == clustering_violations(bare, labels[:g.n])
            witnesses = [w for w in (balance.witness, cluster.witness) if w is not None]
            assert witnesses, "the planted matching is far from both properties"
            for w in witnesses:
                flipped = Witness(w.kind, w.nodes, (1 - w.signs[0], *w.signs[1:]))
                broken = Witness(w.kind, w.nodes[:-1] + (g.n - 1 - w.nodes[0],), w.signs)
                for x in (w, flipped, broken):
                    assert verify_witness(g, x) == verify_witness(bare, x)
            assert "adj" not in g._indexes and "adj" not in vars(g)  # no check built rows
            monkeypatch.setattr(exact, "_level_bfs", _level_bfs_ran)
            for check in (is_balanced, is_clusterable, positive_component_clustering):
                with pytest.raises(_ArrayPath):
                    check(g)
            monkeypatch.undo()
        assert list(loaded.edges()) == list(generated.edges())


class _NumPyCountingLevels:
    """NumPy for exact, save np.minimum, which only _level_bfs's component
    pass calls, and with a count of np.cumsum calls: one per BFS level."""

    def __init__(self):
        self.levels = 0

    def __getattr__(self, name):
        if name == "minimum":
            raise AssertionError("the component pass ran")
        self.levels += name == "cumsum"
        return getattr(np, name)


class TestLevelBfsStopsInNodeZerosTree:
    """The array BFS grows node 0's tree alone first: a conflict in it ends
    the check after the level that meets it, and a conflict-free tree that
    spans the graph ends it with no component pass."""

    @pytest.mark.parametrize("spec", [
        GenSpec(BALANCED_TWO_SIDE, 2000, seed=1, d=4),  # connected and balanced
        GenSpec(DISJOINT_BAD_TRIANGLES, 3000, seed=1),  # node 0's triangle is unbalanced
        GenSpec(ALL_NEGATIVE_REGULAR, 2000, seed=1, d=3),  # connected, with odd cycles
    ], ids=lambda s: s.family)
    def test_no_component_pass_and_no_level_past_the_conflict(self, monkeypatch, spec):
        g, _ = generate(spec)
        monkeypatch.setattr(exact, "np", counting := _NumPyCountingLevels())
        parent, label, conflict = got = exact._bfs(g, follow_negative=True)
        monkeypatch.undo()
        assert "adj" not in g._indexes
        assert got == exact._bfs(SignedGraph(g.n, g.adj), follow_negative=True)
        depth = lambda v: 0 if parent[v] is None else 1 + depth(parent[v])
        deepest = max(map(depth, range(g.n))) if conflict is None else depth(conflict[0])
        assert counting.levels == deepest + 1  # the conflict's level, or every level of the tree

    def test_a_conflict_in_node_0s_tree_leaves_every_other_tree_unlabelled(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 3000, seed=1))
        parent, label, conflict = exact._bfs(g, follow_negative=True)
        assert set(conflict) <= {0, 1, 2} and min(label[:3]) >= 0
        assert set(label[3:]) == {-1} and set(parent[3:]) == {None}
