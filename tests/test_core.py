"""Core types, edge-list I/O, and the subdivision transform (a tests/conftest.py
reference)."""

from __future__ import annotations

import codecs
import gc
import io
from unittest import mock

import numpy as np
import pytest

from signedtest.core import (
    Clustering,
    GraphFormatError,
    Sign,
    SignedGraph,
    Witness,
    WitnessKind,
    load_edge_list,
    midpoint,
    save_edge_list,
    validate,
)
from signedtest import core, oracles
from signedtest.bounded_testers import read_whole_graph
from signedtest.exact import is_balanced
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR,
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    FAMILIES,
    PLANTED_NEGATIVE_MATCHING,
    GenSpec,
    generate,
)
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

from conftest import (
    all_signed_graphs,
    assert_csr_of_rows,
    make_graph,
    random_signed_graph,
    sgl_text,
    triangle,
    zaslavsky_transform,
)


def _is_bipartite(gp) -> bool:
    # independent 2-coloring over the unsigned adjacency
    color = [-1] * gp.n
    for root in range(gp.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in gp.adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _bipartite_edit_distance(gp) -> int:
    # brute force: min edges inside a side, over all bipartitions
    edges = [(u, v) for u in range(gp.n) for v in gp.adj[u] if u < v]
    if not edges:
        return 0
    best = len(edges)
    for mask in range(1 << (gp.n - 1)):
        bad = 0
        for u, v in edges:
            if ((mask >> u) & 1) == ((mask >> v) & 1):
                bad += 1
        best = min(best, bad)
    return best


class TestSign:
    def test_tokens_roundtrip(self):
        assert Sign.from_token("+") is Sign.PLUS
        assert Sign.from_token("-") is Sign.MINUS

    def test_plus_sorts_first(self):
        assert sorted([Sign.MINUS, Sign.PLUS]) == [Sign.PLUS, Sign.MINUS]

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="sign token"):
            Sign.from_token("0")


class TestSignedGraphConstruction:
    def test_adjacency_is_symmetric_with_load_order(self):
        g = make_graph(4, [(2, 0, "+"), (0, 1, "-"), (1, 3, "+")])
        assert g.adj[0] == ((2, Sign.PLUS), (1, Sign.MINUS))
        assert g.sign_of(1, 0) == Sign.MINUS
        assert g.sign_of(0, 3) is None
        assert g.num_edges == 3

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            make_graph(3, [(1, 1, "+")])

    def test_duplicate_edge_rejected_regardless_of_orientation(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            make_graph(3, [(0, 1, "+"), (1, 0, "-")])

    def test_endpoint_range_checked(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            make_graph(3, [(0, 3, "+")])

    def test_degree_bound_enforced(self):
        with pytest.raises(GraphFormatError, match="degree"):
            make_graph(4, [(0, 1, "+"), (0, 2, "+"), (0, 3, "+")], d=2)

    def test_single_node_graph_is_fine(self):
        g = make_graph(1, [])
        assert g.n == 1 and g.num_edges == 0

    @pytest.mark.parametrize("u,v,sign", [
        ([0.0], [1], [0]), ([0], [1], [True]), ([[0]], [[1]], [[0]]), ([0, 1], [1], [0]),
    ], ids=["float", "bool", "2-d", "lengths"])
    def test_from_arrays_takes_three_integer_arrays_of_one_length(self, u, v, sign):
        with pytest.raises(GraphFormatError, match="three 1-d integer arrays"):
            SignedGraph.from_arrays(3, np.array(u), np.array(v), np.array(sign))

    def test_from_arrays_shares_one_entry_tuple_per_neighbour_and_sign(self):
        g = SignedGraph.from_arrays(300, [0, 1, 0, 2], [299, 299, 1, 299], [1, 1, 0, 0])
        assert g == make_graph(300, [(0, 299, 1), (1, 299, 1), (0, 1, 0), (2, 299, 0)])
        assert g.adj[0][0] is g.adj[1][0] and g.adj[0][0][0] is g.adj[2][0][0]
        none = np.array([], dtype=np.int8)
        assert SignedGraph.from_arrays(2, none, none, none).adj == ((), ())

    @pytest.mark.parametrize(
        "sign, stored",
        [
            ("+", 0), ("-", 1), (0, 0), (1, 1), (Sign.PLUS, 0), (Sign.MINUS, 1),
            (np.int64(1), 1), (np.uint8(0), 0),
            (True, None), (False, None), (1.0, None), (0.0, None), (np.float64(1.0), None),
            (np.bool_(True), None), (2, None), (-1, None), (None, None), ("x", None),
            ("+-", None), ("0", None),
        ],
    )
    def test_sign_values(self, sign, stored):
        # exactly '+', '-', 0 and 1 (ints of any kind but bool); stored as int
        if stored is None:
            with pytest.raises(GraphFormatError, match=r"edge \(2,1\) has sign"):
                make_graph(3, [(0, 1, "+"), (2, 1, sign)])
        else:
            g = make_graph(3, [(0, 1, "+"), (2, 1, sign)])
            assert g.adj[2] == ((1, stored),)
            assert type(g.adj[2][0][1]) is int


class TestValidate:
    def test_ok_graph(self):
        assert validate(triangle("+", "+", "-")) is None

    def test_stored_ints_and_sign_members_are_labels(self):
        assert validate(SignedGraph(2, (((1, 1),), ((0, Sign.MINUS),)))) is None
        for label in (True, 1.0, "-", 2):
            g = SignedGraph(2, (((1, label),), ((0, label),)))
            assert "non-sign label" in validate(g)

    def test_asymmetric_edge_detected(self):
        g = SignedGraph(2, (((1, Sign.PLUS),), ()))
        assert "asymmetric" in validate(g)

    def test_sign_mismatch_across_directions(self):
        g = SignedGraph(2, (((1, Sign.PLUS),), ((0, Sign.MINUS),)))
        assert "mismatch" in validate(g)

    def test_self_loop_detected(self):
        g = SignedGraph(1, (((0, Sign.PLUS),),))
        assert "self-loop" in validate(g)

    def test_parallel_edge_detected(self):
        g = SignedGraph(2, (((1, Sign.PLUS), (1, Sign.PLUS)), ((0, Sign.PLUS), (0, Sign.PLUS))))
        assert "parallel" in validate(g)

    def test_degree_bound_violation_detected(self):
        g = make_graph(4, [(0, 1, "+"), (0, 2, "+"), (0, 3, "+")])
        g = SignedGraph(g.n, g.adj, degree_bound=2)
        assert "degree" in validate(g)


SAMPLE = "3 3\n0 1 +\n1 2 +\n0 2 -\n"


class TestEdgeListFormat:
    def test_parse_sample(self):
        g = load_edge_list(io.StringIO(SAMPLE))
        assert g.n == 3 and g.num_edges == 3
        assert g.sign_of(0, 2) == Sign.MINUS

    def test_comments_and_blank_lines_ignored(self):
        text = "# a file\n\n3 1   # header\n0 1 -\n\n# done\n"
        g = load_edge_list(io.StringIO(text))
        assert g.num_edges == 1

    def test_save_is_canonical(self):
        g = make_graph(3, [(2, 0, "-"), (1, 0, "+"), (1, 2, "+")])
        assert sgl_text(g) == "3 3\n0 1 +\n0 2 -\n1 2 +\n"

    def test_roundtrip_file(self, tmp_path):
        g = make_graph(5, [(0, 4, "-"), (1, 2, "+"), (0, 1, "+")])
        path = tmp_path / "g.sgl"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.n == g.n
        assert list(back.edges()) == list(g.edges())

    def test_load_save_identity_on_canonical_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_signed_graph(rng, int(rng.integers(1, 9)))
            text = sgl_text(g)
            assert sgl_text(load_edge_list(io.StringIO(text))) == text

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "missing"),
            ("3\n", "header"),
            ("3 x\n", "integers"),
            ("0 0\n", "n must be"),
            ("3 1\n1 0 +\n", "u < v"),
            ("3 1\n0 0 -\n", "u < v"),
            ("3 1\n0 5 -\n", "u < v"),
            ("3 1\n0 1 ?\n", "sign token"),
            ("3 1\n0 1\n", "expected"),
            ("3 2\n0 1 +\n0 1 -\n", "duplicate"),
            ("3 1\n0 1 +\n1 2 -\n", "more than"),
            ("3 2\n0 1 +\n", "declared 2"),
            ("2 1\na b +\n", "integers"),
            ("2 1\n0 1 \ud800\n", "line 2: bad sign token"),  # a lone surrogate
            ("2 1\n0 1 ?\n", "line 2: bad sign token"),
            # a header at both caps passes; nothing is built for the missing edges
            ("4000000 8000000\n", "declared 8000000 edges but found 0"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            load_edge_list(io.StringIO(text))

    def test_parse_error_degree_over_bound(self):
        with pytest.raises(GraphFormatError, match="degree 2 > bound 1"):
            load_edge_list(io.StringIO("3 2\n0 1 +\n0 2 -\n"), degree_bound=1)

    def test_unsorted_lines_keep_file_order_in_rows(self):
        edges = [(3, 4, 1), (0, 2, 0), (1, 3, 0), (0, 1, 1), (2, 4, 0), (1, 2, 1)]
        text = "5 6\n" + "".join(f"{u} {v} {'+-'[s]}\n" for u, v, s in edges)
        g = load_edge_list(io.StringIO(text), degree_bound=3)
        built = SignedGraph.from_edges(5, edges, degree_bound=3)
        assert g == built and g.adj == built.adj

    def test_byte_order_mark_is_dropped(self, tmp_path):
        for text in (SAMPLE, "# c\n" + SAMPLE):
            (tmp_path / "g.sgl").write_bytes(text.encode())
            (tmp_path / "bom.sgl").write_bytes(codecs.BOM_UTF8 + text.encode())
            want = load_edge_list(tmp_path / "g.sgl")
            assert load_edge_list(tmp_path / "bom.sgl") == want
            assert load_edge_list(io.StringIO("\ufeff" + text)) == want

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_edge_list(io.StringIO("# c\n2 1\n0 1 ?\n"))

    def test_save_writes_from_the_csr_arrays_and_builds_no_rows(self, monkeypatch):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 60, seed=2))
        monkeypatch.setattr(core, "_csr_adj", mock.Mock(side_effect=AssertionError("rows built")))
        texts = []
        for lines in (1, 7, core._WRITE_LINES):  # the lines formatted at a time
            monkeypatch.setattr(core, "_WRITE_LINES", lines)
            texts.append(sgl_text(g))
        monkeypatch.undo()
        want = f"{g.n} {g.num_edges}\n" + "".join(f"{u} {v} {'+-'[s]}\n" for u, v, s in g.edges())
        assert texts == [want] * 3
        rows = SignedGraph.from_edges(g.n, g.edges(), g.degree_bound)
        assert sgl_text(rows) == want and "csr" not in rows._indexes  # arrays for the write only
        assert sgl_text(SignedGraph.from_edges(1, [])) == "1 0\n"

    def test_header_is_refused_before_the_body_is_read(self):
        class NoBodyRead(io.StringIO):
            def read(self, *args):
                raise AssertionError("the body was read")

        with pytest.raises(GraphFormatError, match="line 1: n must be between 1 and 4,000,000"):
            load_edge_list(NoBodyRead("4000001 0\n0 1 +\n"))


class TestZaslavskyTransform:
    def test_positive_edges_subdivided_in_sorted_order(self):
        g = make_graph(3, [(1, 2, "+"), (0, 1, "+"), (0, 2, "-")])
        gp, prov = zaslavsky_transform(g)
        assert gp.n == 5
        assert prov[:3] == (0, 1, 2)
        assert prov[3] == midpoint(3, 0, 1)  # sorted: (0,1) before (1,2)
        assert prov[4] == midpoint(3, 1, 2)
        assert sorted(gp.adj[3]) == [0, 1]
        assert sorted(gp.adj[0]) == [2, 3]

    def test_balanced_triangle_maps_to_even_cycle(self):
        # one positive edge -> a 4-cycle, which is bipartite
        g = triangle("+", "-", "-")
        gp, _ = zaslavsky_transform(g)
        assert gp.n == 4
        assert gp.num_edges() == 4
        assert _is_bipartite(gp)

    def test_unbalanced_triangle_maps_to_odd_cycle(self):
        g = triangle("+", "+", "-")
        gp, _ = zaslavsky_transform(g)
        assert gp.n == 5 and gp.num_edges() == 5
        assert not _is_bipartite(gp)

    def test_degree_bound_becomes_max_d_2(self):
        g = triangle("+", "+", "-", d=2)
        gp, _ = zaslavsky_transform(g)
        assert gp.degree_bound == 2
        assert max(len(row) for row in gp.adj) <= 2

    def test_bipartite_iff_balanced_exhaustive_small(self):
        for n in range(1, 5):
            for g in all_signed_graphs(n):
                gp, _ = zaslavsky_transform(g)
                assert _is_bipartite(gp) == is_balanced(g).balanced

    def test_bipartite_iff_balanced_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_signed_graph(rng, int(rng.integers(2, 13)))
            gp, _ = zaslavsky_transform(g)
            assert _is_bipartite(gp) == is_balanced(g).balanced

    def test_edge_count_bookkeeping(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_signed_graph(rng, 8)
            gp, prov = zaslavsky_transform(g)
            pos = sum(1 for _, _, s in g.edges() if s == Sign.PLUS)
            assert gp.n == g.n + pos
            assert gp.num_edges() == g.num_edges + pos
            assert sum(1 for p in prov if p >= g.n) == pos


class TestWitnessAndClustering:
    def test_witness_requires_sign_per_edge(self):
        with pytest.raises(ValueError, match="one sign per"):
            Witness(WitnessKind.BAD_CYCLE, (0, 1, 2), (Sign.PLUS, Sign.MINUS))

    def test_witness_edge_pairs_close_the_cycle(self):
        w = Witness(
            WitnessKind.BAD_CYCLE, (0, 1, 2), (Sign.PLUS, Sign.PLUS, Sign.MINUS)
        )
        assert list(w.edge_pairs())[-1] == (2, 0, Sign.MINUS)

    def test_clustering_rejects_unused_ids(self):
        with pytest.raises(ValueError, match="cluster ids"):
            Clustering((0, 2, 2), 3)

    def test_from_labels_relabels_in_first_seen_order(self):
        c = Clustering.from_labels([5, 5, 9, 5, 1])
        assert c.assignment == (0, 0, 1, 0, 2)
        assert c.k == 3


def _assert_adjacency_untracked(g: SignedGraph) -> None:
    """After a full collection no (neighbor, sign) pair may be GC-tracked: a
    tracked pair is rescanned by every later full collection. Rows that a
    graph from an array read builds at the first read of adj are read first."""
    adj = g.adj
    gc.collect()
    tracked = [(v, pair) for v, row in enumerate(adj) for pair in row if gc.is_tracked(pair)]
    assert not tracked, tracked[:3]
    assert all(type(v) is int and type(s) is int for row in adj for v, s in row)


class TestAdjacencyNotTracked:
    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(CLUSTERABLE_COMMUNITIES, 24, seed=3, k=4),
            GenSpec(CLUSTERABLE_COMMUNITIES, 40, seed=3, d=6, k=3),
            GenSpec(BALANCED_TWO_SIDE, 16, seed=3),
            GenSpec(BALANCED_TWO_SIDE, 30, seed=3, d=5),
            GenSpec(ALL_NEGATIVE_REGULAR, 40, seed=3, d=3),
            GenSpec(DISJOINT_BAD_TRIANGLES, 31, seed=3),
            GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=3, d=8, k=2, planted_fraction=0.03),
        ],
        ids=lambda s: f"{s.family}-d{s.d}",
    )
    def test_generated(self, spec):
        g, _ = generate(spec)
        _assert_adjacency_untracked(g)

    def test_loaded_from_sgl(self, tmp_path):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=5, d=8))
        save_edge_list(g, tmp_path / "g.sgl")
        _assert_adjacency_untracked(load_edge_list(tmp_path / "g.sgl", degree_bound=8))

    def test_one_point_read_builds_one_row(self, tmp_path):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=5, d=8))
        save_edge_list(g, tmp_path / "g.sgl")
        for graph in (g, load_edge_list(tmp_path / "g.sgl", degree_bound=8)):
            first, second = BoundedDegreeOracle(graph), BoundedDegreeOracle(graph)
            store = graph._indexes["rows"]  # one row store per graph, for every oracle on it
            assert first._adj is store and second._adj is store and all(r is None for r in store)
            first.query(5, 1)
            assert [v for v, row in enumerate(store) if row is not None] == [5]
            row = store[5]
            assert first.neighbors(5) is row and second.neighbors(5) is row  # built once
            assert second.query(5, 2) == row[1]
            second.neighbors(7)
            assert [v for v, row in enumerate(store) if row is not None] == [5, 7]
            assert "adj" not in graph._indexes
            assert store[5] == graph.adj[5] and store[7] == graph.adj[7]

    def test_row_store_and_its_rows_untracked(self, tmp_path):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 48, seed=5, d=8))
        save_edge_list(g, tmp_path / "g.sgl")
        o = BoundedDegreeOracle(load_edge_list(tmp_path / "g.sgl", degree_bound=8))
        for v in range(0, 48, 3):
            o.neighbors(v)
            o.query(v + 1, 1)
        store = o._indexes["rows"]
        assert not gc.is_tracked(store)  # an object array: never tracked
        # a collection untracks a tuple once its items are: the (neighbour,
        # sign) pairs at the first, the rows that hold them at the second
        gc.collect()
        gc.collect()
        rows = [row for row in store if row is not None]
        tracked = [x for row in rows for x in (row, *row) if gc.is_tracked(x)]
        assert len(rows) == 32 and not tracked, tracked[:3]
        assert not gc.is_tracked(o._indexes)
        assert all(type(v) is int and type(s) is int for row in rows for v, s in row)

    def test_oracle_reads(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 30, seed=1, d=6, k=3))
        whole = read_whole_graph(BoundedDegreeOracle(g))
        assert list(whole.edges()) == list(g.edges())
        assert whole == g and whole.adj == g.adj
        _assert_adjacency_untracked(whole)
        dense, _ = generate(GenSpec(BALANCED_TWO_SIDE, 20, seed=1))
        o = DenseOracle(dense)
        _assert_adjacency_untracked(o.induced([7, 3, 12, 0, 19, 4]))
        assert type(o.query(0, 1)) is int and type(o.query(0, 19)) is int
        large, _ = generate(GenSpec(BALANCED_TWO_SIDE, 100, seed=1))
        nodes = np.random.default_rng(1).permutation(100)[:oracles._ARRAY_READ_MIN + 6].tolist()
        _assert_adjacency_untracked(DenseOracle(large).induced(nodes))  # the array path


class TestArrayBuildKeepsItsCSR:
    """A graph from from_arrays (every generated or loaded graph) holds the
    CSR arrays its build sorts into, and no oracle read rebuilds them."""

    @staticmethod
    def _assert_kept_through_reads(g: SignedGraph) -> None:
        csr = g._indexes["csr"]
        assert_csr_of_rows(csr, g.adj)
        if g.degree_bound is not None:
            BoundedDegreeOracle(g).query_batch([0, g.n - 1], [1, 1])
        assert g._indexes["csr"] is csr
        read = DenseOracle(g).induced(range(oracles._ARRAY_READ_MIN))  # the array path
        assert g._indexes["csr"] is csr
        assert read == DenseOracle(SignedGraph(g.n, g.adj)).induced(range(oracles._ARRAY_READ_MIN))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [None, 4])
    def test_generated(self, family, d):
        g, _ = generate(GenSpec(family, 120, seed=4, d=d))
        self._assert_kept_through_reads(g)

    @pytest.mark.parametrize("comment", ["", "# a comment sends the body to the line reader\n"])
    def test_loaded_from_sgl(self, comment):
        g, _ = generate(GenSpec(PLANTED_NEGATIVE_MATCHING, 90, seed=5))
        header, body = sgl_text(g).split("\n", 1)
        loaded = load_edge_list(io.StringIO(f"{header}\n{comment}{body}"), degree_bound=8)
        assert list(loaded.edges()) == list(g.edges())
        self._assert_kept_through_reads(loaded)


class TestFrustrationMatchesSubdividedBipartiteDistance:
    def test_on_random_small_graphs(self):
        # few positive edges keep the subdivided graph small enough to brute-force
        from signedtest.exact import frustration_index

        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            g = random_signed_graph(rng, n, p_edge=0.45, max_positive=5)
            gp, _ = zaslavsky_transform(g)
            assert gp.n <= 16
            assert frustration_index(g) == _bipartite_edit_distance(gp)
