"""Dense-model testers: one-sidedness, budgets, calibration, estimators."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from signedtest import dense_testers as dt
from signedtest import exact, oracles
from signedtest.core import Sign, SignedGraph
from signedtest.generators import (
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    GenSpec,
    generate,
)
from signedtest.oracles import DenseOracle, RandomSource, _chunked_integers

from conftest import all_signed_graphs, make_graph, random_signed_graph, triangle

PPM = (Sign.PLUS, Sign.PLUS, Sign.MINUS)


def _partial_bad_triangles(n, t):
    """t disjoint (+,+,-) triangles on n nodes, the rest isolated."""
    edges = []
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1, Sign.PLUS), (a + 1, a + 2, Sign.PLUS), (a, a + 2, Sign.MINUS)]
    return SignedGraph.from_edges(n, edges)


class TestDenseParams:
    def test_eps_range(self):
        with pytest.raises(ValueError):
            dt.DenseParams(eps=0.0)
        with pytest.raises(ValueError):
            dt.DenseParams(eps=1.5)
        dt.DenseParams(eps=1.0)

    def test_default_budgets(self):
        assert dt.triple_samples(0.5) == 80
        assert dt.node_samples(0.1) == 461
        assert dt.pair_samples(0.1) == 800
        assert dt.subset_size(1.0) >= 1


class TestTriangleDense:
    def test_one_sided_on_pattern_free_graphs(self):
        rng = np.random.default_rng(0)
        checked = 0
        for n in (3, 4):
            for g in all_signed_graphs(n):
                if exact.has_signed_triangle(g, PPM) is not None:
                    continue
                o = DenseOracle(g)
                for _ in range(3):
                    assert dt.test_triangle_dense(o, PPM, dt.DenseParams(eps=1.0, seed=rng)).accept
                checked += 1
        assert checked > 500

    def test_rejects_when_every_triple_hits(self):
        g = make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS), (0, 2, Sign.MINUS)])
        v = dt.test_triangle_dense(DenseOracle(g), PPM, dt.DenseParams(eps=1.0, seed=4))
        assert not v.accept
        assert exact.verify_witness(g, v.witness) is None

    def test_pattern_is_a_multiset(self):
        g = make_graph(3, [(0, 1, Sign.MINUS), (1, 2, Sign.PLUS), (0, 2, Sign.PLUS)])
        hit = dt.test_triangle_dense(DenseOracle(g), (Sign.MINUS, Sign.PLUS, Sign.PLUS),
                                     dt.DenseParams(eps=1.0, seed=0))
        assert not hit.accept
        miss = dt.test_triangle_dense(DenseOracle(g), (Sign.MINUS, Sign.MINUS, Sign.PLUS),
                                      dt.DenseParams(eps=1.0, seed=0))
        assert miss.accept

    def test_budget_respected_and_degenerate_triples_free(self, monkeypatch):
        g = make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS), (0, 2, Sign.PLUS)])
        o = DenseOracle(g)
        default = dt.triple_samples(1.0)
        monkeypatch.setattr(dt, "triple_samples", lambda eps: 500)
        v = dt.test_triangle_dense(o, PPM, dt.DenseParams(eps=1.0, seed=1))
        assert v.accept
        # distinct triples cost 3 queries, degenerate ones cost none; more
        # distinct triples than the default count shows the 500 were drawn
        triples = _chunked_integers(RandomSource(1).stream(), 0, 3, 500, 3)
        distinct = sum(len({a, b, c}) == 3 for a, b, c in triples)
        assert distinct > default
        assert v.queries_used == o.query_count == 3 * distinct

    @pytest.mark.parametrize("n", [3, 7, 1000, 2**40])
    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 12289])
    def test_chunked_triples_equal_one_draw(self, n, samples):
        # rows of three (the triangle tester's triples) and single values
        # (the bad-cycle walk's slots)
        for seed, row in itertools.product((0, 9), [(3,), ()]):
            one, chunked = np.random.default_rng(seed), np.random.default_rng(seed)
            want = one.integers(0, n, size=(samples, *row)).tolist()
            got = list(_chunked_integers(chunked, 0, n, samples, *row))
            assert got == want
            assert chunked.random() == one.random()  # the stream continues alike

    def test_triple_draws_use_bounded_memory(self, monkeypatch):
        # every distinct triple of the all-negative K20 rejects '---', so the
        # test stops at the first; one up-front draw of 10^7 triples is 240 MB
        g = make_graph(20, [(u, v, "-") for u, v in itertools.combinations(range(20), 2)])
        o = DenseOracle(g)
        monkeypatch.setattr(dt, "triple_samples", lambda eps: 10**7)
        tracemalloc.start()
        try:
            v = dt.test_triangle_dense(o, "---", dt.DenseParams(eps=0.5, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not v.accept and v.queries_used == 3
        assert peak < 16 * 2**20

    def test_needs_three_nodes(self):
        g = make_graph(2, [(0, 1, Sign.PLUS)])
        with pytest.raises(ValueError, match="N >= 3"):
            dt.test_triangle_dense(DenseOracle(g), PPM, dt.DenseParams(eps=0.5))


class TestBudgets:
    @pytest.mark.parametrize("small", [False, True], ids=["default", "small"])
    def test_every_budget_bounds_its_tester(self, small, monkeypatch):
        if small:  # tester and budget read the same patched counts
            monkeypatch.setattr(dt, "C_EDGES", 1e-3)
            monkeypatch.setattr(dt, "triple_samples", lambda eps: 5)
            monkeypatch.setattr(dt, "node_samples", lambda eps: 3)
            monkeypatch.setattr(dt, "subset_size", lambda eps: 3)
        for n in (3, 4):
            for g in all_signed_graphs(n):
                for eps, sd in ((0.5, 0), (0.5, 1), (1.0, 2)):
                    budgets = (
                        (dt.test_triangle_dense(DenseOracle(g), PPM, dt.DenseParams(eps, sd)),
                         dt.triangle_budget(eps)),
                        (dt.test_balance_dense(DenseOracle(g), eps, sd), dt.balance_budget(eps)),
                        (dt.test_clusterability_dense(DenseOracle(g), eps, sd),
                         dt.clusterability_budget(eps)))
                    for v, budget in budgets:
                        assert v.queries_used <= budget


class TestBalanceDense:
    def test_one_sided_on_balanced_graphs(self):
        rng = np.random.default_rng(1)
        checked = 0
        for n in (2, 3, 4):
            for g in all_signed_graphs(n):
                if not exact.is_balanced(g).balanced:
                    continue
                o = DenseOracle(g)
                for _ in range(3):
                    assert dt.test_balance_dense(o, 0.9, rng).accept
                checked += 1
        assert checked > 300

    def test_far_instance_rejected_with_valid_witness(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 90))
        o = DenseOracle(g)
        rejects = 0
        for sd in range(50):
            v = dt.test_balance_dense(o, 0.1, sd)
            if not v.accept:
                rejects += 1
                assert exact.verify_witness(g, v.witness) is None
                assert sum(1 for s in v.witness.signs if s == Sign.MINUS) % 2 == 1
        assert rejects >= 45

    def test_two_nodes_always_accept(self):
        g = make_graph(2, [(0, 1, Sign.MINUS)])
        assert dt.test_balance_dense(DenseOracle(g), 0.1, 0).accept

    def test_budget_bound(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 40))
        o = DenseOracle(g)
        s = dt.node_samples(0.3)
        v = dt.test_balance_dense(o, 0.3, 7)
        assert v.queries_used <= s * s

    def test_full_read_flagged_exact(self):
        # 28 draws at eps 0.5 cover all 5 nodes: every pair is read
        v = dt.test_balance_dense(DenseOracle(_partial_bad_triangles(5, 1)), 0.5, 0)
        assert not v.accept and v.exact_fallback and v.queries_used == 10
        # 81 draws at eps 0.3 cannot cover 120 nodes
        v = dt.test_balance_dense(DenseOracle(_partial_bad_triangles(120, 40)), 0.3, 0)
        assert not v.exact_fallback and v.queries_used < 120 * 119 // 2

    def test_witness_uses_original_ids(self):
        # far instance with node ids that differ from induced positions
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 60))
        v = dt.test_balance_dense(DenseOracle(g), 0.1, 3)
        assert not v.accept
        assert all(0 <= u < 60 for u in v.witness.nodes)


class TestEstimateEdgeCount:
    def test_empty_graph(self):
        g = SignedGraph.from_edges(50, [])
        assert dt.estimate_edge_count(DenseOracle(g), 0.2, 0) == 0.0

    def test_complete_graph_exact_on_full_read(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 30, k=2))
        # q = ceil(8/0.01) = 800 >= C(30,2) = 435: reads everything once
        est = dt.estimate_edge_count(DenseOracle(g), 0.1, 0)
        assert est == g.num_edges

    def test_sampling_path_hits_hoeffding_bound(self):
        rng = np.random.default_rng(5)
        g = random_signed_graph(rng, 400, p_edge=0.5)
        m = g.num_edges
        o = DenseOracle(g)
        ok = sum(abs(dt.estimate_edge_count(o, 0.05, sd) - m) <= 0.05 * 400 * 400
                 for sd in range(100))
        assert ok >= 84  # contract: >= 5/6 of trials

    def test_sampling_path_query_budget(self):
        rng = np.random.default_rng(6)
        g = random_signed_graph(rng, 300, p_edge=0.3)
        o = DenseOracle(g)
        dt.estimate_edge_count(o, 0.05, 1)
        assert o.query_count == dt.pair_samples(0.05)


class TestClusterabilityDense:
    def test_eps_at_least_one_accepts_immediately(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 30))
        o = DenseOracle(g)
        v = dt.test_clusterability_dense(o, 1.0, 0)
        assert v.accept and v.queries_used == 0 and o.query_count == 0

    @pytest.mark.parametrize("eps", [1.5, math.inf])
    def test_eps_above_one_raises(self, eps):
        o = DenseOracle(triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS))
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\]"):
            dt.test_clusterability_dense(o, eps, 0)
        assert o.query_count == 0

    def test_clusterable_accepts(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 60, k=2))
        o = DenseOracle(g)
        assert all(dt.test_clusterability_dense(o, 0.2, sd).accept for sd in range(20))

    def test_far_instance_rejected_deterministically(self):
        # weak frustration 30 = eps*N^2, decision threshold 15; small N forces
        # the full-read paths so the estimate is exact
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 90))
        o = DenseOracle(g)
        eps = 30 / (90 * 90)
        for sd in range(5):
            v = dt.test_clusterability_dense(o, eps, sd)
            assert not v.accept
            assert v.exact_fallback
            assert v.details["estimate"] == pytest.approx(30.0)

    def test_rejection_rate_monotone_in_planted_density(self, monkeypatch):
        # fixed threshold 17 at N=150; rates measured ~0.10 / 0.40 / 0.78
        N = 150
        eps = 34 / (N * N)
        monkeypatch.setattr(dt, "subset_size", lambda eps: 100)
        rates = []
        for t in (10, 30, 50):
            o = DenseOracle(_partial_bad_triangles(N, t))
            rej = sum(not dt.test_clusterability_dense(o, eps, sd).accept for sd in range(200))
            rates.append(rej / 200)
        assert rates[0] <= rates[1] + 0.05
        assert rates[1] <= rates[2] + 0.05
        assert rates[2] - rates[0] > 0.3  # the signal itself

    def test_no_witness_two_sided(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 90))
        v = dt.test_clusterability_dense(DenseOracle(g), 30 / 8100, 0)
        assert v.witness is None


class TestFrustrationEstimate:
    def test_exact_on_full_read_far_instance(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 90))
        est = dt.frustration_estimate_dense(DenseOracle(g), 0.1, 0)
        assert est == pytest.approx(30.0)

    def test_exact_on_full_read_clusterable(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 80, k=3))
        est = dt.frustration_estimate_dense(DenseOracle(g), 0.1, 0)
        assert est == pytest.approx(0.0)

    def test_sampling_path_stays_within_contract(self, monkeypatch):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 300))
        o = DenseOracle(g)
        monkeypatch.setattr(dt, "subset_size", lambda eps: 80)
        for sd in range(30):
            est = dt.frustration_estimate_dense(o, 0.3, sd)
            assert abs(est - 100) <= 0.3 * 300 * 300

    def test_local_search_never_underestimates(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            g = random_signed_graph(rng, int(rng.integers(5, 11)), p_edge=0.5)
            for k in (2, 3, g.n):
                ls = dt._local_search_k_frustration(g, k, np.random.default_rng(1),
                                                 exact.folded_components(g, k))
                assert ls >= exact.k_frustration_index(g, k)

    def test_local_search_exact_on_clusterable(self):
        for seed in range(10):
            g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 40, seed=seed, d=6, k=3))
            assert dt._local_search_k_frustration(
                g, 20, np.random.default_rng(0), exact.folded_components(g, 20)) == 0

    def test_local_search_stops_before_a_pass_on_a_violation_free_start(self):
        # the positive-component start of a clusterable graph violates nothing
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 40, d=6, k=3))
        rng = mock.Mock(wraps=np.random.default_rng(0))
        rng.permutation.side_effect = AssertionError("a pass was started")
        assert dt._local_search_k_frustration(g, 20, rng, exact.folded_components(g, 20)) == 0

    def test_induced_count_skips_the_local_search_on_a_violation_free_start(self, monkeypatch):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 40, d=6, k=3))
        monkeypatch.setattr(dt, "_local_search_k_frustration", mock.Mock(side_effect=AssertionError))
        assert dt._induced_k_frustration(g, 20, np.random.default_rng(0)) == 0


class TestArrayPathReads:
    """An induced read of _ARRAY_READ_MIN nodes or more holds its graph as CSR
    arrays; a verdict that needs no witness, and one that lifts a witness,
    build no tuple rows for it."""

    @staticmethod
    def _verdict_and_reads(tester, g):
        reads, induced = [], DenseOracle.induced

        def keep(o, nodes):
            reads.append(induced(o, nodes))
            return reads[-1]

        with mock.patch.object(DenseOracle, "induced", keep):
            v = tester(DenseOracle(g))
        assert [h.n >= oracles._ARRAY_READ_MIN for h in reads] == [True]
        return v, reads[0]

    def test_accepting_verdicts_build_no_rows(self):
        g, _ = generate(GenSpec(BALANCED_TWO_SIDE, 600, seed=1))
        v, h = self._verdict_and_reads(lambda o: dt.test_balance_dense(o, 0.1, 3), g)
        assert v.accept and not v.exact_fallback
        edges = h.num_edges
        assert "adj" not in vars(h)  # nor did num_edges build them
        assert edges == sum(map(len, h.adj)) // 2
        # clusterable, so the folded start violates nothing and the count
        # table is never built; num_edges is read for the estimate
        v, h = self._verdict_and_reads(lambda o: dt.test_clusterability_dense(o, 0.7, 3), g)
        assert v.accept and v.details["estimate"] == 0.0 and not v.exact_fallback
        assert "adj" not in vars(h)

    def test_a_reject_lifts_a_witness_that_holds_on_the_graph(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 600, seed=1, k=3))
        v, h = self._verdict_and_reads(lambda o: dt.test_balance_dense(o, 0.1, 3), g)
        assert not v.accept and exact.verify_witness(g, v.witness) is None
        assert "adj" not in vars(h)  # the witness signs come from the BFS labels
