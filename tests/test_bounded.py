"""Bounded-degree testers: walk primitives, sampler exactness, witnesses."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from signedtest import bounded_testers as bt
from signedtest import exact
from signedtest.core import (
    Sign,
    SignedGraph,
    Witness,
    WitnessKind,
    midpoint,
    zaslavsky_transform,
)
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR,
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    FAMILIES,
    GenSpec,
    generate,
)
from signedtest.oracles import BoundedDegreeOracle, _chunked_draws, _chunked_integers

from conftest import (
    all_signed_graphs,
    make_graph,
    parity_search_walking_one_walk_at_a_time,
    triangle,
)

PPM = (Sign.PLUS, Sign.PLUS, Sign.MINUS)


def _ppm_triangle(d=2):
    return triangle(Sign.PLUS, Sign.PLUS, Sign.MINUS, d=d)


def _oracle(g):
    return BoundedDegreeOracle(g)


def _lazy_step(o, v, rng):
    """One lazy positive-subgraph walk step through the clusterability
    tester's step core, fed a uniform slot."""
    return bt._lazy_step(o, v, int(rng.integers(1, o.d + 1)))


def _gprime_steps(o, x, walks, rng):
    """Where `walks` walks at G2 node x stand after one step of the balance
    search's lockstep core, fed the search's own draws."""
    return np.concatenate([bt._lockstep(o, np.full(len(draws), 2 * x), draws)[:, 0] >> 1
                           for _, draws in bt._walk_blocks(rng, o.d, walks, 1)])


# walk-path constants used when exercising the sampling machinery on desk-
# scale instances (the defaults would fall back to reading the whole graph)
WALK_BAL = bt.BoundedConstants(allow_exact_fallback=False, c1=1.0, c2=0.02,
                               c3=0.05, walk_len_log_exponent=0)
WALK_CLU = bt.BoundedConstants(allow_exact_fallback=False, c4=8.0, c5=0.05,
                               c6=0.6, walk_len_log_exponent=0)


class TestLazyWalkStep:
    def test_isolated_node_stays(self):
        g = make_graph(3, [(0, 1, Sign.PLUS)], d=2)
        o = _oracle(g)
        rng = np.random.default_rng(0)
        assert all(_lazy_step(o, 2, rng) == 2 for _ in range(50))

    def test_full_degree_always_moves(self):
        g = make_graph(3, [(0, 1, Sign.PLUS), (0, 2, Sign.PLUS)], d=2)
        o = _oracle(g)
        rng = np.random.default_rng(1)
        moves = [_lazy_step(o, 0, rng) for _ in range(200)]
        assert 0 not in moves and {1, 2} == set(moves)

    def test_positive_restriction_rate(self):
        # 1 positive + 1 negative edge, d=4: restricted move probability 1/4
        g = make_graph(3, [(0, 1, Sign.PLUS), (0, 2, Sign.MINUS)], d=4)
        o = _oracle(g)
        rng = np.random.default_rng(2)
        n = 100_000
        outs = Counter(_lazy_step(o, 0, rng) for _ in range(n))
        assert outs[2] == 0  # never across the negative edge
        assert abs(outs[1] / n - 0.25) < 0.02
        assert o.query_count == n  # exactly one query per step


class TestGPrimeWalkStep:
    def test_subdivision_at_tight_bound_always_moves(self):
        g = _ppm_triangle(d=2)
        o = _oracle(g)
        rng = np.random.default_rng(3)
        outs = Counter(_gprime_steps(o, midpoint(3, 0, 1), 2000, rng).tolist())
        assert set(outs) == {0, 1}
        assert abs(outs[0] / 2000 - 0.5) < 0.05

    def test_single_negative_edge_rate(self):
        g = make_graph(2, [(0, 1, Sign.MINUS)], d=3)
        o = _oracle(g)
        rng = np.random.default_rng(4)
        n = 100_000
        moved = np.count_nonzero(_gprime_steps(o, 0, n, rng) == 1)
        assert abs(moved / n - 1 / 3) < 0.02

    def test_positive_edge_enters_subdivision(self):
        g = make_graph(2, [(0, 1, Sign.PLUS)], d=2)
        o = _oracle(g)
        rng = np.random.default_rng(5)
        outs = set(_gprime_steps(o, 0, 100, rng).tolist())
        assert outs <= {0, midpoint(2, 0, 1)}
        assert midpoint(2, 0, 1) in outs

    def test_transition_matrix_matches_explicit_gprime(self):
        # mixed 5-node graph; compare empirical rows to the lazy-walk matrix
        # of the materialized transform
        g = make_graph(
            5,
            [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS), (2, 3, Sign.PLUS),
             (3, 4, Sign.MINUS), (0, 4, Sign.PLUS), (1, 3, Sign.PLUS)],
            d=3,
        )
        gp, names = zaslavsky_transform(g)
        idx = {node: i for i, node in enumerate(names)}
        d = g.degree_bound
        expected = np.zeros((gp.n, gp.n))
        for i, node in enumerate(names):
            for j_nb in gp.adj[i]:
                expected[i, j_nb] += 1.0 / d
            expected[i, i] += 1.0 - len(gp.adj[i]) / d
        o = _oracle(g)
        rng = np.random.default_rng(6)
        per_state = 100_000
        for i, node in enumerate(names):
            counts = np.zeros(gp.n)
            for nxt, times in Counter(_gprime_steps(o, node, per_state, rng).tolist()).items():
                counts[idx[nxt]] += times
            tv = 0.5 * np.abs(counts / per_state - expected[i]).sum()
            assert tv <= 0.02, (node, tv)

    def test_occupation_uniform_on_five_cycle(self):
        # G' of the (+,+,-) triangle is a regular 5-cycle: lazy walk mixes
        # to uniform
        g = _ppm_triangle(d=2)
        o = _oracle(g)
        rng = np.random.default_rng(7)
        (_, draws), = bt._walk_blocks(rng, o.d, 1, 10_000)
        occ = Counter((bt._lockstep(o, np.array([0]), draws)[0] >> 1).tolist())
        assert len(occ) == 5
        tv = 0.5 * sum(abs(c / 10_000 - 0.2) for c in occ.values())
        assert tv <= 0.05


class TestSampleGPrimeNode:
    def test_edgeless_always_abstains(self):
        g = SignedGraph.from_edges(6, [], degree_bound=2)
        o = _oracle(g)
        rng = np.random.default_rng(8)
        assert all(bt.sample_gprime_node(o, rng) is None for _ in range(200))

    def test_all_negative_returns_originals_only(self):
        g, _ = generate(GenSpec(ALL_NEGATIVE_REGULAR, 10, seed=3, d=3))
        o = _oracle(g)
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(3000):
            x = bt.sample_gprime_node(o, rng)
            if x is not None:
                assert x < 10
                seen.add(x)
        assert len(seen) == 10

    @pytest.mark.parametrize(
        "g",
        [
            _ppm_triangle(d=2),
            make_graph(4, [(0, 1, Sign.PLUS), (0, 2, Sign.PLUS), (0, 3, Sign.PLUS)], d=3),
            make_graph(4, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS), (2, 3, Sign.PLUS)], d=2),
        ],
        ids=["triangle", "star", "path"],
    )
    def test_uniform_over_gprime_nodes(self, g):
        # lighter version of the acceptance-level chi^2 run
        gp, names = zaslavsky_transform(g)
        live = [x for i, x in enumerate(names) if gp.adj[i]]  # non-isolated
        o = _oracle(g)
        rng = np.random.default_rng(10)
        draws = 300_000
        hits = Counter()
        for _ in range(draws):
            x = bt.sample_gprime_node(o, rng)
            if x is not None:
                hits[x] += 1
        assert set(hits) == set(live)
        rate = sum(hits.values()) / draws
        expect_rate = len(live) / (4 * g.degree_bound * g.n)
        assert abs(rate - expect_rate) <= 0.01
        counts = [hits[x] for x in live]
        p = stats.chisquare(counts).pvalue
        assert p >= 0.01, (counts, p)


class TestOddCycleExtraction:
    def test_already_simple(self):
        walk = [0, 1, 2, 0]
        cyc = bt._extract_odd_cycle(walk)
        assert cyc == [0, 1, 2]

    def test_strips_even_detour(self):
        # 0-1-2-1-... detour (even) collapses away, leaving the odd core
        a, b, c, e = 0, 1, 2, 3
        walk = [a, b, e, b, c, a]  # edges: a-b, b-e, e-b, b-c, c-a (5 edges, odd)
        cyc = bt._extract_odd_cycle(walk)
        assert cyc == [a, b, c]

    def test_contract_five_cycle_to_triangle(self):
        cyc = [0, midpoint(3, 0, 1), 1, midpoint(3, 1, 2), 2]
        w = bt._contract_to_g_cycle(cyc, 3)
        assert w.nodes == (0, 1, 2)
        assert w.signs == (Sign.PLUS, Sign.PLUS, Sign.MINUS)
        assert exact.verify_witness(_ppm_triangle(), w) is None

    def test_contract_rotates_subdivision_start(self):
        cyc = [midpoint(3, 0, 1), 1, midpoint(3, 1, 2), 2, 0]
        w = bt._contract_to_g_cycle(cyc, 3)
        assert sorted(w.nodes) == [0, 1, 2]
        assert exact.verify_witness(_ppm_triangle(), w) is None


def _badcycle_search_probing_after_walking(o, s, m, length, rng):
    """Reference bad-cycle search: every walk draws its own slots and runs
    to its end, then every visited row is read in sorted node order."""
    parent = {s: None}
    for _ in range(m):
        x = s
        for slot in rng.integers(1, o.d + 1, size=length).tolist():
            v = bt._lazy_step(o, x, slot)
            if v not in parent:
                parent[v] = x
            x = v
    for u in sorted(parent):
        for v, sign in o.neighbors(u):
            if sign and v in parent:
                up, down = exact.forest_paths(parent, u, v)
                nodes = up + down[::-1]
                signs = [Sign.PLUS] * (len(nodes) - 1) + [Sign.MINUS]
                return Witness(WitnessKind.BAD_CYCLE, tuple(nodes), tuple(signs))
    return None


@pytest.mark.parametrize("d", [2, 6])
@pytest.mark.parametrize("m, length", [(1, 4097), (455, 9), (3, 1), (1000, 13)])
def test_chunked_walk_draws_equal_per_walk_draws(d, m, length):
    # after a scalar start draw, as in the testers: m walks of `length`
    # steps read from one chunked stream equal m per-walk draws, slots
    # (buffered 32-bit draws) and coins alike, and leave the stream alike
    per_walk, chunked = np.random.default_rng(7), np.random.default_rng(7)
    assert per_walk.integers(50_000) == chunked.integers(50_000)
    slots = _chunked_integers(chunked, 1, d + 1, m * length)
    assert ([list(itertools.islice(slots, length)) for _ in range(m)]
            == [per_walk.integers(1, d + 1, size=length).tolist() for _ in range(m)])
    coins = _chunked_draws(chunked.random, m * length)
    assert ([list(itertools.islice(coins, length)) for _ in range(m)]
            == [per_walk.random(length).tolist() for _ in range(m)])
    assert per_walk.integers(50_000) == chunked.integers(50_000)


@pytest.mark.parametrize("d", [2, 6, 300])
@pytest.mark.parametrize("walks, length", [(1, 4097), (455, 9), (600, 3), (1, 1)])
def test_lockstep_draws_equal_the_one_step_at_a_time_draws(d, walks, length):
    # the blocks hold, walk after walk, the slots and coins that walking one
    # step at a time reads from the two chunked streams in turn
    blocked, stepped = np.random.default_rng(3), np.random.default_rng(3)
    slots, coins = [], []
    for _, draws in bt._walk_blocks(blocked, d, walks, length):
        slots += draws[:, :, 0].ravel().tolist()
        coins += draws[:, :, 1].ravel().tolist()
    steps = walks * length
    want = list(zip(_chunked_integers(stepped, 1, d + 1, steps),
                    _chunked_draws(stepped.random, steps)))
    assert slots == [slot for slot, _ in want]
    # a midpoint moves to its smaller end when coin*d < 1, its larger when < 2
    assert coins == [0 if c * d < 1.0 else 1 if c * d < 2.0 else 2 for _, c in want]
    assert blocked.integers(50_000) == stepped.integers(50_000)


class TestBadCycleSearch:
    def test_clusterable_never_finds(self):
        for seed in range(5):
            g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 30, seed=seed, d=6, k=2))
            o = _oracle(g)
            rng = np.random.default_rng(seed)
            for s in range(0, 30, 7):
                assert bt.badcycle_search(o, s, 20, 5, rng) is None

    def test_triangle_found_with_high_probability(self):
        g = _ppm_triangle(d=2)
        found = 0
        for seed in range(1000):
            o = _oracle(g)
            w = bt.badcycle_search(o, 0, 50, 4, np.random.default_rng(seed))
            if w is not None:
                assert exact.verify_witness(g, w) is None
                found += 1
        assert found / 1000 >= 0.9

    def test_star_with_leaf_negative_edge(self):
        g = make_graph(
            5,
            [(0, 1, Sign.PLUS), (0, 2, Sign.PLUS), (0, 3, Sign.PLUS),
             (0, 4, Sign.PLUS), (1, 2, Sign.MINUS)],
            d=4,
        )
        found = 0
        for seed in range(200):
            w = bt.badcycle_search(_oracle(g), 0, 50, 4, np.random.default_rng(seed))
            if w is not None:
                assert exact.verify_witness(g, w) is None
                assert len(w.nodes) == 3
                found += 1
        assert found / 200 >= 0.9

    def test_detection_monotone_in_walk_count(self):
        rng_master = np.random.default_rng(11)
        for inst in range(5):
            g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 9, seed=inst))
            rates = []
            for m in (20, 200):
                hits = sum(
                    bt.badcycle_search(_oracle(g), 0, m, 3,
                                       np.random.default_rng(1000 * inst + t)) is not None
                    for t in range(200)
                )
                rates.append(hits / 200)
            assert rates[1] >= rates[0] - 0.05

    def test_query_budget(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 60, seed=0))
        o = _oracle(g)
        m, L = 10, 6
        bt.badcycle_search(o, 0, m, L, np.random.default_rng(2))
        # visited set on one triangle component has <= 3 nodes
        assert o.query_count <= m * L + o.d * 3

    def test_slot_draws_use_bounded_memory(self):
        # drawing all 10^6 slots before the first step peaks near 16 MB
        o = _oracle(make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS)], d=2))
        tracemalloc.start()
        try:
            w = bt.badcycle_search(o, 0, 1, 10**6, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is None and o.query_count == 10**6 + 3 * 2
        assert peak < 2**20

    @staticmethod
    def _parity_walks_on_positive_four_cycle(monkeypatch, walks, length):
        """(witness, queries, tracemalloc peak) of one balance-search start
        at node 0 of the balanced 4-cycle with d = 2."""
        o = _oracle(make_graph(4, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS),
                                   (2, 3, Sign.PLUS), (0, 3, Sign.PLUS)], d=2))
        monkeypatch.setattr(bt, "_draw_start", lambda o, rng: 0)
        p = bt.WalkParams(starts=1, walks_per_start=walks, walk_length=length)
        tracemalloc.start()
        try:
            w = bt._parity_search(o, p, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return w, o.query_count, peak

    def test_parity_search_uses_bounded_memory(self, monkeypatch):
        # 10^6 moves on the balanced 4-cycle: one first-arrival parent per
        # (node, parity) state, not one record per move
        w, queries, peak = self._parity_walks_on_positive_four_cycle(monkeypatch, 1000, 1000)
        assert w is None and queries > 0
        assert peak < 4 * 2**20

    def test_one_long_parity_walk_uses_bounded_memory(self, monkeypatch):
        # drawing a walk's 10^6 slots and coins before its first step peaks
        # near 46 MB
        w, queries, peak = self._parity_walks_on_positive_four_cycle(monkeypatch, 1, 10**6)
        assert w is None and queries > 0
        assert peak < 2 * 2**20

    def test_reject_stops_at_the_first_negative_edge_inside_the_visited_set(self):
        # walking all m*L = 10^4 steps before probing would spend more than
        # 10^4 queries; the triangle's negative edge shows within a few steps
        g = _ppm_triangle(d=2)
        o = _oracle(g)
        m, L = 100, 100
        w = bt.badcycle_search(o, 0, m, L, np.random.default_rng(0))
        assert w is not None and exact.verify_witness(g, w) is None
        assert o.query_count < m * L

    @pytest.mark.parametrize("family", FAMILIES)
    def test_early_exit_keeps_every_decision_and_every_accept_cost(self, family, monkeypatch):
        # against the search that walks all m*L steps and then probes the
        # visited rows in sorted order: each row is still read at most once,
        # so accepts cost the same; rejects stop early with another valid
        # witness
        for n in (300, 3000):
            g, _ = generate(GenSpec(family, n, d=None if family == DISJOINT_BAD_TRIANGLES else 4))
            for eps, sd in itertools.product((0.9, 0.5), range(8)):
                with monkeypatch.context() as patch:
                    patch.setattr(bt, "badcycle_search", _badcycle_search_probing_after_walking)
                    want = bt.test_clusterability_bounded(_oracle(g), eps, sd, constants=WALK_CLU)
                got = bt.test_clusterability_bounded(_oracle(g), eps, sd, constants=WALK_CLU)
                assert got.accept == want.accept and not got.exact_fallback
                if got.accept:
                    assert got.queries_used == want.queries_used
                else:
                    assert exact.verify_witness(g, got.witness) is None

    def test_walks_step_through_the_shared_core(self, monkeypatch):
        # a core that never moves: the walks then cost no query of their own,
        # and only the start node's row is probed (deg 1 < d, so 2 queries)
        calls = []
        monkeypatch.setattr(bt, "_lazy_step",
                            lambda o, v, slot: calls.append(v) or v)
        o = _oracle(make_graph(3, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS)], d=2))
        m, L = 7, 5
        assert bt.badcycle_search(o, 0, m, L, np.random.default_rng(0)) is None
        assert calls == [0] * (m * L)
        assert o.query_count == 2

    def test_exactly_one_negative_edge_in_witness(self):
        g = _ppm_triangle(d=2)
        w = bt.badcycle_search(_oracle(g), 0, 50, 5, np.random.default_rng(5))
        assert w is not None and w.kind is WitnessKind.BAD_CYCLE
        assert sum(1 for s in w.signs if s == Sign.MINUS) == 1


class TestReadWholeGraph:
    @pytest.mark.parametrize("spec", [
        GenSpec(CLUSTERABLE_COMMUNITIES, 60, seed=2, d=6, k=4),
        GenSpec(DISJOINT_BAD_TRIANGLES, 31, d=3),  # short rows and one isolated node
    ])
    def test_rebuilds_the_graph_at_one_query_per_slot_read(self, spec):
        g, _ = generate(spec)
        o = _oracle(g)
        h = bt.read_whole_graph(o)
        assert list(h.edges()) == list(g.edges())
        assert h == g and h.adj == g.adj
        assert o.query_count == sum(min(g.degree(v) + 1, g.degree_bound) for v in range(g.n))


class TestTriangleBounded:
    def test_one_sided_on_pattern_free(self):
        rng = np.random.default_rng(12)
        checked = 0
        for n in (3, 4):
            for g in all_signed_graphs(n):
                if exact.has_signed_triangle(g, PPM) is not None:
                    continue
                d = max(2, g.max_degree())
                gb = SignedGraph.from_edges(g.n, list(g.edges()), degree_bound=d)
                o = _oracle(gb)
                for _ in range(2):
                    assert bt.test_triangle_bounded(o, PPM, 0.5, rng).accept
                checked += 1
        assert checked > 500

    def test_far_instance_rejects(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 600))
        rejects = 0
        for sd in range(50):
            v = bt.test_triangle_bounded(_oracle(g), PPM, 0.1, sd)
            if not v.accept:
                assert exact.verify_witness(g, v.witness) is None
                rejects += 1
        assert rejects == 50  # every node lies on a pattern triangle

    def test_close_instance_no_crash_and_valid_witness_on_reject(self):
        edges = [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS), (0, 2, Sign.MINUS)]
        g = SignedGraph.from_edges(500, edges, degree_bound=2)
        for sd in range(20):
            v = bt.test_triangle_bounded(_oracle(g), PPM, 0.5, sd)
            if not v.accept:
                assert exact.verify_witness(g, v.witness) is None

    def test_budget(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 300))
        o = _oracle(g)
        v = bt.test_triangle_bounded(o, PPM, 0.25, 3)
        samples = math.ceil(10 / 0.25)
        assert v.queries_used <= samples * (o.d + o.d**2)

    def test_needs_degree_two(self):
        g = make_graph(3, [(0, 1, Sign.PLUS)], d=1)
        with pytest.raises(ValueError, match="degree bound >= 2"):
            bt.test_triangle_bounded(_oracle(g), PPM, 0.5, 0)


class TestBalanceBounded:
    def test_fallback_on_small_instances(self):
        # desk-scale budgets exceed N*d, so the tester reads the graph and
        # answers exactly
        g = _ppm_triangle(d=2)
        v = bt.test_balance_bounded(_oracle(g), 0.3, 0)
        assert not v.accept and v.exact_fallback
        assert exact.verify_witness(g, v.witness) is None
        assert v.queries_used <= g.n * 2

    def test_fallback_one_sided_exhaustive_small(self):
        for n in (2, 3, 4):
            for g in all_signed_graphs(n):
                if not exact.is_balanced(g).balanced:
                    continue
                d = max(2, g.max_degree())
                gb = SignedGraph.from_edges(g.n, list(g.edges()), degree_bound=d)
                assert bt.test_balance_bounded(_oracle(gb), 0.5, 1).accept

    def test_eps_at_least_one_falls_back(self):
        g, _ = generate(GenSpec(BALANCED_TWO_SIDE, 50, seed=0, d=4))
        v = bt.test_balance_bounded(_oracle(g), 1.0, 0)
        assert v.accept and v.exact_fallback

    def test_walk_path_one_sided(self):
        g, _ = generate(GenSpec(BALANCED_TWO_SIDE, 200, seed=0, d=4))
        for sd in range(20):
            o = _oracle(g)
            v = bt.test_balance_bounded(o, 0.9, sd, constants=WALK_BAL)
            assert v.accept and not v.exact_fallback
            assert v.queries_used > 0

    def test_walk_path_rejects_far_instance(self):
        g, _ = generate(GenSpec(ALL_NEGATIVE_REGULAR, 300, seed=1, d=3))
        rejects = 0
        for sd in range(30):
            v = bt.test_balance_bounded(_oracle(g), 0.9, sd, constants=WALK_BAL)
            if not v.accept:
                assert v.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
                assert exact.verify_witness(g, v.witness) is None
                rejects += 1
        assert rejects >= 25

    def test_walk_path_budget(self):
        g, _ = generate(GenSpec(ALL_NEGATIVE_REGULAR, 300, seed=2, d=3))
        o = _oracle(g)
        p = bt.balance_walk_schedule(300, 3, 0.9, WALK_BAL)
        v = bt.test_balance_bounded(o, 0.9, 5, constants=WALK_BAL)
        cap = p.starts * (16 * 3 * 4 + p.walks_per_start * p.walk_length)
        assert v.queries_used <= cap

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lockstep_keeps_every_decision_witness_and_accept_cost(self, family, monkeypatch):
        # against the search that walks one walk after another and stops at
        # the first collision: the same verdicts, and accepts cost the same;
        # a reject also pays for the rest of the block it collided in
        for n in (300, 3000):
            g, _ = generate(GenSpec(family, n, d=None if family == DISJOINT_BAD_TRIANGLES else 4))
            for eps, sd in itertools.product((0.9, 0.5), range(8)):
                with monkeypatch.context() as patch:
                    patch.setattr(bt, "_parity_search", parity_search_walking_one_walk_at_a_time)
                    want = bt.test_balance_bounded(_oracle(g), eps, sd, constants=WALK_BAL)
                got = bt.test_balance_bounded(_oracle(g), eps, sd, constants=WALK_BAL)
                assert ((got.accept, got.witness, got.exact_fallback)
                        == (want.accept, want.witness, want.exact_fallback))
                if got.accept:
                    assert got.queries_used == want.queries_used
                else:
                    p = bt.balance_walk_schedule(n, g.degree_bound, eps, WALK_BAL)
                    assert want.queries_used <= got.queries_used <= bt.balance_budget(p, g.degree_bound)

    def test_deterministic_per_seed(self):
        g, _ = generate(GenSpec(ALL_NEGATIVE_REGULAR, 200, seed=3, d=3))
        runs = [bt.test_balance_bounded(_oracle(g), 0.9, 42, constants=WALK_BAL)
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestClusterabilityBounded:
    def test_fallback_on_small_instances(self):
        g = _ppm_triangle(d=2)
        v = bt.test_clusterability_bounded(_oracle(g), 0.3, 0)
        assert not v.accept and v.exact_fallback
        assert exact.verify_witness(g, v.witness) is None

    def test_fallback_one_sided_exhaustive_small(self):
        for n in (2, 3, 4):
            for g in all_signed_graphs(n):
                if not exact.is_clusterable(g).clusterable:
                    continue
                d = max(2, g.max_degree())
                gb = SignedGraph.from_edges(g.n, list(g.edges()), degree_bound=d)
                assert bt.test_clusterability_bounded(_oracle(gb), 0.5, 1).accept

    def test_walk_path_one_sided(self):
        g, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 200, seed=0, d=6, k=4))
        for sd in range(20):
            o = _oracle(g)
            v = bt.test_clusterability_bounded(o, 0.5, sd, constants=WALK_CLU)
            assert v.accept and not v.exact_fallback

    def test_walk_path_rejects_far_instance(self):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 300))
        rejects = 0
        for sd in range(30):
            v = bt.test_clusterability_bounded(_oracle(g), 0.5, sd, constants=WALK_CLU)
            if not v.accept:
                assert v.witness.kind is WitnessKind.BAD_CYCLE
                assert exact.verify_witness(g, v.witness) is None
                rejects += 1
        assert rejects >= 25


class TestBudgets:
    # one step per walk makes the visited-set probes weigh most
    ONE_STEP = bt.BoundedConstants(allow_exact_fallback=False, c1=1.0, c2=1e-9, c3=1e-9,
                                   c4=1.0, c5=1e-9, c6=1e-9)
    FEW_STEPS = bt.BoundedConstants(allow_exact_fallback=False, c1=1.0, c2=2e-3, c3=2e-2,
                                    c5=0.5, c6=2.0, walk_len_log_exponent=0)

    @pytest.mark.parametrize("constants", [ONE_STEP, FEW_STEPS], ids=["one-step", "few-steps"])
    def test_every_budget_bounds_its_tester(self, constants):
        for n in (2, 3, 4):
            for g in all_signed_graphs(n):
                for d in (max(2, g.max_degree()), max(2, g.max_degree()) + 1):
                    gb = SignedGraph.from_edges(n, list(g.edges()), degree_bound=d)
                    for eps, sd in ((0.5, 0), (0.9, 1), (0.9, 2)):
                        budgets = (
                            (bt.test_triangle_bounded(_oracle(gb), PPM, eps, sd, constants),
                             bt.triangle_budget(eps, d, constants)),
                            (bt.test_balance_bounded(_oracle(gb), eps, sd, constants),
                             bt.balance_budget(bt.balance_walk_schedule(n, d, eps, constants), d)),
                            (bt.test_clusterability_bounded(_oracle(gb), eps, sd, constants),
                             bt.clusterability_budget(
                                 bt.cluster_walk_schedule(n, d, eps, constants), d)))
                        for v, budget in budgets:
                            assert not v.exact_fallback
                            assert v.queries_used <= budget


class TestConfigValidation:
    def test_constants_positive(self):
        with pytest.raises(ValueError, match="c2"):
            bt.BoundedConstants(c2=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="c5 must be positive and finite"):
                bt.BoundedConstants(c5=bad)

    def test_eps_validation(self):
        g = _ppm_triangle(d=2)
        with pytest.raises(ValueError, match="eps"):
            bt.test_balance_bounded(_oracle(g), 0.0, 0)
        with pytest.raises(ValueError, match="eps"):
            bt.test_clusterability_bounded(_oracle(g), -0.5, 0)
