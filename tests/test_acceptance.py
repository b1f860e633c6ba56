"""Acceptance gate: ten end-to-end checks, one test (and one pass/fail line)
per criterion.

Covers exhaustive small-graph ground truth, the subdivision transform, node
sampler statistics, one-sidedness sweeps, far-instance rejection rates,
query-scaling fits, cluster merging budgets, witness soundness, report
determinism, and the tolerant frustration estimator. Criteria that depend on
randomness pin seeds and assert at the stated tolerances; everything else is
exact.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from collections import Counter
from functools import lru_cache

import numpy as np
from scipy.stats import chisquare

from conftest import all_signed_graphs, random_signed_graph
from signedtest import cli, exact
from signedtest import bounded_testers as bt
from signedtest import dense_testers as dt
from signedtest.bounded_testers import sample_gprime_node
from signedtest.core import Sign, SignedGraph, save_edge_list, zaslavsky_transform
from signedtest.dense_testers import DenseParams, frustration_estimate_dense
from signedtest.generators import (
    ALL_NEGATIVE_REGULAR,
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    PLANTED_NEGATIVE_MATCHING,
    GenSpec,
    generate,
)
from signedtest.harness import (
    ExperimentConfig,
    load_instance,
    run_experiment,
    run_scaling,
    wilson,
    witness_from_json,
)
from signedtest.oracles import BoundedDegreeOracle, DenseOracle, RandomSource

PAT = (Sign.PLUS, Sign.PLUS, Sign.MINUS)

# walk budgets small enough to keep N=1000 accept sweeps quick; one-sidedness
# holds for any budget, so shrinking constants does not weaken the check
WALK_BAL = dict(allow_exact_fallback=False, c1=1.0, c2=0.005, c3=0.05,
                walk_len_log_exponent=0)
WALK_CLU = dict(allow_exact_fallback=False, c4=2.0, c5=0.05, c6=0.6,
                walk_len_log_exponent=0)

# every harness report produced by the gate; criterion 8 re-audits them
REPORTS: list[dict] = []


def _record(cfg: ExperimentConfig) -> dict:
    rep = run_experiment(cfg).to_dict()
    REPORTS.append(rep)
    return rep


def _line(num: int, msg: str) -> None:
    print(f"[criterion {num:02d}] PASS {msg}")


@lru_cache(maxsize=1)
def _graphs():
    return tuple(g for n in range(1, 6) for g in all_signed_graphs(n))


@lru_cache(maxsize=1)
def _balanced():
    return tuple(g for g in _graphs() if exact.is_balanced(g).balanced)


@lru_cache(maxsize=1)
def _clusterable():
    return tuple(g for g in _graphs() if exact.is_clusterable(g).clusterable)


@lru_cache(maxsize=1)
def _pattern_free():
    return tuple(g for g in _graphs() if exact.has_signed_triangle(g, PAT) is None)


def _with_bound(g: SignedGraph) -> SignedGraph:
    return dataclasses.replace(g, degree_bound=max(2, g.max_degree()))


# ---------------------------------------------------------------------------
# 1. exact checkers agree with the edit-distance ground truth
# ---------------------------------------------------------------------------

def test_criterion_01_exact_checkers_match_frustration():
    """is_balanced <=> frustration 0, is_clusterable <=> weak frustration 0,
    and balance implies clusterability, on every signed graph with n <= 5."""
    t0 = time.perf_counter()
    count = 0
    for g in _graphs():
        bal = exact.is_balanced(g).balanced
        clu = exact.is_clusterable(g).clusterable
        assert bal == (exact.frustration_index(g) == 0)
        assert clu == (exact.weak_frustration_index(g) == 0)
        if bal:
            assert clu
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 59809
    assert elapsed < 120
    _line(1, f"checkers match edit distances on all {count} graphs, n<=5 "
             f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. subdivision transform: balance <-> bipartiteness, distance preserved
# ---------------------------------------------------------------------------

def _is_bipartite(adj) -> bool:
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _bipartite_edit_distance_brute(gp) -> int:
    """Minimum monochromatic edge count over all 2^V colorings (bitmask)."""
    edges = [(u, v) for u in range(gp.n) for v in gp.adj[u] if u < v]
    masks = np.arange(1 << gp.n, dtype=np.int64)
    mono = np.zeros(1 << gp.n, dtype=np.int16)
    for u, v in edges:
        mono += (((masks >> u) ^ (masks >> v)) & 1 == 0).astype(np.int16)
    return int(mono.min())


def test_criterion_02_subdivision_transform_preserves_balance_and_distance():
    """Positive-edge subdivision maps balance to bipartiteness exactly and
    frustration index to bipartite edit distance (brute force both sides)."""
    for g in _graphs():
        gp, _ = zaslavsky_transform(g)
        assert _is_bipartite(gp.adj) == exact.is_balanced(g).balanced
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        n = int(rng.integers(3, 11))
        # keep the transformed graph at <= 16 nodes so the 2^V sweep is fast
        g = random_signed_graph(rng, n, p_edge=0.35, p_minus=0.6,
                                max_positive=16 - n)
        gp, _ = zaslavsky_transform(g)
        assert _bipartite_edit_distance_brute(gp) == exact.frustration_index(g)
    _line(2, "bipartiteness equivalence on 59809 graphs; edit distance equal "
             "on 200 random graphs, n<=10")


# ---------------------------------------------------------------------------
# 3. transformed-node sampler is uniform
# ---------------------------------------------------------------------------

def test_criterion_03_transformed_node_sampler_is_uniform():
    """chi^2 uniformity of sample_gprime_node over the subdivision graph's
    nodes at 10^6 draws on three fixed graphs, plus the exact return rate."""
    fixtures = [
        ("triangle", SignedGraph.from_edges(
            3, [(0, 1, Sign.PLUS), (1, 2, Sign.PLUS), (0, 2, Sign.MINUS)],
            degree_bound=2)),
        ("star", SignedGraph.from_edges(
            4, [(0, 1, Sign.PLUS), (0, 2, Sign.PLUS), (0, 3, Sign.MINUS)],
            degree_bound=3)),
        ("path", SignedGraph.from_edges(
            4, [(0, 1, Sign.PLUS), (1, 2, Sign.MINUS), (2, 3, Sign.PLUS)],
            degree_bound=2)),
    ]
    draws = 10**6
    pvals = []
    for idx, (name, g) in enumerate(fixtures):
        o = BoundedDegreeOracle(g)
        rng = RandomSource(300 + idx).generator()
        counts: Counter = Counter()
        returned = 0
        for _ in range(draws):
            node = sample_gprime_node(o, rng)
            if node is not None:
                counts[node] += 1
                returned += 1
        _, names = zaslavsky_transform(g)
        f_obs = [counts[nm] for nm in names]
        assert all(c > 0 for c in f_obs), f"{name}: some node never sampled"
        p = chisquare(f_obs).pvalue
        assert p >= 0.01, f"{name}: chi^2 p={p:.4f}"
        rate = returned / draws
        expect = len(names) / (4 * g.degree_bound * g.n)
        assert abs(rate - expect) <= 0.01, f"{name}: rate {rate} vs {expect}"
        pvals.append(p)
    _line(3, f"uniform on 3 fixed graphs at 1e6 draws "
             f"(chi^2 p values {', '.join(f'{p:.3f}' for p in pvals)})")


# ---------------------------------------------------------------------------
# 4. one-sided testers never reject property holders
# ---------------------------------------------------------------------------

def test_criterion_04_one_sided_testers_never_false_reject():
    """Zero rejects for the five one-sided testers over every property-holding
    graph with n <= 5 x 100 trials, and over generated N=1000 instances x 50
    seeds (both the exact-fallback and the forced walk paths)."""
    trials = 0

    for gi, g in enumerate(_balanced()):
        if g.n < 2:
            continue
        o = DenseOracle(g)
        rng = RandomSource(410).stream(gi)
        for _ in range(100):
            assert dt.test_balance_dense(o, 0.9, rng).accept
            trials += 1
        # budget covers the whole graph here, so one pass is exhaustive
        assert dt.test_balance_dense(o, 0.5, rng).accept
        trials += 1

    for gi, g in enumerate(_pattern_free()):
        if g.n < 3:
            continue
        o = DenseOracle(g)
        rng = RandomSource(411).stream(gi)
        for _ in range(100):
            assert dt.test_triangle_dense(o, PAT, DenseParams(eps=1.0, seed=rng)).accept
            trials += 1

    for gi, g in enumerate(_balanced()):
        if g.n < 2:
            continue
        o = BoundedDegreeOracle(_with_bound(g))
        rng = RandomSource(412).stream(gi)
        for _ in range(100):
            assert bt.test_balance_bounded(o, 1.0, rng).accept
            trials += 1

    for gi, g in enumerate(_clusterable()):
        if g.n < 2:
            continue
        o = BoundedDegreeOracle(_with_bound(g))
        rng = RandomSource(413).stream(gi)
        for _ in range(100):
            assert bt.test_clusterability_bounded(o, 1.0, rng).accept
            trials += 1

    for gi, g in enumerate(_pattern_free()):
        o = BoundedDegreeOracle(_with_bound(g))
        rng = RandomSource(414).stream(gi)
        for _ in range(100):
            assert bt.test_triangle_bounded(o, PAT, 1.0, rng).accept
            trials += 1

    two_side_dense = GenSpec(BALANCED_TWO_SIDE, 1000)
    two_side_sparse = GenSpec(BALANCED_TWO_SIDE, 1000, d=4)
    communities = GenSpec(CLUSTERABLE_COMMUNITIES, 1000, d=6, k=5)
    big_runs = [
        ExperimentConfig(property="balance", model="dense", eps=0.9,
                         instance=two_side_dense, trials=50, seed=420),
        ExperimentConfig(property="balance", model="dense", eps=0.5,
                         instance=two_side_dense, trials=50, seed=421),
        ExperimentConfig(property="triangle", model="dense", eps=0.5,
                         pattern="++-", instance=two_side_dense, trials=50, seed=422),
        ExperimentConfig(property="balance", model="bounded", eps=0.9,
                         instance=two_side_sparse, trials=50, seed=423),
        ExperimentConfig(property="balance", model="bounded", eps=0.9,
                         instance=two_side_sparse, trials=50, seed=424, **WALK_BAL),
        ExperimentConfig(property="clusterability", model="bounded", eps=0.9,
                         instance=communities, trials=50, seed=425),
        ExperimentConfig(property="clusterability", model="bounded", eps=0.9,
                         instance=communities, trials=50, seed=426, **WALK_CLU),
        ExperimentConfig(property="triangle", model="bounded", eps=0.5,
                         pattern="++-", instance=two_side_sparse, trials=50, seed=427),
    ]
    for cfg in big_runs:
        rep = _record(cfg)
        assert rep["aggregates"]["rejects"] == 0, rep["config"]
        trials += rep["aggregates"]["trials"]
    # the sweep must cover both code paths of each walk tester
    assert any(r["trials"][0]["exact_fallback"] for r in REPORTS)
    assert any(not r["trials"][0]["exact_fallback"] for r in REPORTS)

    _line(4, f"zero false rejects across {trials} trials "
             f"(exhaustive n<=5 and generated N=1000)")


# ---------------------------------------------------------------------------
# 5. far instances are rejected at desk scale
# ---------------------------------------------------------------------------

def _planted_triangle_graph(n: int = 300, families: int = 15) -> SignedGraph:
    """Circulant with `families` edge-disjoint difference classes (a, b, a+b),
    signs (+, +, -). Every edge lies in exactly one planted triangle, so
    removing all of them takes >= families*n edits: 4500 = 0.05*n^2 here."""
    edges = set()
    for f in range(families):
        a, b = 6 * f + 1, 6 * f + 2
        for diff, s in ((a, Sign.PLUS), (b, Sign.PLUS), (a + b, Sign.MINUS)):
            for i in range(n):
                u, v = i, (i + diff) % n
                edges.add((min(u, v), max(u, v), s))
    g = SignedGraph.from_edges(n, sorted(edges))
    assert g.num_edges == 3 * families * n
    for i in range(0, n, 37):  # spot check the planted pattern
        a, b = 1, 2
        tri = (g.sign_of(i, (i + a) % n), g.sign_of((i + a) % n, (i + a + b) % n),
               g.sign_of(i, (i + a + b) % n))
        assert tuple(sorted(tri)) == exact.triangle_pattern(PAT)
    return g


def test_criterion_05_far_instances_rejected(tmp_path):
    """Every tester drives its error probability below 1/3 on a far instance:
    Wilson 95% lower bound >= 2/3 over 50 seeded trials per experiment."""
    planted = tmp_path / "planted.sgl"
    save_edge_list(_planted_triangle_graph(), planted)

    experiments = [
        ("dense balance, disjoint bad triangles N=300 eps=0.1",
         ExperimentConfig(property="balance", model="dense", eps=0.1,
                          instance=GenSpec(DISJOINT_BAD_TRIANGLES, 300),
                          trials=50, seed=501), "reject"),
        ("dense triangle, planted circulant N=300 eps=0.05",
         ExperimentConfig(property="triangle", model="dense", eps=0.05,
                          pattern="++-", instance=str(planted),
                          trials=50, seed=502), "reject"),
        ("dense clusterability, disjoint bad triangles N=300 eps=1/900",
         ExperimentConfig(property="clusterability", model="dense", eps=1.0 / 900.0,
                          instance=GenSpec(DISJOINT_BAD_TRIANGLES, 300),
                          trials=50, seed=503), "reject"),
        ("dense clusterability accept, communities N=200 eps=0.2",
         ExperimentConfig(property="clusterability", model="dense", eps=0.2,
                          instance=GenSpec(CLUSTERABLE_COMMUNITIES, 200, d=6, k=5),
                          trials=50, seed=504), "accept"),
        ("bounded triangle, disjoint bad triangles N=3000 d=2 eps=0.1",
         ExperimentConfig(property="triangle", model="bounded", eps=0.1,
                          pattern="++-",
                          instance=GenSpec(DISJOINT_BAD_TRIANGLES, 3000, d=2),
                          trials=50, seed=505), "reject"),
        ("bounded balance, all-negative 3-regular N=1000 eps=0.01",
         ExperimentConfig(property="balance", model="bounded", eps=0.01,
                          instance=GenSpec(ALL_NEGATIVE_REGULAR, 1000, d=3),
                          trials=50, seed=506), "reject"),
        ("bounded clusterability, disjoint bad triangles N=3000 d=2 eps=0.05",
         ExperimentConfig(property="clusterability", model="bounded", eps=0.05,
                          instance=GenSpec(DISJOINT_BAD_TRIANGLES, 3000, d=2),
                          trials=50, seed=507), "reject"),
        ("bounded clusterability, planted negative matching N=2000 d=8",
         ExperimentConfig(property="clusterability", model="bounded", eps=0.04,
                          instance=GenSpec(PLANTED_NEGATIVE_MATCHING, 2000, d=8,
                                           planted_fraction=0.05),
                          trials=50, seed=508), "reject"),
    ]
    bounds = []
    for desc, cfg, want in experiments:
        t0 = time.perf_counter()
        rep = _record(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"{desc}: took {elapsed:.0f}s"
        agg = rep["aggregates"]
        if want == "reject":
            low = agg["wilson_low"]
        else:
            low = wilson(agg["trials"] - agg["rejects"], agg["trials"])[0]
        assert low >= 2 / 3, f"{desc}: Wilson lower bound {low:.3f}"
        bounds.append(low)
    _line(5, f"8 far/close experiments, Wilson lower bounds all >= "
             f"{min(bounds):.3f}")


# ---------------------------------------------------------------------------
# 6. query scaling
# ---------------------------------------------------------------------------

def test_criterion_06_query_scaling_exponents():
    """Walk testers stay sublinear (fitted exponent <= 0.65 over N in 1e3..1e5)
    and dense tester budgets do not grow with N (|exponent| <= 0.1)."""
    runs = [
        ("bounded balance",
         ExperimentConfig(property="balance", model="bounded", eps=0.9,
                          instance=GenSpec(BALANCED_TWO_SIDE, 100, d=4),
                          trials=3, seed=601, **WALK_BAL),
         [1000, 10000, 100000], 0.65, False),
        ("bounded clusterability",
         ExperimentConfig(property="clusterability", model="bounded", eps=0.9,
                          instance=GenSpec(CLUSTERABLE_COMMUNITIES, 100, d=6, k=10),
                          trials=3, seed=602, **WALK_CLU),
         [1000, 10000, 100000], 0.65, False),
        ("dense balance",
         ExperimentConfig(property="balance", model="dense", eps=0.5,
                          instance=GenSpec(BALANCED_TWO_SIDE, 100, d=4),
                          trials=10, seed=603),
         [100, 1000, 10000], 0.1, True),
        ("dense triangle",
         ExperimentConfig(property="triangle", model="dense", eps=0.5, pattern="++-",
                          instance=GenSpec(CLUSTERABLE_COMMUNITIES, 100, d=6, k=5),
                          trials=10, seed=604),
         [100, 1000, 10000], 0.1, True),
        ("dense clusterability",
         ExperimentConfig(property="clusterability", model="dense", eps=0.9,
                          instance=GenSpec(CLUSTERABLE_COMMUNITIES, 100, d=6, k=10),
                          trials=5, seed=605),
         [1000, 10000, 100000], 0.1, True),
    ]
    fitted = []
    for name, cfg, n_list, limit, two_sided_bound in runs:
        table = run_scaling(cfg, n_list)
        exp = table["fitted_exponent"]
        if two_sided_bound:
            assert abs(exp) <= limit, f"{name}: exponent {exp:.3f}"
        else:
            assert 0.0 < exp <= limit, f"{name}: exponent {exp:.3f}"
        fitted.append(f"{name} {exp:+.3f}")
    _line(6, "; ".join(fitted))


# ---------------------------------------------------------------------------
# 7. merging small clusters respects the budget
# ---------------------------------------------------------------------------

def _violations(g: SignedGraph, assignment) -> int:
    return sum(1 for u, v, s in g.edges()
               if (s == Sign.PLUS) != (assignment[u] == assignment[v]))


def _random_clusterable(rng, n: int) -> SignedGraph:
    """Random clusterable graph: random partition, positive edges inside,
    negative across, each pair present with probability 1/2."""
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            s = Sign.PLUS if labels[u] == labels[v] else Sign.MINUS
            edges.append((u, v, s))
    return SignedGraph.from_edges(n, edges)


def test_criterion_07_cluster_merging_respects_budgets():
    """Merging sub-threshold clusters leaves <= ceil(1/eps) clusters and the
    merged partition violates <= 4*eps*n^2 edges; exhaustive for n <= 5 and
    on random clusterable graphs up to n = 10."""
    eps_values = (0.5, 1 / 3, 0.25)
    checked = 0

    def check(g: SignedGraph, clustering) -> None:
        nonlocal checked
        for eps in eps_values:
            merged = exact.merge_small_clusters(clustering, g.n, eps)
            assert merged.k <= math.ceil(1 / eps - 1e-9)
            assert set(merged.assignment) == set(range(merged.k))
            assert _violations(g, merged.assignment) <= 4 * eps * g.n * g.n
            checked += 1

    for g in _clusterable():
        check(g, exact.is_clusterable(g).clustering)
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = _random_clusterable(rng, int(rng.integers(6, 11)))
        res = exact.is_clusterable(g)
        assert res.clusterable
        check(g, res.clustering)
    _line(7, f"{checked} merge checks within both budgets")


# ---------------------------------------------------------------------------
# 8. witness soundness across all acceptance runs
# ---------------------------------------------------------------------------

def test_criterion_08_all_reject_witnesses_verify():
    """Re-verify, from scratch, every witness attached to every reject row of
    every report the gate produced. One-sided testers must attach one to each
    reject; the tolerant dense clusterability tester is estimate-based and
    never carries one."""
    assert REPORTS, "no recorded runs; run the full acceptance module"
    rejects = witnesses = 0
    for rep in REPORTS:
        cfg = rep["config"]
        one_sided = not (cfg["model"] == "dense"
                         and cfg["property"] == "clusterability")
        inst = cfg["instance"]
        if "genspec" in inst:
            g, _ = generate(GenSpec(**inst["genspec"]))
        else:
            g = load_instance(ExperimentConfig(
                property=cfg["property"], model=cfg["model"], eps=cfg["eps"],
                instance=inst["path"], d=cfg["d"], trials=1))
        for row in rep["trials"]:
            if row["decision"] != "reject":
                continue
            rejects += 1
            if not one_sided:
                assert row["witness"] is None
                continue
            assert row["witness"] is not None, cfg
            err = exact.verify_witness(g, witness_from_json(row["witness"]))
            assert err is None, f"{cfg}: {err}"
            assert row["witness_valid"] is True
            witnesses += 1
    assert rejects > 0 and witnesses > 0
    _line(8, f"{witnesses} witnesses re-verified across {rejects} rejects "
             f"in {len(REPORTS)} reports")


# ---------------------------------------------------------------------------
# 9. CLI reports are deterministic
# ---------------------------------------------------------------------------

def _bytes_without_wall_time(path) -> bytes:
    lines = path.read_bytes().split(b"\n")
    return b"\n".join(ln for ln in lines if b"wall_time" not in ln)


def test_criterion_09_cli_reports_deterministic(tmp_path):
    """Repeated `test` and `bench` invocations with equal flags emit
    byte-identical JSON once wall-time lines are removed."""
    test_flags = ["test", "--model", "bounded", "--property", "clusterability",
                  "--eps", "0.2", "--trials", "5", "--seed", "11",
                  "--family", "disjoint-bad-triangles", "--n", "120"]
    bench_flags = ["bench", "--model", "bounded", "--property", "balance",
                   "--eps", "0.9", "--trials", "2", "--seed", "3",
                   "--family", "balanced-two-side", "--n", "100", "--d", "4",
                   "--n-list", "150,300,600", "--no-exact-fallback",
                   "--c1", "1.0", "--c2", "0.02", "--c3", "0.05",
                   "--walk-len-log-exponent", "0"]
    for base, flags in (("t", test_flags), ("b", bench_flags)):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{base}{i}.json"
            assert cli.main(flags + ["--out", str(out)]) == 0
            outs.append(_bytes_without_wall_time(out))
        assert outs[0] == outs[1]
        assert len(outs[0]) > 100
    _line(9, "test and bench reports byte-identical across reruns "
             "(wall-time lines excluded)")


# ---------------------------------------------------------------------------
# 10. tolerant frustration estimator accuracy
# ---------------------------------------------------------------------------

def test_criterion_10_frustration_estimator_accuracy():
    """frustration_estimate_dense lands within eps*N^2 of the true weak
    frustration in >= 2/3 of 100 trials, on a far and on a clusterable
    instance, eps = 0.1."""
    eps = 0.1
    cases = []
    g_far, meta = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 200))
    assert meta["distance"]["kind"] == "exact"
    cases.append(("disjoint bad triangles N=200", g_far,
                  float(meta["distance"]["edits_lower"])))
    g_close, _ = generate(GenSpec(CLUSTERABLE_COMMUNITIES, 200, d=6, k=5))
    cases.append(("clusterable communities N=200", g_close, 0.0))

    hits_all = []
    for name, g, truth in cases:
        tol = eps * g.n * g.n
        hits = 0
        for t in range(100):
            o = DenseOracle(g)
            est = frustration_estimate_dense(o, eps, RandomSource(1000).stream(t))
            if abs(est - truth) <= tol:
                hits += 1
        assert hits >= 67, f"{name}: only {hits}/100 within {tol:g} of {truth:g}"
        hits_all.append(f"{name} {hits}/100")
    _line(10, "; ".join(hits_all))
