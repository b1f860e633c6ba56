"""Dense-model property testers driven by adjacency-matrix queries.

Three testers plus the edge and frustration estimators they build on. The
triangle and balance testers are one-sided: a Reject always carries a witness
that ``exact.verify_witness`` accepts against the backing graph. The
clusterability tester is tolerant and two-sided: it estimates the weak
frustration index and thresholds it, so it returns no witness.

Sampling is with replacement throughout. The balance and clusterability
testers drop repeated nodes before reading the induced subgraph, the triangle
tester skips a triple with a repeated node without querying it, and the edge
estimator keeps repeated pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import exact
from .core import SignedGraph, Witness, WitnessKind
from .oracles import DenseOracle, Verdict, _as_rng, _chunked_integers

# Budget constants: the paper fixes them only up to O(.), so these are
# engineering choices, sized so that the desk-scale statistical checks pass
# with margin. No run changes them; a calibration changes them here.
C_TRIANGLE = 10.0   # triple_samples = ceil(C_TRIANGLE / eps^3)
C_BALANCE = 20.0    # node samples   = ceil(C_BALANCE * ln(1/eps) / eps)
C_EDGES = 8.0       # pair samples   = ceil(C_EDGES / eps^2)
C_CLUSTER = 6.0     # subset size    = ceil(C_CLUSTER * k * ln(k) / eps^2)

# Induced subgraphs at or below this size get exact weak frustration;
# larger ones use the local-search overestimate.
_EXACT_INDUCED_CAP = 10

LOCAL_SEARCH_RESTARTS = 10
LOCAL_SEARCH_MOVE_FACTOR = 200


@dataclass(frozen=True)
class DenseParams:
    """The run arguments of the dense triangle tester."""

    eps: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError("eps must be in (0, 1]")


def triple_samples(eps: float) -> int:
    return max(1, math.ceil(C_TRIANGLE / eps**3))


def node_samples(eps: float) -> int:
    return max(1, math.ceil(C_BALANCE * math.log(1.0 / eps) / eps))


def pair_samples(eps: float) -> int:
    return max(1, math.ceil(C_EDGES / eps**2))


def subset_size(eps: float) -> int:
    k = math.ceil(8.0 / eps)
    return max(1, math.ceil(C_CLUSTER * k * math.log(max(k, 2)) / eps**2))


# Query budgets: the most queries a tester can spend at this eps. Each tester
# asserts that it stayed within its budget.

def triangle_budget(eps: float) -> int:
    return 3 * triple_samples(eps)


def balance_budget(eps: float) -> int:
    s = node_samples(eps)
    return s * (s - 1) // 2


def clusterability_budget(eps: float) -> int:
    """Also the budget of frustration_estimate_dense."""
    s = subset_size(eps)
    return pair_samples(eps / 8.0) + s * (s - 1) // 2


# ---------------------------------------------------------------------------
# triangle tester
# ---------------------------------------------------------------------------

def test_triangle_dense(o: DenseOracle, pattern, p: DenseParams) -> Verdict:
    """Sample uniform node triples and reject on the first one inducing a
    triangle whose sign multiset matches the pattern."""
    if o.n < 3:
        raise ValueError("triangle testing needs N >= 3")
    pat = exact.triangle_pattern(pattern)
    rng = _as_rng(p.seed)
    start = o.query_count
    witness = None
    for a, b, c in _chunked_integers(rng, 0, o.n, triple_samples(p.eps), 3):
        if a == b or b == c or a == c:
            continue  # degenerate triple, nothing to query
        s_ab = o.query(a, b)
        if s_ab is None:
            continue
        s_bc = o.query(b, c)
        if s_bc is None:
            continue
        s_ca = o.query(c, a)
        if s_ca is None:
            continue
        if tuple(sorted((s_ab, s_bc, s_ca))) == pat:
            witness = Witness(WitnessKind.SIGNED_TRIANGLE, (a, b, c), (s_ab, s_bc, s_ca))
            break
    used = o.query_count - start
    assert used <= triangle_budget(p.eps)
    return Verdict(witness is None, witness=witness, queries_used=used)


# ---------------------------------------------------------------------------
# node sampling for induced reads
# ---------------------------------------------------------------------------

def _sample_unique_nodes(rng, n: int, samples: int) -> list[int]:
    if samples >= n:
        return list(range(n))
    drawn = rng.integers(0, n, size=samples)
    return sorted(set(drawn.tolist()))


# ---------------------------------------------------------------------------
# balance tester
# ---------------------------------------------------------------------------

def test_balance_dense(o: DenseOracle, eps: float, seed) -> Verdict:
    """Sample nodes, read the whole induced subgraph, accept iff it is
    balanced. Unbalance witnesses lift back to original node ids. When the
    draw covers all N nodes the read is the whole graph and the answer is
    exact, flagged as ``exact_fallback``."""
    if o.n < 2:
        raise ValueError("balance testing needs N >= 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    nodes = _sample_unique_nodes(_as_rng(seed), o.n, node_samples(eps))
    start = o.query_count
    induced = o.induced(nodes)
    used = o.query_count - start
    assert used <= balance_budget(eps)
    w = exact.is_balanced(induced).witness
    if w is not None:  # lift the witness back to original node ids
        w = Witness(w.kind, tuple(nodes[i] for i in w.nodes), w.signs)
    return Verdict(w is None, witness=w, queries_used=used, exact_fallback=len(nodes) == o.n)


# ---------------------------------------------------------------------------
# edge-count estimator
# ---------------------------------------------------------------------------

def estimate_edge_count(o: DenseOracle, eps: float, seed) -> float:
    """Estimate |E| to additive error eps*N^2 by sampling off-diagonal
    adjacency entries. If the sample budget already covers every pair, read
    them all once and return the exact count."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = o.n
    if n < 2:
        return 0.0
    q = pair_samples(eps)
    total_pairs = n * (n - 1) // 2
    if q >= total_pairs:
        return float(o.induced(range(n)).num_edges)
    rng = _as_rng(seed)
    us = rng.integers(0, n, size=q)
    vs = rng.integers(0, n - 1, size=q)
    vs = vs + (vs >= us)  # uniform off-diagonal ordered pairs
    hits = sum(o.query(u, v) is not None for u, v in zip(us.tolist(), vs.tolist()))
    return hits / q * total_pairs


# ---------------------------------------------------------------------------
# weak-frustration estimation and the tolerant clusterability tester
# ---------------------------------------------------------------------------

def _local_search_k_frustration(g: SignedGraph, k: int, rng, start: list[int]) -> int:
    """Greedy local search for a k-clustering with few violated signs, from
    the labels ``start`` first (moved in place), then from random ones.

    Only moves single nodes between clusters, accepting strict improvements.
    The result is the violation count of a concrete assignment, so it can
    only overestimate the true k-frustration index.

    Each restart keeps pull[v][c], v's positive minus negative neighbours in
    cluster c, only for clusters holding a neighbour (at most n + 2m entries).
    Moving v from a to t changes the count by pull[v][a] - pull[v][t]: O(1)
    per scored candidate, O(deg v) per move. The search stops at count 0.
    """
    n = g.n
    k = min(k, n)
    adj = g.adj
    best = math.inf
    move_budget = LOCAL_SEARCH_MOVE_FACTOR * n * k
    for restart in range(LOCAL_SEARCH_RESTARTS):
        assign = start if restart == 0 else rng.integers(0, k, size=n).tolist()
        sizes = [0] * k
        for c in assign:
            sizes[c] += 1
        # lazy stack of empty cluster ids (entries may go stale after moves)
        empties = [c for c in range(k - 1, -1, -1) if sizes[c] == 0]
        pull = [{} for _ in range(n)]
        twice = 0  # each violated edge counts at both ends
        for v, row in enumerate(adj):
            pv, own = pull[v], assign[v]
            for u, s in row:
                c = assign[u]
                pv[c] = pv.get(c, 0) + 1 - 2 * s
                twice += (c != own) ^ s
        cur = twice // 2
        improved = True
        while improved and move_budget > 0 and cur:
            improved = False
            for v in rng.permutation(n).tolist():
                candidates = {assign[u] for u, _ in adj[v]}
                while empties and sizes[empties[-1]] != 0:
                    empties.pop()
                if empties:
                    candidates.add(empties[-1])
                old = assign[v]
                candidates.discard(old)
                pv = pull[v]
                here = pv.get(old, 0)
                for target in candidates:
                    move_budget -= 1
                    d = here - pv.get(target, 0)
                    if d < 0:
                        assign[v] = target
                        sizes[old] -= 1
                        sizes[target] += 1
                        if sizes[old] == 0:
                            empties.append(old)
                        for u, s in adj[v]:
                            pu, w = pull[u], 1 - 2 * s
                            pu[old] = pu.get(old, 0) - w
                            if not pu[old]:  # rows keep only clusters holding a neighbour
                                del pu[old]
                            pu[target] = pu.get(target, 0) + w
                        cur += d
                        improved = True
                        break
                if move_budget <= 0 or not cur:
                    break
        best = min(best, cur)
        if best == 0:
            break
    return int(best)


def _induced_k_frustration(g: SignedGraph, k: int, rng) -> int:
    if g.n <= _EXACT_INDUCED_CAP:
        return exact.k_frustration_index(g, min(k, g.n))
    start = exact.folded_components(g, k)
    if not exact.clustering_violations(g, start):  # the count table is not needed
        return 0
    return _local_search_k_frustration(g, k, rng, start)


def _estimate_weak_frustration(o: DenseOracle, eps: float, seed):
    """Shared core: returns (estimate, queries_used, full_read_flag)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = o.n
    rng = _as_rng(seed)
    k = math.ceil(8.0 / eps)
    start = o.query_count
    m_hat = estimate_edge_count(o, eps / 8.0, rng)
    nodes = _sample_unique_nodes(rng, n, subset_size(eps))
    u = len(nodes)
    est = 0.0
    if u >= 2:
        induced = o.induced(nodes)
        frustr = _induced_k_frustration(induced, k, rng)
        satisfied = induced.num_edges - frustr
        # rescale satisfied constraints by the exact pair ratio; the naive
        # (n/s)^2 factor is biased once duplicate draws are discarded
        scale = (n * (n - 1)) / (u * (u - 1))
        est = max(0.0, m_hat - satisfied * scale)
    used = o.query_count - start
    assert used <= clusterability_budget(eps)
    return est, used, u >= n


def frustration_estimate_dense(o: DenseOracle, eps: float, seed) -> float:
    """Estimate the weak frustration index to additive error eps*N^2."""
    est, _, _ = _estimate_weak_frustration(o, eps, seed)
    return est


def test_clusterability_dense(o: DenseOracle, eps: float, seed) -> Verdict:
    """Tolerant two-sided tester: accept iff the estimated weak frustration
    is at most (eps/2)*N^2. Targets accepting eps/4-close inputs and
    rejecting eps-far ones. No witness (the evidence is an estimate, not a
    forbidden substructure)."""
    if o.n < 2:
        raise ValueError("clusterability testing needs N >= 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if eps == 1.0:
        # every graph is 1-close to clusterable (delete all edges)
        return Verdict(True, queries_used=0, details={"estimate": 0.0, "threshold": None})
    est, used, full_read = _estimate_weak_frustration(o, eps, seed)
    threshold = (eps / 2.0) * o.n * o.n
    return Verdict(est <= threshold, queries_used=used, exact_fallback=full_read,
                   details={"estimate": est, "threshold": threshold})
