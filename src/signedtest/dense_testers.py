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
from dataclasses import dataclass, fields

from . import exact
from .core import Sign, SignedGraph, Witness, WitnessKind
from .oracles import DenseOracle, Verdict, _as_rng, _chunked_integers

# Budget constants. Engineering choices, not theory: defaults are sized so
# that the desk-scale statistical checks pass with margin.
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
class DenseConstants:
    """The knobs of the dense testers. A sample count left None is derived
    from eps and its multiplier by the function of the same name below."""

    c_b: float = C_BALANCE
    c_e: float = C_EDGES
    c_c: float = C_CLUSTER
    c_t: float = C_TRIANGLE
    triple_samples: int | None = None
    node_samples: int | None = None
    subset_size: int | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.default is None:
                if v is not None and v < 1:
                    raise ValueError(f"{f.name} must be >= 1")
            elif not 0 < v < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")


DEFAULT_CONSTANTS = DenseConstants()


@dataclass(frozen=True)
class DenseParams:
    """The run arguments of the dense triangle tester."""

    eps: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.eps <= 1:
            raise ValueError("eps must be in (0, 1]")


def triple_samples(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    return c.triple_samples or max(1, math.ceil(c.c_t / eps**3))


def node_samples(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    return c.node_samples or max(1, math.ceil(c.c_b * math.log(1.0 / eps) / eps))


def pair_samples(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    return max(1, math.ceil(c.c_e / eps**2))


def subset_size(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    k = math.ceil(8.0 / eps)
    return c.subset_size or max(1, math.ceil(c.c_c * k * math.log(max(k, 2)) / eps**2))


# Query budgets: the most queries a tester can spend at this eps and these
# constants. Each tester asserts that it stayed within its budget.

def triangle_budget(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    return 3 * triple_samples(eps, c)


def balance_budget(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    s = node_samples(eps, c)
    return s * (s - 1) // 2


def clusterability_budget(eps: float, c: DenseConstants = DEFAULT_CONSTANTS) -> int:
    """Also the budget of frustration_estimate_dense."""
    s = subset_size(eps, c)
    return pair_samples(eps / 8.0, c) + s * (s - 1) // 2


# ---------------------------------------------------------------------------
# triangle tester
# ---------------------------------------------------------------------------

def test_triangle_dense(o: DenseOracle, pattern, p: DenseParams,
                       constants: DenseConstants = DEFAULT_CONSTANTS) -> Verdict:
    """Sample uniform node triples and reject on the first one inducing a
    triangle whose sign multiset matches the pattern."""
    if o.n < 3:
        raise ValueError("triangle testing needs N >= 3")
    pat = exact.triangle_pattern(pattern)
    rng = _as_rng(p.seed)
    start = o.query_count
    witness = None
    for a, b, c in _chunked_integers(rng, 0, o.n, triple_samples(p.eps, constants), 3):
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
    assert used <= triangle_budget(p.eps, constants)
    return Verdict(witness is None, witness=witness, queries_used=used)


# ---------------------------------------------------------------------------
# node sampling for induced reads
# ---------------------------------------------------------------------------

def _sample_unique_nodes(rng, n: int, samples: int) -> list[int]:
    if samples >= n:
        return list(range(n))
    drawn = rng.integers(0, n, size=samples)
    return sorted(set(int(v) for v in drawn))


# ---------------------------------------------------------------------------
# balance tester
# ---------------------------------------------------------------------------

def test_balance_dense(o: DenseOracle, eps: float, seed,
                      constants: DenseConstants = DEFAULT_CONSTANTS) -> Verdict:
    """Sample nodes, read the whole induced subgraph, accept iff it is
    balanced. Unbalance witnesses lift back to original node ids. When the
    draw covers all N nodes the read is the whole graph and the answer is
    exact, flagged as ``exact_fallback``."""
    if o.n < 2:
        raise ValueError("balance testing needs N >= 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    nodes = _sample_unique_nodes(_as_rng(seed), o.n, node_samples(eps, constants))
    start = o.query_count
    induced = o.induced(nodes)
    used = o.query_count - start
    assert used <= balance_budget(eps, constants)
    w = exact.is_balanced(induced).witness
    if w is not None:  # lift the witness back to original node ids
        w = Witness(w.kind, tuple(nodes[i] for i in w.nodes), w.signs)
    return Verdict(w is None, witness=w, queries_used=used, exact_fallback=len(nodes) == o.n)


# ---------------------------------------------------------------------------
# edge-count estimator
# ---------------------------------------------------------------------------

def estimate_edge_count(o: DenseOracle, eps: float, seed,
                        constants: DenseConstants = DEFAULT_CONSTANTS) -> float:
    """Estimate |E| to additive error eps*N^2 by sampling off-diagonal
    adjacency entries. If the sample budget already covers every pair, read
    them all once and return the exact count."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = o.n
    if n < 2:
        return 0.0
    q = pair_samples(eps, constants)
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

def _local_search_k_frustration(g: SignedGraph, k: int, rng) -> int:
    """Greedy local search for a k-clustering with few violated signs.

    Only moves single nodes between clusters, accepting strict improvements.
    The result is the violation count of a concrete assignment, so it can
    only overestimate the true k-frustration index.
    """
    n = g.n
    k = min(k, max(n, 1))
    if n == 0 or k < 1:
        return 0

    def delta_for(assign, v, target):
        d = 0
        for u, s in g.adj[v]:
            before = assign[u] == assign[v]
            after = assign[u] == target
            if s == Sign.PLUS:
                d += (not after) - (not before)
            else:
                d += after - before
        return d

    best = None
    move_budget = LOCAL_SEARCH_MOVE_FACTOR * n * k
    for restart in range(LOCAL_SEARCH_RESTARTS):
        if restart == 0:
            # positive components, folded into at most k labels
            comp = exact.positive_component_clustering(g).assignment
            assign = [min(c, k - 1) for c in comp]
        else:
            assign = [int(x) for x in rng.integers(0, k, size=n)]
        sizes = [0] * k
        for c in assign:
            sizes[c] += 1
        # lazy stack of empty cluster ids (entries may go stale after moves)
        empties = [c for c in range(k - 1, -1, -1) if sizes[c] == 0]
        cur = exact.clustering_violations(g, assign)
        improved = True
        while improved and move_budget > 0:
            improved = False
            for v in rng.permutation(n):
                v = int(v)
                candidates = {assign[u] for u, _ in g.adj[v]}
                while empties and sizes[empties[-1]] != 0:
                    empties.pop()
                if empties:
                    candidates.add(empties[-1])
                candidates.discard(assign[v])
                for target in candidates:
                    move_budget -= 1
                    d = delta_for(assign, v, target)
                    if d < 0:
                        old = assign[v]
                        assign[v] = target
                        sizes[old] -= 1
                        sizes[target] += 1
                        if sizes[old] == 0:
                            empties.append(old)
                        cur += d
                        improved = True
                        break
                if move_budget <= 0:
                    break
        if best is None or cur < best:
            best = cur
        if best == 0:
            break
    return int(best)


def _induced_k_frustration(g: SignedGraph, k: int, rng) -> int:
    if g.n <= _EXACT_INDUCED_CAP:
        return exact.k_frustration_index(g, min(k, g.n))
    return _local_search_k_frustration(g, k, rng)


def _estimate_weak_frustration(o: DenseOracle, eps: float, seed, constants: DenseConstants):
    """Shared core: returns (estimate, queries_used, full_read_flag)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    n = o.n
    rng = _as_rng(seed)
    k = math.ceil(8.0 / eps)
    start = o.query_count
    m_hat = estimate_edge_count(o, eps / 8.0, rng, constants)
    nodes = _sample_unique_nodes(rng, n, subset_size(eps, constants))
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
    assert used <= clusterability_budget(eps, constants)
    return est, used, u >= n


def frustration_estimate_dense(o: DenseOracle, eps: float, seed,
                               constants: DenseConstants = DEFAULT_CONSTANTS) -> float:
    """Estimate the weak frustration index to additive error eps*N^2."""
    est, _, _ = _estimate_weak_frustration(o, eps, seed, constants)
    return est


def test_clusterability_dense(o: DenseOracle, eps: float, seed,
                              constants: DenseConstants = DEFAULT_CONSTANTS) -> Verdict:
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
    est, used, full_read = _estimate_weak_frustration(o, eps, seed, constants)
    threshold = (eps / 2.0) * o.n * o.n
    return Verdict(est <= threshold, queries_used=used, exact_fallback=full_read,
                   details={"estimate": est, "threshold": threshold})
