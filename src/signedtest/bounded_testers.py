"""Bounded-degree-model property testers driven by (node, index) queries.

The balance tester walks lazily on a virtual graph G2 in which every positive
edge of G is subdivided by an extra node; G is balanced exactly when G2 is
bipartite, so a vertex reached by both an even and an odd move-path certifies
an odd cycle, which maps back to a cycle of G carrying an odd number of
negative edges. G2 is never materialized: its nodes are plain int ids
(original node u keeps id u, and the midpoint of positive edge (u, v), u < v,
is ``core.midpoint`` N + u*N + v), and both walking and start-node sampling
are implemented purely through oracle queries.

The clusterability tester searches for a "bad cycle" (exactly one negative
edge): it walks on the positive subgraph only, reads each node's row at its
first visit, and stops at the first negative edge into the visited set.

Both walk searches draw a start's randomness for all its walks in chunks.

All three testers here are one-sided; every Reject carries a verifiable
witness. When eps >= 1 or the walk budget would exceed the N*d cost of just
reading the whole graph, the balance and clusterability testers read it and
answer exactly instead (flagged in the Verdict; disable via
``BoundedConstants.allow_exact_fallback`` to force the walk path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from . import exact
from .core import Sign, SignedGraph, Witness, WitnessKind, midpoint
from .oracles import BoundedDegreeOracle, Verdict, _as_rng, _chunked_draws, _chunked_integers

C_TRIANGLE_BD = 10.0


@dataclass(frozen=True)
class BoundedConstants:
    """Hidden-constant knobs for the bounded-degree testers.

    The asymptotic recipes leave the multipliers and the polylog/poly-eps
    exponents open; these defaults are sized for desk-scale runs and are all
    config so benchmarks can explore other regimes.
    """

    c1: float = 8.0   # balance: start repetitions ~ c1/eps'
    c2: float = 2.0   # balance: walks per start ~ c2*sqrt(N(d+1))*log(N)/eps'^3
    c3: float = 4.0   # balance: walk length ~ c3*log(N)^a/eps'^b
    c4: float = 8.0   # clusterability: start repetitions ~ c4/eps
    c5: float = 2.0   # clusterability: walks per start ~ c5*sqrt(N)*log(N)/eps^2
    c6: float = 4.0   # clusterability: walk length ~ c6*log(N)^a/eps^3
    walk_len_log_exponent: int = 1      # a above (0 makes L N-independent)
    balance_len_eps_exponent: int = 3   # b above (theory says up to 8)
    allow_exact_fallback: bool = True
    c_t: float = C_TRIANGLE_BD  # triangle: sampled nodes ~ c_t/eps

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c_t"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


DEFAULT_CONSTANTS = BoundedConstants()


@dataclass(frozen=True)
class WalkParams:
    """Walk schedule: start nodes, walks per start, steps per walk."""

    starts: int
    walks_per_start: int
    walk_length: int


# ---------------------------------------------------------------------------
# walk primitives
# ---------------------------------------------------------------------------

def _lazy_step(o: BoundedDegreeOracle, v: int, slot: int) -> int:
    """Decision core for one lazy step on the positive subgraph of G, fed a
    pre-drawn neighbor slot: stay on an empty slot or a negative edge, else
    move. Exactly one oracle query."""
    res = o.query(v, slot)
    if res is None or res[1]:  # sign 1 is minus
        return v
    return res[0]


def _gprime_step(o: BoundedDegreeOracle, x: int, slot: int, coin: float) -> int:
    """Decision core for one lazy step on G2, fed pre-drawn randomness.

    Original u: query slot; empty -> stay; negative edge -> the neighbor;
    positive edge -> its midpoint. Midpoints have degree 2, so under the
    uniform bound d they move with probability 2/d, splitting the coin
    evenly between the two endpoints. Costs 1 query from an original node,
    0 from a midpoint.
    """
    n = o.n
    if x < n:
        res = o.query(x, slot)
        if res is None:
            return x
        v, sign = res
        return v if sign else midpoint(n, x, v)  # sign 1 is minus
    if coin * o.d < 2.0:
        u, v = divmod(x - n, n)
        return u if coin * o.d < 1.0 else v
    return x


def sample_gprime_node(o: BoundedDegreeOracle, rng) -> int | None:
    """One attempt to draw a uniform G2 node id; None means abstain.

    Draw (u, i) uniform over [N] x [d] and query it. An empty slot abstains.
    A negative edge returns u with probability 1/(4 deg(u)). A positive
    edge (u, v) with u < v returns its midpoint with probability 1/4, else
    falls back to u with conditional probability 1/(3 deg(u)); with u > v
    it returns u with probability 1/(4 deg(u)). Every non-isolated original
    node and every midpoint then comes out with probability exactly 1/(4dN) per
    attempt. Isolated nodes are never returned (they cannot host a walk).
    Degree is obtained by probing, adding at most d queries per attempt.
    """
    u = int(rng.integers(o.n))
    i = int(rng.integers(1, o.d + 1))
    res = o.query(u, i)
    if res is None:
        return None
    v, sign = res
    forward_plus = not sign and u < v  # sign 0 is plus
    if forward_plus and rng.random() < 0.25:
        return midpoint(o.n, u, v)
    deg = sum(1 for _ in o.neighbors(u))
    if rng.random() < 1.0 / ((3.0 if forward_plus else 4.0) * deg):
        return u
    return None


# ---------------------------------------------------------------------------
# witness extraction helpers
# ---------------------------------------------------------------------------

def _extract_odd_cycle(closed_walk: list[int]) -> list[int]:
    """Reduce a closed odd walk (first == last) to a simple odd cycle by
    repeatedly splitting at a repeated vertex and keeping the odd half."""
    cyc = closed_walk[:-1]
    assert len(cyc) % 2 == 1
    while True:
        seen: dict[int, int] = {}
        rep = None
        for idx, v in enumerate(cyc):
            if v in seen:
                rep = (seen[v], idx)
                break
            seen[v] = idx
        if rep is None:
            return cyc
        i, j = rep
        inner = cyc[i:j]
        cyc = inner if (j - i) % 2 == 1 else cyc[:i] + cyc[j:]


def _contract_to_g_cycle(cyc: list[int], n: int) -> Witness:
    """Map a simple odd G2 cycle of an n-node G to the corresponding G
    cycle: direct original-original edges are negative, midpoint hops are
    positive."""
    if cyc[0] >= n:
        cyc = cyc[1:] + cyc[:1]
    nodes: list[int] = []
    signs: list[int] = []
    k = len(cyc)
    i = 0
    while i < k:
        nodes.append(cyc[i])
        if cyc[(i + 1) % k] < n:
            signs.append(Sign.MINUS)
            i += 1
        else:
            signs.append(Sign.PLUS)
            i += 2
    return Witness(WitnessKind.ODD_NEGATIVE_CYCLE, tuple(nodes), tuple(signs))


# ---------------------------------------------------------------------------
# whole-graph fallback and the walk-tester frame
# ---------------------------------------------------------------------------

def read_whole_graph(o: BoundedDegreeOracle) -> SignedGraph:
    """Reconstruct the graph by probing every adjacency list (<= N*d queries)."""
    edges = []
    for v in range(o.n):
        for u, sign in o.neighbors(v):
            if v < u:
                edges.append((v, u, sign))
    return SignedGraph.from_edges(o.n, edges, degree_bound=o.d)


def _walk_tester(o: BoundedDegreeOracle, eps: float, seed, constants: BoundedConstants,
                 schedule, budget, check, search) -> Verdict:
    """Frame shared by the two walk testers.

    ``schedule(n, d, eps, constants)`` gives the WalkParams and
    ``budget(params, d)`` the most queries their walks can spend. When
    eps >= 1 or that budget exceeds the N*d of reading the whole graph (and
    the fallback is allowed), the graph is read and ``check(g) -> (ok,
    witness)`` answers exactly. Otherwise ``search(o, params, rng)`` runs
    once per start and the first witness it returns rejects.
    """
    if o.d < 2 or o.n < 2:
        raise ValueError("needs degree bound >= 2 and N >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = schedule(o.n, o.d, eps, constants)
    start = o.query_count
    limit = budget(p, o.d)
    if constants.allow_exact_fallback and (eps >= 1.0 or limit > o.n * o.d):
        ok, witness = check(read_whole_graph(o))
        return Verdict(ok, witness=witness, queries_used=o.query_count - start,
                       exact_fallback=True)
    rng = _as_rng(seed)
    w = None
    for _ in range(p.starts):
        w = search(o, p, rng)
        if w is not None:
            break
    used = o.query_count - start
    assert used <= limit
    return Verdict(w is None, witness=w, queries_used=used)


# ---------------------------------------------------------------------------
# triangle tester
# ---------------------------------------------------------------------------

def triangle_samples(eps: float, c: BoundedConstants = DEFAULT_CONSTANTS) -> int:
    return max(1, math.ceil(c.c_t / eps))


def triangle_budget(eps: float, d: int, c: BoundedConstants = DEFAULT_CONSTANTS) -> int:
    """d slots of each sampled node and d of each of its neighbors."""
    return triangle_samples(eps, c) * (d + d * d)


def test_triangle_bounded(o: BoundedDegreeOracle, pattern, eps: float, seed,
                          constants: BoundedConstants = DEFAULT_CONSTANTS) -> Verdict:
    """Sample nodes and look for a pattern triangle within distance 2 by
    probing each sampled node's neighborhood and its neighbors'."""
    if o.d < 2:
        raise ValueError("triangle testing needs degree bound >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    pat = exact.triangle_pattern(pattern)
    rng = _as_rng(seed)
    budget = triangle_budget(eps, o.d, constants)
    start = o.query_count
    for v in rng.integers(0, o.n, size=triangle_samples(eps, constants)).tolist():
        nb_v = list(o.neighbors(v))
        rows = {u: dict(o.neighbors(u)) for u, _ in nb_v}
        for a, (u1, s1) in enumerate(nb_v):
            for u2, s2 in nb_v[a + 1:]:
                s12 = rows[u1].get(u2)
                if s12 is not None and tuple(sorted((s1, s12, s2))) == pat:
                    w = Witness(WitnessKind.SIGNED_TRIANGLE, (v, u1, u2), (s1, s12, s2))
                    assert o.query_count - start <= budget
                    return Verdict(False, witness=w, queries_used=o.query_count - start)
    assert o.query_count - start <= budget
    return Verdict(True, queries_used=o.query_count - start)


# ---------------------------------------------------------------------------
# balance tester
# ---------------------------------------------------------------------------

def balance_walk_schedule(n: int, d: int, eps: float,
                          constants: BoundedConstants = DEFAULT_CONSTANTS) -> WalkParams:
    eps_p = eps / (d + 1)
    starts = max(1, math.ceil(constants.c1 / eps_p))
    logn = max(1.0, math.log(n))
    m = max(1, math.ceil(constants.c2 * math.sqrt(n * (d + 1)) * logn / eps_p**3))
    length = max(1, math.ceil(
        constants.c3 * logn**constants.walk_len_log_exponent
        / eps_p**constants.balance_len_eps_exponent))
    return WalkParams(starts, m, length)


def balance_budget(p: WalkParams, d: int) -> int:
    """Per start: up to 16d start draws of 1 + d queries each, one per step."""
    return p.starts * (16 * d * (1 + d) + p.walks_per_start * p.walk_length)


def _draw_start(o: BoundedDegreeOracle, rng) -> int | None:
    for _ in range(16 * o.d):
        x = sample_gprime_node(o, rng)
        if x is not None:
            return x
    return None


def _parity_search(o: BoundedDegreeOracle, p: WalkParams, rng) -> Witness | None:
    """Draw one G2 start and run its walks; a (node, parity) collision gives
    an odd-negative-cycle witness. None when the draw abstains or no walk
    collides."""
    s = _draw_start(o, rng)
    if s is None:
        return None
    # walk state 2*id + parity of the moves so far; each state keeps the
    # state of its first arrival, and both parities at one node prove an
    # odd cycle
    parent: dict[int, int | None] = {2 * s: None}
    steps = p.walks_per_start * p.walk_length
    draws = zip(_chunked_integers(rng, 1, o.d + 1, steps), _chunked_draws(rng.random, steps))
    for _ in range(p.walks_per_start):
        x, state = s, 2 * s
        for slot, coin in islice(draws, p.walk_length):
            nxt = _gprime_step(o, x, slot, coin)
            if nxt == x:
                continue
            x, prev = nxt, state
            state = 2 * x + ((prev & 1) ^ 1)
            parent.setdefault(state, prev)
            if state ^ 1 in parent:
                # the tree path between x's two states is a closed odd walk
                up, down = exact.forest_paths(parent, state, state ^ 1)
                closed = [t >> 1 for t in up + down[::-1]]
                return _contract_to_g_cycle(_extract_odd_cycle(closed), o.n)
    return None


def test_balance_bounded(o: BoundedDegreeOracle, eps: float, seed,
                         constants: BoundedConstants = DEFAULT_CONSTANTS) -> Verdict:
    """One-sided balance tester via parity collisions of lazy walks on G2.

    Testing eps-balancedness of G reduces to testing eps/(d+1)-bipartiteness
    of G2. Parity counts actual moves (lazy self-loops leave path length
    unchanged). A (node, parity) collision joins the two first-arrival
    paths at their common ancestor (``exact.forest_paths``) into a closed odd
    walk, which is reduced to a simple odd G2 cycle and contracted to a G
    cycle with an odd number of negative edges.
    """
    return _walk_tester(
        o, eps, seed, constants, balance_walk_schedule, balance_budget,
        lambda g: ((r := exact.is_balanced(g)).balanced, r.witness),
        _parity_search)


# ---------------------------------------------------------------------------
# clusterability tester
# ---------------------------------------------------------------------------

def cluster_walk_schedule(n: int, d: int, eps: float,
                          constants: BoundedConstants = DEFAULT_CONSTANTS) -> WalkParams:
    starts = max(1, math.ceil(constants.c4 / eps))
    logn = max(1.0, math.log(n))
    m = max(1, math.ceil(constants.c5 * math.sqrt(n) * logn / eps**2))
    length = max(1, math.ceil(
        constants.c6 * logn**constants.walk_len_log_exponent / eps**3))
    return WalkParams(starts, m, length)


def clusterability_budget(p: WalkParams, d: int) -> int:
    """Per start: one query per step, then d for each of <= 1 + m*L visited nodes."""
    steps = p.walks_per_start * p.walk_length
    return p.starts * (steps + d * (1 + steps))


def badcycle_search(o: BoundedDegreeOracle, s: int, m: int, length: int, rng) -> Witness | None:
    """Walk the positive subgraph from s, reading each node's row at its first
    visit, s's first. A negative edge to a node visited before stops the search:
    its endpoints' walk-forest paths to their common ancestor
    (``exact.forest_paths``) close a cycle with one negative edge."""
    parent: dict[int, int | None] = {}

    def visit(v: int, via: int | None) -> Witness | None:
        parent[v] = via
        for u, sign in o.neighbors(v):
            if sign and u in parent:  # a negative edge inside the visited set
                # nodes = v -> lca -> u through positive tree edges; the
                # closing (u, v) edge is the single negative one
                up, down = exact.forest_paths(parent, v, u)
                nodes = up + down[::-1]
                signs = [Sign.PLUS] * (len(nodes) - 1) + [Sign.MINUS]
                return Witness(WitnessKind.BAD_CYCLE, tuple(nodes), tuple(signs))
        return None

    visit(s, None)  # nothing else is visited yet, so this only reads s's row
    slots = _chunked_integers(rng, 1, o.d + 1, m * length)
    for _ in range(m):
        x = s
        for slot in islice(slots, length):
            v = _lazy_step(o, x, slot)
            if v not in parent and (w := visit(v, x)) is not None:
                return w
            x = v
    return None


def test_clusterability_bounded(o: BoundedDegreeOracle, eps: float, seed,
                                constants: BoundedConstants = DEFAULT_CONSTANTS) -> Verdict:
    """One-sided clusterability tester: repeated bad-cycle searches from
    uniform start nodes."""
    return _walk_tester(
        o, eps, seed, constants, cluster_walk_schedule, clusterability_budget,
        lambda g: ((r := exact.is_clusterable(g)).clusterable, r.witness),
        lambda o, p, rng: badcycle_search(o, int(rng.integers(o.n)),
                                          p.walks_per_start, p.walk_length, rng))
