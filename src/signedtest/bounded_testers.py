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
The balance search then advances a start's walks together, a block at a
time, with one batch oracle read (``query_batch``) per step, and adds each
block's first arrivals, in walk order, to one walk forest until one meets
its other parity: decisions, witnesses and accept costs are those of
walking one walk after another, and a reject pays for its whole last block.

All three testers here are one-sided; every Reject carries a verifiable
witness. When eps >= 1 or the walk budget would exceed the N*d cost of just
reading the whole graph, the balance and clusterability testers read it and
answer exactly instead (flagged in the Verdict; disable via
``BoundedConstants.allow_exact_fallback`` to force the walk path).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from . import exact
from .core import Sign, SignedGraph, Witness, WitnessKind, midpoint
from .oracles import _CHUNK, BoundedDegreeOracle, Verdict, _as_rng, _chunked_integers

C_TRIANGLE_BD = 10.0  # triangle: sampled nodes = ceil(C_TRIANGLE_BD / eps)


@dataclass(frozen=True)
class BoundedConstants:
    """Hidden-constant knobs of the two walk testers; each accepts them all.

    The asymptotic recipes leave the multipliers and the polylog exponent
    open; the defaults are sized for desk-scale runs. The balance walk
    length's eps exponent is fixed at 3 (theory says up to 8).
    """

    c1: float = 8.0   # balance: start repetitions ~ c1/eps'
    c2: float = 2.0   # balance: walks per start ~ c2*sqrt(N(d+1))*log(N)/eps'^3
    c3: float = 4.0   # balance: walk length ~ c3*log(N)^a/eps'^3
    c4: float = 8.0   # clusterability: start repetitions ~ c4/eps
    c5: float = 2.0   # clusterability: walks per start ~ c5*sqrt(N)*log(N)/eps^2
    c6: float = 4.0   # clusterability: walk length ~ c6*log(N)^a/eps^3
    walk_len_log_exponent: int = 1      # a above (0 makes L N-independent)
    allow_exact_fallback: bool = True

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4", "c5", "c6"):
            c = getattr(self, name)  # a real number, NumPy's included, but not a bool
            if not (isinstance(c, numbers.Real) and type(c) is not bool and 0 < c < math.inf):
                raise ValueError(f"{name} must be positive and finite")
        # bool is an int subclass, and any object passes for a truth value
        if type(self.walk_len_log_exponent) is not int or self.walk_len_log_exponent < 0:
            raise ValueError("walk_len_log_exponent must be a non-negative integer")
        if type(self.allow_exact_fallback) is not bool:
            raise ValueError("allow_exact_fallback must be True or False")


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
    if rng.random() < 1.0 / ((3.0 if forward_plus else 4.0) * len(o.neighbors(u))):
        return u
    return None


# ---------------------------------------------------------------------------
# witness contraction
# ---------------------------------------------------------------------------

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
    """The graph behind o, ``o.read_all()``: min(deg(v) + 1, d) queries a node, at most N*d."""
    return o.read_all()


def walk_schedule(schedule, n: int, d: int, eps: float,
                  constants: BoundedConstants) -> WalkParams | None:
    """``schedule(n, d, eps, constants)``, or None when no schedule is made:
    the fallback is allowed and eps >= 1, so the whole graph is read."""
    if constants.allow_exact_fallback and eps >= 1.0:
        return None
    return schedule(n, d, eps, constants)


def _walk_tester(o: BoundedDegreeOracle, eps: float, seed, constants: BoundedConstants,
                 schedule, budget, check, search) -> Verdict:
    """Frame shared by the two walk testers.

    ``walk_schedule`` gives the WalkParams and ``budget(params, d)`` the
    most queries their walks can spend. When no schedule is made, or the
    fallback is allowed and that budget exceeds the N*d of reading the whole
    graph, ``check(g) -> (ok, witness)`` answers exactly on the graph read
    whole. Otherwise ``search(o, params, rng)`` runs once per start; a
    witness rejects.
    """
    if o.d < 2 or o.n < 2:
        raise ValueError("needs degree bound >= 2 and N >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = walk_schedule(schedule, o.n, o.d, eps, constants)
    if p is not None:
        limit = budget(p, o.d)
    fallback = p is None or (constants.allow_exact_fallback and limit > o.n * o.d)
    start = o.query_count
    if fallback:
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

def triangle_samples(eps: float) -> int:
    return max(1, math.ceil(C_TRIANGLE_BD / eps))


def triangle_budget(eps: float, d: int) -> int:
    """d slots of each sampled node and d of each of its neighbors."""
    return triangle_samples(eps) * (d + d * d)


def test_triangle_bounded(o: BoundedDegreeOracle, pattern, eps: float, seed) -> Verdict:
    """Sample nodes and look for a pattern triangle within distance 2 by
    probing each sampled node's neighborhood and its neighbors'."""
    if o.d < 2:
        raise ValueError("triangle testing needs degree bound >= 2")
    if eps <= 0:
        raise ValueError("eps must be positive")
    pat = exact.triangle_pattern(pattern)
    rng = _as_rng(seed)
    budget = triangle_budget(eps, o.d)
    start = o.query_count
    for v in rng.integers(0, o.n, size=triangle_samples(eps)).tolist():
        nb_v = o.neighbors(v)
        rows = [o.neighbors(u) for u, _ in nb_v]
        for a, (u1, s1) in enumerate(nb_v):
            for u2, s2 in nb_v[a + 1:]:
                for x, s12 in rows[a]:  # a scan of u1's row, at most d entries
                    if x == u2 and tuple(sorted((s1, s12, s2))) == pat:
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
        constants.c3 * logn**constants.walk_len_log_exponent / eps_p**3))
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


# A start's walks advance together in groups of _GROUP_WALKS: enough to
# spread NumPy's cost per call, few enough that a reject, which pays for the
# rest of its group, costs little more. Fewer walks make a group when their
# draws and states would pass _GROUP_STEPS steps, and one walk longer than
# that runs alone, _GROUP_STEPS steps at a time, so memory stays bounded.
_GROUP_WALKS = 512
_GROUP_STEPS = 1 << 14


def _walk_blocks(rng, d: int, walks: int, length: int) -> Iterator[tuple[int, np.ndarray]]:
    """A start's walk randomness in lockstep blocks (t, draws): draws[i, j] is
    the (slot, coin code) of step t + j of the block's i-th walk, and a block
    with t = 0 starts a new group. The values are those of _chunked_draws'
    slot and coin streams read in turn, as walking one step at a time reads
    them: _CHUNK slots, then _CHUNK coins, and so on. A coin is kept as the
    move it makes from a midpoint: 0 to the smaller end, 1 to the larger, 2
    stay."""
    group = min(_GROUP_WALKS, max(1, _GROUP_STEPS // length))
    span = min(length, _GROUP_STEPS)  # the whole walk whenever group > 1
    dtype = np.min_scalar_type(d)
    rest, left = np.empty((0, 2), dtype), walks * length
    for j in range(0, walks, group):
        g = min(group, walks - j)
        for t in range(0, length, span):
            need = g * min(span, length - t)
            parts, have = [rest], len(rest)
            while have < need:
                size = min(_CHUNK, left)
                slots = rng.integers(1, d + 1, size=size)
                moves = np.minimum(rng.random(size=size) * d, 2.0)
                parts.append(np.stack((slots, moves), axis=1).astype(dtype))
                have, left = have + size, left - size
            block = np.concatenate(parts)
            rest = block[need:]
            yield t, block[:need].reshape(g, -1, 2)


def _lockstep(o: BoundedDegreeOracle, state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Advance walks on G2 together: walk i from state[i] (2*id + parity of
    its moves) by draws[i, t] at step t. Each step reads the slots of the
    walks on original nodes with one query_batch; from a midpoint the coin
    code moves for free. Returns the (walks, steps) states after each step.

    From original u: an empty slot stays, a negative edge goes to the
    neighbor, a positive one to its midpoint. Midpoints have degree 2, so
    under the uniform bound d they move with probability 2/d, split evenly
    between the two endpoints."""
    n = o.n
    slots = draws[:, :, 0].astype(np.int64)
    stay, to_larger = draws[:, :, 1] == 2, draws[:, :, 1] == 1
    x = state >> 1
    ids = np.empty(draws.shape[:2], dtype=np.int64)
    for t in range(draws.shape[1]):
        on = x < n
        some_on, all_on = on.any(), on.all()  # skip the half no walk needs
        if some_on:
            u = x[on]
            v, sign = o.query_batch(u, slots[on, t])
        if not all_on:
            a, b = np.divmod(x - n, n)  # the ends of midpoint n + a*n + b
            x = np.where(stay[:, t], x, np.where(to_larger[:, t], b, a))
        if some_on:
            # an empty slot reads v = -1, and n + min(u, v)*n + max(u, v) = u: stay
            x[on] = np.where(sign > 0, v, n + np.minimum(u, v) * n + np.maximum(u, v))
        ids[:, t] = x
    # parity: the moves so far, counted mod 256 (any even modulus keeps it)
    moved = np.empty(ids.shape, dtype=np.uint8)
    np.not_equal(ids[:, 0], state >> 1, out=moved[:, 0])
    np.not_equal(ids[:, 1:], ids[:, :-1], out=moved[:, 1:])
    np.cumsum(moved, axis=1, out=moved)
    moved += (state & 1)[:, None].astype(np.uint8)
    ids <<= 1
    ids |= moved & 1
    return ids


def _parity_search(o: BoundedDegreeOracle, p: WalkParams, rng) -> Witness | None:
    """Draw one G2 start and run its walks; a (node, parity) collision gives
    an odd-negative-cycle witness. None when the draw abstains or no walk
    collides.

    The walks run in lockstep blocks (_walk_blocks, _lockstep). Each block's
    first arrivals, taken in walk order, fill one walk forest: parent maps a
    walk state (2*id + parity) to the state it first arrived from. The first
    arrival whose other parity is already in the forest collides, as it does
    walking one walk after another, so decisions, witnesses and accept costs
    are those of that search; a reject pays for every step of its last block."""
    s = _draw_start(o, rng)
    if s is None:
        return None
    parent: dict[int, int | None] = {2 * s: None}
    for t, draws in _walk_blocks(rng, o.d, p.walks_per_start, p.walk_length):
        before = np.full(len(draws), 2 * s) if t == 0 else visits[:, -1].copy()
        visits = _lockstep(o, before, draws)
        came = np.column_stack((before, visits[:, :-1]))
        first = np.sort(np.unique(visits, return_index=True)[1])  # in walk order
        for state, via in zip(visits.ravel()[first].tolist(), came.ravel()[first].tolist()):
            if state in parent:
                continue
            parent[state] = via
            if state ^ 1 in parent:
                up, down = exact.forest_paths(parent, state, state ^ 1)
                # no node held both parities before state arrived, so the two
                # paths share only its node, at their ends: a simple odd cycle
                return _contract_to_g_cycle([x >> 1 for x in up + down[::-1]][:-1], o.n)
    return None


def test_balance_bounded(o: BoundedDegreeOracle, eps: float, seed,
                         constants: BoundedConstants = DEFAULT_CONSTANTS) -> Verdict:
    """One-sided balance tester via parity collisions of lazy walks on G2.

    Testing eps-balancedness of G reduces to testing eps/(d+1)-bipartiteness
    of G2. Parity counts actual moves (lazy self-loops leave path length
    unchanged). A (node, parity) collision joins the two first-arrival
    paths at their common ancestor (``exact.forest_paths``) into a simple odd
    G2 cycle, contracted to a G cycle with an odd number of negative edges.
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
