"""Seeded families of signed-graph instances with certified distances.

Every family is a pure function of its ``GenSpec``: the same spec yields a
byte-identical edge list. Metadata records which property the instance holds
or violates and how far it is, flagged ``exact`` (small enough to brute-force
or additive by construction) or ``construction-backed`` (margin argument).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .core import Sign, SignedGraph

_PLUS, _MINUS = int(Sign.PLUS), int(Sign.MINUS)  # edge lists hold plain ints, see Sign

CLUSTERABLE_COMMUNITIES = "clusterable-communities"
BALANCED_TWO_SIDE = "balanced-two-side"
ALL_NEGATIVE_REGULAR = "all-negative-regular"
DISJOINT_BAD_TRIANGLES = "disjoint-bad-triangles"
PLANTED_NEGATIVE_MATCHING = "planted-negative-matching"

FAMILIES = (
    CLUSTERABLE_COMMUNITIES,
    BALANCED_TWO_SIDE,
    ALL_NEGATIVE_REGULAR,
    DISJOINT_BAD_TRIANGLES,
    PLANTED_NEGATIVE_MATCHING,
)


@dataclass(frozen=True)
class GenSpec:
    """Instance recipe; generation is deterministic in the whole spec."""

    family: str
    n: int
    seed: int = 0
    d: int | None = None
    k: int | None = None
    planted_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _rng_for(spec: GenSpec) -> np.random.Generator:
    fam_id = FAMILIES.index(spec.family)
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(fam_id,)))


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _add_edge(u, v, used, edges, sign, degree) -> bool:
    """Append edge {u, v} unless already present, counting it into degree."""
    p = _pair(u, v)
    if p in used:
        return False
    used.add(p)
    edges.append((p[0], p[1], sign))
    degree[u] += 1
    degree[v] += 1
    return True


def _add_ring(rng, members, used, edges, sign, degree) -> None:
    """A ring through members in random order (one edge for two members),
    skipping pairs already present; counts the new edges into degree."""
    if len(members) < 3:
        pairs = [(members[0], members[1])] if len(members) == 2 else []
    else:
        order = [members[i] for i in rng.permutation(len(members))]
        pairs = [(u, order[(i + 1) % len(order)]) for i, u in enumerate(order)]
    for u, v in pairs:
        _add_edge(u, v, used, edges, sign, degree)


def _add_matching(rng, members, used, edges, sign, degree, degree_cap) -> None:
    """One random matching over members, skipping pairs already present or at
    the degree cap. Near-perfect; odd leftovers simply stay unmatched."""
    order = [members[i] for i in rng.permutation(len(members))]
    free = [v for v in order if degree[v] < degree_cap]
    for i in range(0, len(free) - 1, 2):
        _add_edge(free[i], free[i + 1], used, edges, sign, degree)


def _group_split(n: int, k: int) -> list[list[int]]:
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    groups, start = [], 0
    for s in sizes:
        groups.append(list(range(start, start + s)))
        start += s
    return groups


def _complete_groups(groups: list[list[int]]) -> list[tuple[int, int, int]]:
    """Complete graph over consecutive groups: positive inside each group,
    negative across. Each sign's edges come in (u, v) order."""
    edges = []
    for grp in groups:
        for i, u in enumerate(grp):
            for v in grp[i + 1:]:
                edges.append((u, v, _PLUS))
    for a, grp in enumerate(groups):
        for u in grp:
            for later in groups[a + 1:]:
                for v in later:
                    edges.append((u, v, _MINUS))
    return edges


def _build_communities(rng, n, d, k, used, edges):
    """Sparse clusterable skeleton: positive rings + matchings inside groups
    (target degree d-2), one negative cross-group matching. Leaves one unit of
    degree slack per node."""
    groups = _group_split(n, k)
    degree = {v: 0 for v in range(n)}
    for g in groups:
        _add_ring(rng, g, used, edges, _PLUS, degree)
        for _ in range(max(0, (d - 2) - 2)):
            _add_matching(rng, g, used, edges, _PLUS, degree, d - 2)
    # negative matching across groups
    gid = {}
    for i, g in enumerate(groups):
        for v in g:
            gid[v] = i
    order = rng.permutation(n).tolist()
    free = [v for v in order if degree[v] < d - 1]
    i = 0
    while i + 1 < len(free):
        u, v = free[i], free[i + 1]
        if gid[u] != gid[v] and _add_edge(u, v, used, edges, _MINUS, degree):
            i += 2
        else:
            i += 1
    return groups, degree


def generate(spec: GenSpec) -> tuple[SignedGraph, dict[str, Any]]:
    """Build the instance and its metadata record."""
    rng = _rng_for(spec)
    meta: dict[str, Any] = {"spec": asdict(spec), "notes": []}
    if spec.family == DISJOINT_BAD_TRIANGLES:
        g, extra = _gen_bad_triangles(spec)
    elif spec.family == ALL_NEGATIVE_REGULAR:
        g, extra = _gen_all_negative(spec, rng)
    elif spec.family == BALANCED_TWO_SIDE:
        g, extra = _gen_balanced_two_side(spec, rng)
    elif spec.family == CLUSTERABLE_COMMUNITIES:
        g, extra = _gen_communities(spec, rng)
    else:
        g, extra = _gen_planted_matching(spec, rng)
    meta.update(extra)
    degs = [g.degree(v) for v in range(g.n)]
    meta["degree"] = {"min": min(degs), "max": max(degs), "bound": g.degree_bound}
    meta["edges"] = g.num_edges
    return g, meta


def _gen_bad_triangles(spec: GenSpec):
    if spec.n < 3:
        raise ValueError("disjoint-bad-triangles needs n >= 3")
    d = spec.d if spec.d is not None else 2
    if d < 2:
        raise ValueError("disjoint-bad-triangles needs degree bound >= 2")
    t = spec.n // 3
    edges = []
    for i in range(t):
        a = 3 * i
        edges += [(a, a + 1, _PLUS), (a + 1, a + 2, _PLUS), (a, a + 2, _MINUS)]
    g = SignedGraph.from_edges(spec.n, edges, degree_bound=d)
    extra = {
        "properties": {"balanced": t == 0, "clusterable": t == 0},
        "distance": {
            "property": "clusterability",
            "edits_lower": t,
            "edits_upper": t,
            "kind": "exact",
            "note": "additive over vertex-disjoint triangles; balance distance is the same",
        },
        "triangles": t,
    }
    return g, extra


def _gen_all_negative(spec: GenSpec, rng):
    d = spec.d if spec.d is not None else 3
    if d < 1 or d >= spec.n:
        raise ValueError("all-negative-regular needs 1 <= d < n")
    if spec.n * d % 2:
        raise ValueError("all-negative-regular needs n*d even")
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    degree = {v: 0 for v in range(spec.n)}
    members = list(range(spec.n))
    for _ in range(d // 2):
        _add_ring(rng, members, used, edges, _MINUS, degree)
    if d % 2:
        _add_matching(rng, members, used, edges, _MINUS, degree, d)
    g = SignedGraph.from_edges(spec.n, edges, degree_bound=d)
    m = g.num_edges
    extra = {"properties": {"balanced": False if d >= 3 else None, "clusterable": True}}
    if d >= 3:
        lb = max(1, int(0.05 * m))
        extra["distance"] = {
            "property": "balance",
            "edits_lower": lb,
            "edits_upper": m,
            "kind": "construction-backed",
            "note": "random near-regular graphs keep max-cut below (1-0.05)m whp",
        }
    return g, extra


def _gen_balanced_two_side(spec: GenSpec, rng):
    if spec.n < 4 or spec.n % 2:
        raise ValueError("balanced-two-side needs even n >= 4")
    half = spec.n // 2
    left, right = _group_split(spec.n, 2)
    if spec.d is None:
        g = SignedGraph.from_edges(spec.n, _complete_groups([left, right]))
    else:
        if spec.d < 3:
            raise ValueError("balanced-two-side needs d >= 3 (or d=None for the dense form)")
        used: set[tuple[int, int]] = set()
        edges: list[tuple[int, int, int]] = []
        degree = {v: 0 for v in range(spec.n)}
        for side in (left, right):
            _add_ring(rng, side, used, edges, _PLUS, degree)
            for _ in range(max(0, (spec.d - 1) - 2)):
                _add_matching(rng, side, used, edges, _PLUS, degree, spec.d - 1)
        # one negative perfect matching across the sides
        perm = rng.permutation(half)
        for i, u in enumerate(left):
            v = right[perm[i]]
            edges.append((u, v, _MINUS))
        g = SignedGraph.from_edges(spec.n, edges, degree_bound=spec.d)
    extra = {
        "properties": {"balanced": True, "clusterable": True},
        "distance": {
            "property": "balance",
            "edits_lower": 0,
            "edits_upper": 0,
            "kind": "exact",
            "note": "balanced by construction: positive inside sides, negative across",
        },
        "sides": [left, right],
    }
    return g, extra


def _gen_communities(spec: GenSpec, rng):
    k = spec.k if spec.k is not None else 2
    if k < 1 or k > spec.n:
        raise ValueError("clusterable-communities needs 1 <= k <= n")
    if spec.d is None:
        groups_out = _group_split(spec.n, k)
        g = SignedGraph.from_edges(spec.n, _complete_groups(groups_out))
    else:
        if spec.d < 4:
            raise ValueError("clusterable-communities needs d >= 4 (or d=None for the dense form)")
        if spec.n // k < 3:
            raise ValueError("clusterable-communities needs groups of size >= 3")
        edges: list[tuple[int, int, int]] = []
        groups_out, _ = _build_communities(rng, spec.n, spec.d, k, set(), edges)
        g = SignedGraph.from_edges(spec.n, edges, degree_bound=spec.d)
    extra = {
        "properties": {"balanced": None, "clusterable": True},
        "distance": {
            "property": "clusterability",
            "edits_lower": 0,
            "edits_upper": 0,
            "kind": "exact",
            "note": "positive edges only inside groups, negative only across",
        },
        "groups": [len(grp) for grp in groups_out],
    }
    return g, extra


def _gen_planted_matching(spec: GenSpec, rng):
    d = spec.d if spec.d is not None else 8
    k = spec.k if spec.k is not None else 2
    pf = spec.planted_fraction if spec.planted_fraction is not None else 0.05
    if d < 4:
        raise ValueError("planted-negative-matching needs d >= 4")
    if not 0 < pf <= 0.5 / d:
        raise ValueError("planted_fraction must be in (0, 1/(2d)]")
    if spec.n // k < 4:
        raise ValueError("planted-negative-matching needs groups of size >= 4")
    target = int(pf * d * spec.n)
    if target < 1:
        raise ValueError("planted_fraction too small: no edges to plant")
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    groups, degree = _build_communities(rng, spec.n, d, k, used, edges)
    planted = 0
    planted_nodes: set[int] = set()
    attempts = 0
    while planted < target and attempts < 50 * target:
        attempts += 1
        grp = groups[int(rng.integers(len(groups)))]
        u, v = (int(x) for x in rng.choice(len(grp), size=2, replace=False))
        u, v = grp[u], grp[v]
        if u in planted_nodes or v in planted_nodes or degree[u] >= d or degree[v] >= d:
            continue
        if not _add_edge(u, v, used, edges, _MINUS, degree):
            continue
        planted_nodes.update((u, v))
        planted += 1
    if planted < target:
        raise ValueError(
            f"could not place {target} planted negative edges (placed {planted}); "
            "lower planted_fraction or raise the group size"
        )
    g = SignedGraph.from_edges(spec.n, edges, degree_bound=d)
    extra = {
        "properties": {"balanced": False, "clusterable": False},
        "distance": {
            "property": "clusterability",
            "edits_lower": 1,
            "edits_upper": planted,
            "kind": "construction-backed",
            "note": "each planted negative edge closes a cycle through its group's "
            "connected positive skeleton; deleting all planted edges restores "
            "clusterability",
        },
        "planted": planted,
    }
    return g, extra
