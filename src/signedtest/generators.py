"""Seeded families of signed-graph instances with certified distances.

Every family is a pure function of its ``GenSpec``: the same spec yields a
byte-identical edge list. Metadata records which property the instance holds
or violates and how far it is, flagged ``exact`` (small enough to brute-force
or additive by construction) or ``construction-backed`` (margin argument).

The random families are permutations: a ring follows one, a matching pairs
its consecutive free nodes, so each draws its edges as NumPy arrays of
pairs and builds the graph with one ``SignedGraph.from_arrays`` call. Only
the planted matching picks its edges one at a time, against a set of packed
pair keys.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import pairwise
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _rng_for(spec: GenSpec) -> np.random.Generator:
    fam_id = FAMILIES.index(spec.family)
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(fam_id,)))


def _keys(pairs, n: int) -> np.ndarray:
    """One int per (m, 2) pair of nodes below n, equal exactly for equal pairs."""
    return np.minimum(*pairs.T) * n + np.maximum(*pairs.T)


def _rings_and_matchings(rng, members, rings, matchings, cap, degree):
    """Pairs of ``rings`` random rings through the ``members`` array (one edge
    for two members), then of ``matchings`` random matchings over those below
    degree ``cap`` (odd leftovers stay unmatched). A pair made before is
    skipped. Counts the pairs into ``degree``."""
    made = np.empty((0, 2), dtype=np.int64)
    for i in range(rings + matchings):
        if i >= rings:  # a matching over the members below the cap
            order = members[rng.permutation(len(members))]
            free = order[degree[order] < cap]
            pairs = free[: len(free) // 2 * 2].reshape(-1, 2)
        elif len(members) < 3:  # no draw for a ring of two members
            pairs = members[: len(members) // 2 * 2].reshape(-1, 2)
        else:
            order = members[rng.permutation(len(members))]
            pairs = np.stack([order, np.roll(order, -1)], axis=1)
        key = _keys(pairs, len(degree))
        old = np.sort(np.append(_keys(made, len(degree)), -1))  # -1: every key has a floor
        pairs = pairs[old[np.searchsorted(old, key, side="right") - 1] != key]
        np.add.at(degree, pairs.ravel(), 1)
        made = np.concatenate([made, pairs])
    return made


def _graph(n: int, parts, degree_bound: int | None = None) -> SignedGraph:
    """One ``from_arrays`` build of ``parts``, each an (m, 2) array of pairs
    and their sign (one int, or an array of m), in order."""
    pairs = np.concatenate([p for p, _ in parts])
    sign = np.concatenate([np.broadcast_to(s, len(p)) for p, s in parts])
    return SignedGraph.from_arrays(n, pairs[:, 0], pairs[:, 1], sign, degree_bound)


def _group_split(n: int, k: int) -> list[range]:
    cuts = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    return [range(a, b) for a, b in pairwise(cuts)]


def _group_ids(groups: list[range]) -> np.ndarray:
    return np.repeat(np.arange(len(groups)), [len(g) for g in groups])


def _complete_groups(groups: list[range]) -> list:
    """Complete graph over consecutive groups: positive inside each group,
    negative across. Each sign's edges come in (u, v) order."""
    gid = _group_ids(groups)
    u, v = np.triu_indices(len(gid), 1)
    across = gid[u] != gid[v]
    order = np.argsort(across, kind="stable")
    return [(np.stack([u, v], axis=1)[order], across[order].astype(np.int8))]


def _build_communities(rng, n, d, k):
    """Sparse clusterable skeleton: positive rings + matchings inside groups
    (target degree d-2), one negative cross-group matching. Leaves one unit of
    degree slack per node. Returns the groups, the edge parts and the degrees."""
    groups = _group_split(n, k)
    degree = np.zeros(n, dtype=np.int64)
    parts = [(_rings_and_matchings(rng, np.arange(g.start, g.stop), 1, d - 4, d - 2, degree),
              _PLUS) for g in groups]
    # negative matching across groups, greedy over the free nodes in random
    # order: a run of neighbours in different groups pairs its 1st, 3rd, ...
    # node with the next one
    gid = _group_ids(groups)
    order = rng.permutation(n)
    free = order[degree[order] < d - 1]
    differ = gid[free[:-1]] != gid[free[1:]]
    at = np.arange(len(differ))
    run_start = np.maximum.accumulate(np.where(differ, 0, at + 1))
    first = at[differ & ((at - run_start) % 2 == 0)]
    cross = np.stack([free[first], free[first + 1]], axis=1)
    np.add.at(degree, cross.ravel(), 1)
    return groups, [*parts, (cross, _MINUS)], degree


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
    degs = list(map(len, g.adj))
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
    pairs = (3 * np.arange(t)[:, None, None] + [[0, 1], [1, 2], [0, 2]]).reshape(-1, 2)
    g = _graph(spec.n, [(pairs, np.tile([_PLUS, _PLUS, _MINUS], t))], d)
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
    degree = np.zeros(spec.n, dtype=np.int64)
    pairs = _rings_and_matchings(rng, np.arange(spec.n), d // 2, d % 2, d, degree)
    g = _graph(spec.n, [(pairs, _MINUS)], d)
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
        g = _graph(spec.n, _complete_groups([left, right]))
    else:
        if spec.d < 3:
            raise ValueError("balanced-two-side needs d >= 3 (or d=None for the dense form)")
        degree = np.zeros(spec.n, dtype=np.int64)
        parts = [(_rings_and_matchings(rng, np.arange(side.start, side.stop), 1, spec.d - 3,
                                       spec.d - 1, degree), _PLUS) for side in (left, right)]
        # one negative perfect matching across the sides
        across = np.stack([np.arange(half), half + rng.permutation(half)], axis=1)
        g = _graph(spec.n, [*parts, (across, _MINUS)], spec.d)
    extra = {
        "properties": {"balanced": True, "clusterable": True},
        "distance": {
            "property": "balance",
            "edits_lower": 0,
            "edits_upper": 0,
            "kind": "exact",
            "note": "balanced by construction: positive inside sides, negative across",
        },
        "sides": [list(left), list(right)],
    }
    return g, extra


def _gen_communities(spec: GenSpec, rng):
    k = spec.k if spec.k is not None else 2
    if k < 1 or k > spec.n:
        raise ValueError("clusterable-communities needs 1 <= k <= n")
    if spec.d is None:
        groups_out = _group_split(spec.n, k)
        g = _graph(spec.n, _complete_groups(groups_out))
    else:
        if spec.d < 4:
            raise ValueError("clusterable-communities needs d >= 4 (or d=None for the dense form)")
        if spec.n // k < 3:
            raise ValueError("clusterable-communities needs groups of size >= 3")
        groups_out, parts, _ = _build_communities(rng, spec.n, spec.d, k)
        g = _graph(spec.n, parts, spec.d)
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
    if k < 1 or k > spec.n:
        raise ValueError("planted-negative-matching needs 1 <= k <= n")
    if d < 4:
        raise ValueError("planted-negative-matching needs d >= 4")
    if not 0 < pf <= 0.5 / d:
        raise ValueError("planted_fraction must be in (0, 1/(2d)]")
    if spec.n // k < 4:
        raise ValueError("planted-negative-matching needs groups of size >= 4")
    target = int(pf * d * spec.n)
    if target < 1:
        raise ValueError("planted_fraction too small: no edges to plant")
    n = spec.n
    groups, parts, degree = _build_communities(rng, n, d, k)
    made = set(_keys(np.concatenate([p for p, _ in parts]), n).tolist())
    degree = degree.tolist()
    # a planted edge joins two nodes that no planted edge touches yet, so
    # neither degree nor the pairs made change inside the loop
    pairs: list[tuple[int, int]] = []
    planted_nodes: set[int] = set()
    attempts = 0
    while len(pairs) < target and attempts < 50 * target:
        attempts += 1
        grp = groups[int(rng.integers(len(groups)))]
        u, v = (grp[int(x)] for x in rng.choice(len(grp), size=2, replace=False))
        if (u in planted_nodes or v in planted_nodes or degree[u] >= d or degree[v] >= d
                or min(u, v) * n + max(u, v) in made):
            continue
        planted_nodes.update((u, v))
        pairs.append((u, v))
    planted = len(pairs)
    if planted < target:
        raise ValueError(
            f"could not place {target} planted negative edges (placed {planted}); "
            "lower planted_fraction or raise the group size"
        )
    g = _graph(n, [*parts, (np.array(pairs, dtype=np.int64).reshape(-1, 2), _MINUS)], d)
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
