"""Seeded families of signed-graph instances with certified distances.

Every family is a pure function of its ``GenSpec``: the same spec yields a
byte-identical edge list. Metadata records which property the instance holds
or violates and how far it is, flagged ``exact`` (small enough to brute-force
or additive by construction) or ``construction-backed`` (margin argument).

Each family is declared once, in ``_FAMILIES``: its builder, default degree
and optional parameters. Each builder writes its metadata with ``_record``.

The random families are permutations: a ring follows one, a matching pairs
its consecutive free nodes, so each draws its edges as NumPy arrays of
pairs and builds the graph with one ``SignedGraph.from_arrays`` call. Only
the planted matching picks its edges one at a time, against a set of packed
pair keys.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass
from itertools import pairwise
from numbers import Integral, Real
from typing import Any

import numpy as np

from . import exact
from .core import MAX_EDGES, MAX_NODES, Sign, SignedGraph

_PLUS, _MINUS = int(Sign.PLUS), int(Sign.MINUS)  # edge lists hold plain ints, see Sign

CLUSTERABLE_COMMUNITIES = "clusterable-communities"
BALANCED_TWO_SIDE = "balanced-two-side"
ALL_NEGATIVE_REGULAR = "all-negative-regular"
DISJOINT_BAD_TRIANGLES = "disjoint-bad-triangles"
PLANTED_NEGATIVE_MATCHING = "planted-negative-matching"


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
        for name in ("n", "seed", "d", "k", "planted_fraction"):
            value, whole = getattr(self, name), name != "planted_fraction"
            if value is None and name not in ("n", "seed"):
                continue
            if name not in ("n", "seed", "d", *_FAMILIES[self.family].reads):
                raise ValueError(f"{self.family} does not read {name}")
            kind, what = (Integral, "an integer") if whole else (Real, "a real number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            object.__setattr__(self, name, int(value) if whole else float(value))
        if not 1 <= self.n <= MAX_NODES:
            raise ValueError(f"n must be between 1 and {MAX_NODES:,}")
        d = self.degree
        if d is None and self.n * (self.n - 1) // 2 > MAX_EDGES:
            raise ValueError(f"the complete form with n={self.n} has more than {MAX_EDGES:,} edges")
        # a triangle family's d only bounds the degree: it has about n edges
        if d is not None and self.family != DISJOINT_BAD_TRIANGLES and self.n * d > 2 * MAX_EDGES:
            raise ValueError(f"n={self.n} with d={d} allows more than {MAX_EDGES:,} edges")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def degree(self) -> int | None:
        """d, or the family's default; None for a complete form."""
        return self.d if self.d is not None else _FAMILIES[self.family].d


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


def _graph(n: int, parts: list, degree_bound: int | None = None) -> SignedGraph:
    """One ``from_arrays`` build of ``parts``, each an (m, 2) array of pairs
    and their sign (one int, or an array of m), in order; parts is emptied.
    The graph holds its CSR arrays only: no tuple row is built here."""
    columns = [np.concatenate(c) for c in zip(*((p[:, 0], p[:, 1], np.broadcast_to(s, len(p)))
                                                for p, s in parts))]
    parts.clear()  # from_arrays then holds the only references, and frees them once copied
    return SignedGraph.from_arrays(n, columns.pop(0), columns.pop(0), columns.pop(), degree_bound)


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


def _record(balanced, clusterable, distance=None, **extras) -> dict[str, Any]:
    """A family's metadata, in this key order: the properties it holds (None:
    not certified), its (property, edits_lower, edits_upper, kind, note)
    distance unless None, then the family's extras."""
    keys = ("property", "edits_lower", "edits_upper", "kind", "note")
    distance = {} if distance is None else {"distance": dict(zip(keys, distance))}
    return {"properties": {"balanced": balanced, "clusterable": clusterable}, **distance, **extras}


def _gen_bad_triangles(spec: GenSpec, rng):
    if spec.n < 3:
        raise ValueError("disjoint-bad-triangles needs n >= 3")
    d = spec.degree
    if d < 2:
        raise ValueError("disjoint-bad-triangles needs degree bound >= 2")
    t = spec.n // 3
    g = _graph(spec.n, [((3 * np.arange(t)[:, None, None] + [[0, 1], [1, 2], [0, 2]]).reshape(-1, 2),
                         np.tile([_PLUS, _PLUS, _MINUS], t))], d)
    return g, _record(t == 0, t == 0, ("clusterability", t, t, "exact", "additive over "
                      "vertex-disjoint triangles; balance distance is the same"), triangles=t)


def _gen_all_negative(spec: GenSpec, rng):
    d = spec.degree
    if d < 1 or d >= spec.n:
        raise ValueError("all-negative-regular needs 1 <= d < n")
    if spec.n * d % 2:
        raise ValueError("all-negative-regular needs n*d even")
    degree = np.zeros(spec.n, dtype=np.int64)
    g = _graph(spec.n, [(_rings_and_matchings(rng, np.arange(spec.n), d // 2, d % 2, d, degree),
                         _MINUS)], d)
    m = g.num_edges
    # small draws are often bipartite, so balanced: check before certifying
    balanced = exact.is_balanced(g).balanced if d >= 3 else None
    far = ("balance", max(1, int(0.05 * m)), m, "construction-backed",
           "random near-regular graphs keep max-cut below (1-0.05)m whp")
    return g, _record(balanced, True, far if balanced is False else None)


def _gen_balanced_two_side(spec: GenSpec, rng):
    if spec.n < 4 or spec.n % 2:
        raise ValueError("balanced-two-side needs even n >= 4")
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
        parts.append((np.stack([np.arange(len(left)), right.start + rng.permutation(len(right))],
                               axis=1), _MINUS))
        g = _graph(spec.n, parts, spec.d)
    return g, _record(True, True, ("balance", 0, 0, "exact", "balanced by construction: "
                                   "positive inside sides, negative across"),
                      sides=[list(left), list(right)])


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
    return g, _record(None, True, ("clusterability", 0, 0, "exact", "positive edges only "
                                   "inside groups, negative only across"),
                      groups=[len(grp) for grp in groups_out])


def _gen_planted_matching(spec: GenSpec, rng):
    d = spec.degree
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
        raise ValueError(f"could not place {target} planted negative edges (placed {planted}); "
                         "lower planted_fraction or raise the group size")
    parts.append((np.array(pairs, dtype=np.int64).reshape(-1, 2), _MINUS))
    g = _graph(n, parts, d)
    return g, _record(False, False, (
        "clusterability", 1, planted, "construction-backed", "each planted negative edge "
        "closes a cycle through its group's connected positive skeleton; deleting all "
        "planted edges restores clusterability"), planted=planted)


# build(spec, rng) -> (graph, record); d when a spec leaves it None (None: the
# complete form, unbounded); reads: the optional parameters besides d and seed
_Family = namedtuple("_Family", "build d reads", defaults=((),))
# A family's position is its RNG spawn key in generate: add new ones at the end.
_FAMILIES = {
    CLUSTERABLE_COMMUNITIES: _Family(_gen_communities, None, ("k",)),
    BALANCED_TWO_SIDE: _Family(_gen_balanced_two_side, None),
    ALL_NEGATIVE_REGULAR: _Family(_gen_all_negative, 3),
    DISJOINT_BAD_TRIANGLES: _Family(_gen_bad_triangles, 2),
    PLANTED_NEGATIVE_MATCHING: _Family(_gen_planted_matching, 8, ("k", "planted_fraction")),
}
FAMILIES = tuple(_FAMILIES)


def generate(spec: GenSpec) -> tuple[SignedGraph, dict[str, Any]]:
    """Build the instance and its metadata record."""
    spawn_key = (FAMILIES.index(spec.family),)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=spawn_key))
    g, record = _FAMILIES[spec.family].build(spec, rng)
    degs = np.diff(g._indexes["csr"][0])
    return g, {"spec": asdict(spec), "notes": [], **record,
               "degree": {"min": int(degs.min()), "max": int(degs.max()), "bound": g.degree_bound},
               "edges": g.num_edges}
