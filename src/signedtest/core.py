"""Core signed-graph data types, validation, file I/O, and G2 node ids.

A signed graph is a simple undirected graph whose edges carry a + or - label.
Everything downstream (exact checkers, testers, generators) works on the
immutable ``SignedGraph`` defined here. ``SignedGraph.from_arrays`` builds one
from (u, v, sign) integer arrays with vectorized checks, as a ``CSRGraph`` that
builds its rows at the first read of ``adj``; the generators and the ``.sgl``
loader use it, and build no rows. The loader checks a file's header first, then
reads a body in the plain form ``save_edge_list`` writes (from the CSR arrays)
in vectorized passes, and any other body line by line, naming the line at fault.
``SignedGraph.from_edges`` takes any iterable of edge tuples, with a Python
loop that is about ten times cheaper on a graph of a few nodes; tests and
hand-written lists use it, and ``from_arrays`` calls it only to word a
rejection. A whole-graph read calls neither.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain, pairwise, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np


class Sign(IntEnum):
    """Edge sign. PLUS sorts before MINUS; serialized as '+' / '-'.

    Graphs and oracles carry a sign as the plain int a member names, never as
    the member: members are GC-tracked, and so is every tuple holding one, so
    each full collection would rescan every edge. Minus is the truthy one.
    """

    PLUS = 0
    MINUS = 1

    @classmethod
    def from_token(cls, tok: str) -> "Sign":
        if tok == "+":
            return cls.PLUS
        if tok == "-":
            return cls.MINUS
        raise ValueError(f"bad sign token {tok!r}, expected '+' or '-'")


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input or invalid graph construction."""


# The largest instance built or loaded: an .sgl load of 10^6 edges peaks at
# about 200 bytes of RSS an edge, its rows then at 250 a node plus 60 an edge
# (VmHWM above the start; CPython 3.11, NumPy 2.4, Linux), under 2 GB at both.
MAX_NODES, MAX_EDGES = 4_000_000, 8_000_000


# Sign values from_edges accepts, and the int each stores. The type check
# keeps out True and 1.0, which hash and compare equal to 1.
_SIGN_VALUES = {"+": 0, "-": 1, 0: 0, 1: 1}
_SIGN_TYPES = frozenset((str, int, Sign))


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph: ``adj[v]`` lists ``(neighbor, sign)`` pairs,
    each sign the plain int 0 (plus) or 1 (minus); see Sign.

    Neighbor order inside each adjacency list is edge insertion order; the
    bounded-degree oracle exposes exactly this order, so it is part of the
    graph's identity, not an implementation detail. ``from_arrays`` and a dense
    induced read of 64 nodes or more give a ``CSRGraph``, rows built when read.
    """

    n: int
    adj: tuple[tuple[tuple[int, int], ...], ...]
    degree_bound: int | None = None
    # Indexes shared by every oracle on the graph: CSR arrays (see csr_rows), a
    # CSRGraph's rows once built, and the bounded oracles' row store. An oracle
    # keeps this dict, not the graph: a dict of arrays and untracked tuples is
    # untracked after full collections, so a graph only oracles reach is freed.
    _indexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, Sign | int | str]],
        degree_bound: int | None = None,
    ) -> "SignedGraph":
        if n < 1:
            raise GraphFormatError("graph needs at least one node")
        if degree_bound is not None and degree_bound < 1:
            raise GraphFormatError("degree bound must be >= 1")
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v, s in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) endpoint out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            ok = type(s) in _SIGN_TYPES or isinstance(s, np.integer)
            sign = _SIGN_VALUES.get(s) if ok else None
            if sign is None:
                raise GraphFormatError(
                    f"edge ({u},{v}) has sign {s!r}, expected '+', '-', 0 or 1")
            lists[u].append((v, sign))
            lists[v].append((u, sign))
        if degree_bound is not None:
            for v in range(n):
                if len(lists[v]) > degree_bound:
                    raise GraphFormatError(
                        f"node {v} has degree {len(lists[v])} > bound {degree_bound}"
                    )
        return cls(n, tuple(tuple(l) for l in lists), degree_bound)

    @classmethod
    def from_arrays(cls, n: int, u, v, sign, degree_bound: int | None = None) -> "SignedGraph":
        """The graph of ``from_edges(n, zip(u, v, sign), degree_bound)`` from
        three integer arrays, checked and built with NumPy.

        Every check of ``from_edges`` runs vectorized; on any failure the
        edges go through ``from_edges``, which raises its message for the
        first offending edge. The entries are sorted into CSR arrays, rows in
        insertion order, and returned as a ``CSRGraph`` that builds its rows
        at the first read of ``adj``.
        """
        u, v, sign = arrays = [np.asarray(a) for a in (u, v, sign)]
        if any(a.ndim != 1 or a.dtype.kind not in "iu" or len(a) != len(u) for a in arrays):
            raise GraphFormatError("from_arrays needs three 1-d integer arrays of one length")
        ends = np.stack([u, v], axis=1).astype(np.int64, copy=False)
        lo, hi = np.minimum(*ends.T), np.maximum(*ends.T)
        key = np.sort(lo * n + hi)
        ok = (n >= 1 and (degree_bound is None or degree_bound >= 1)
              and lo.min(initial=0) >= 0 and hi.max(initial=0) < n and (lo < hi).all()
              and ((sign == 0) | (sign == 1)).all() and (key[1:] > key[:-1]).all())
        del lo, hi, key  # each temporary is freed once used, which lowers the peak
        if ok:
            deg = np.bincount(ends.ravel(), minlength=n)
            ok = degree_bound is None or deg.max() <= degree_bound
        if not ok:
            cls.from_edges(n, zip(*(a.tolist() for a in arrays)), degree_bound)
            raise AssertionError("from_edges accepted edges that from_arrays rejects")
        del u, v, arrays  # ends holds the endpoints: ones a caller handed over are freed
        # entry 2i + j is edge i seen from its endpoint j; sorting the keys
        # (endpoint, entry) groups the entries by row, in insertion order
        # (n * 2m, like n * n above, fits int64 for any graph held in memory)
        m2 = 2 * len(ends)
        order = np.sort(ends.ravel() * m2 + np.arange(m2)) % m2
        indptr = np.concatenate(([0], np.cumsum(deg)))
        nbr, sgn = np.full(m2 + 1, -1, dtype=np.int64), np.full(m2 + 1, -1, dtype=np.int8)
        # entry 2i + j's neighbour is entry 2i + 1 - j's end; every index is in
        # range, and mode "clip" writes into out where "raise" buffers a copy
        np.take(ends.ravel(), order ^ 1, out=nbr[:-1], mode="clip")
        np.take(sign.astype(np.int8, copy=False), order >> 1, out=sgn[:-1], mode="clip")
        return CSRGraph(n, {"csr": (indptr, nbr, sgn)}, degree_bound)

    @cached_property
    def _sign_map(self) -> tuple[dict[int, int], ...]:  # [u][v] -> sign of (u, v)
        return tuple(map(dict, self.adj))

    def sign_of(self, u: int, v: int) -> int | None:
        """Sign of edge (u,v), or None if absent."""
        return self._sign_map[u].get(v) if 0 <= u < self.n else None

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each edge once, as (u, v, sign) with u < v, sorted."""
        out = [(u, v, s) for u in range(self.n) for v, s in self.adj[u] if u < v]
        out.sort(key=lambda e: (e[0], e[1]))
        return iter(out)

    @cached_property
    def num_edges(self) -> int:
        csr = self._indexes.get("csr")  # a CSRGraph counts without building rows
        return (int(csr[0][-1]) if csr else sum(map(len, self.adj))) // 2


class CSRGraph(SignedGraph):
    """A graph held as CSR arrays in csr_rows' form, equal to the SignedGraph of
    its rows and degree bound; they are built at the first read, kept in _indexes."""

    def __init__(self, n: int, indexes: dict, degree_bound: int | None = None):
        self.__dict__.update(n=n, degree_bound=degree_bound, _indexes=indexes)

    def __eq__(self, other):  # the dataclass eq compares graphs of one class only
        return SignedGraph(self.n, self.adj, self.degree_bound) == other

    __hash__ = SignedGraph.__hash__

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return self._indexes.get("adj") or _csr_adj(self.n, self._indexes)


def _csr_adj(n: int, indexes: dict) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of indexes["csr"], kept as indexes["adj"]: each node's id one int
    object, each (neighbour, sign) entry one tuple, shared by every row holding it."""
    indptr, nbr, sign = indexes["csr"]
    ids = list(range(n))
    table = np.fromiter(chain(zip(ids, repeat(0)), zip(ids, repeat(1))),
                        dtype=object, count=2 * n)  # entry (w, s) at s*n + w
    entries = table[nbr[:-1] + n * sign[:-1].astype(np.int64)].tolist()
    return indexes.setdefault("adj", tuple(tuple(entries[a:b]) for a, b in pairwise(indptr.tolist())))


def validate(g: SignedGraph) -> str | None:
    """Return None if g satisfies every structural invariant, else the first violation."""
    if g.n < 1:
        return "graph needs at least one node"
    if len(g.adj) != g.n:
        return f"adjacency has {len(g.adj)} rows for n={g.n}"
    for u in range(g.n):
        seen: set[int] = set()
        for v, s in g.adj[u]:
            if not 0 <= v < g.n:
                return f"neighbor {v} of {u} out of range"
            if v == u:
                return f"self-loop at {u}"
            if v in seen:
                return f"parallel edge ({u},{v})"
            seen.add(v)
            if type(s) not in (int, Sign) or s not in (0, 1):
                return f"edge ({u},{v}) has non-sign label {s!r}"
            back = [t for w, t in g.adj[v] if w == u]
            if not back:
                return f"asymmetric edge ({u},{v})"
            if back[0] != s:
                return f"edge ({u},{v}) sign mismatch across directions"
    if g.degree_bound is not None:
        if g.degree_bound < 1:
            return "degree bound must be >= 1"
        for u in range(g.n):
            if len(g.adj[u]) > g.degree_bound:
                return f"node {u} has degree {len(g.adj[u])} > bound {g.degree_bound}"
    return None


# ---------------------------------------------------------------------------
# Edge-list file format
#
# Header line "n m", then m lines "u v s" with 0 <= u < v < n and s in {+,-}.
# '#' starts a comment, blank lines are ignored, encoding is UTF-8 with LF
# (a leading byte-order mark is dropped).
# ---------------------------------------------------------------------------


def _data_lines(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(lines, start=start):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_edge_list(source: str | Path | TextIO, degree_bound: int | None = None) -> SignedGraph:
    """Parse a .sgl edge list from a path or an open text stream; a leading
    UTF-8 byte-order mark is dropped. The header is read and checked before
    the body."""
    if hasattr(source, "read"):
        return _parse(source, degree_bound)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as fh:
        return _parse(fh, degree_bound)


_SIGN_DIGITS = str.maketrans("+-", "01")
_WRITE_LINES = 1 << 16  # lines save_edge_list formats at a time: never a whole large text
_PLUS_LINE, _MINUS_LINE = np.frombuffer(b"  +\n  -\n", dtype="<i4").tolist()


def _plain(body: str, m: int) -> bool:
    """Is body m lines "u v s" as save_edge_list writes them: u and v of 1 to 18
    digits (so each fits int64), single spaces, s '+' or '-', LF endings, no
    comment or blank line? Checked on the bytes; each line's 4 non-digits, " ", " ",
    s and LF, are read as one int32, _PLUS_LINE or _MINUS_LINE."""
    raw = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8)  # others read '?'
    sep = np.flatnonzero((raw < 48) | (raw > 57))  # every byte but '0'-'9'
    if len(sep) != 4 * m or len(raw) != (sep[-1] + 1 if m else 0):
        return False
    gap = np.diff(sep, prepend=-1).reshape(m, 4)  # 1 + the digits before each
    line = raw[sep].view("<i4")
    return m == 0 or bool(gap[:, :2].min() >= 2 and gap.max() <= 19 and gap[:, 2:].max() == 1
                          and ((line == _PLUS_LINE) | (line == _MINUS_LINE)).all())


def _parse(stream: TextIO, degree_bound: int | None) -> SignedGraph:
    """The header, then the body: a plain body of m lines, 0 <= u < v < n on
    each, goes to from_arrays at once; any other goes to the line reader,
    which names the line at fault and builds the same."""
    first = stream.readline().removeprefix("\ufeff")
    lineno, n, m = _header(_data_lines(chain([first], iter(stream.readline, ""))))
    body = stream.read()
    if _plain(body, m):
        cols = np.fromstring(body.translate(_SIGN_DIGITS), dtype=np.int64, sep=" ")
        u, v, s = cols.reshape(m, 3).T
        if (u < v).all() and (v < n).all():
            return SignedGraph.from_arrays(n, u, v, s, degree_bound)
    return _read_edges(_data_lines(io.StringIO(body), lineno + 1), n, m, degree_bound)


def _header(lines: Iterator[tuple[int, str]]) -> tuple[int, int, int]:
    """The header's line number, then n and m, each checked against its cap."""
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphFormatError("line 1: missing 'n m' header") from None
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    if not 1 <= n <= MAX_NODES:  # then every endpoint, being below n, fits int64
        raise GraphFormatError(f"line {lineno}: n must be between 1 and {MAX_NODES:,}")
    if not 0 <= m <= MAX_EDGES:
        raise GraphFormatError(f"line {lineno}: m must be between 0 and {MAX_EDGES:,}")
    return lineno, n, m


def _read_edges(lines: Iterator[tuple[int, str]], n: int, m: int,
                degree_bound: int | None) -> SignedGraph:
    edges: list[tuple[int, int, int]] = []
    for lineno, line in lines:
        if len(edges) == m:
            raise GraphFormatError(f"line {lineno}: more than the declared {m} edges")
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v s', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        if not 0 <= u < v < n:
            raise GraphFormatError(f"line {lineno}: endpoints must satisfy 0 <= u < v < n")
        try:
            s = int(Sign.from_token(fields[2]))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
        edges.append((u, v, s))
    if len(edges) != m:
        raise GraphFormatError(f"declared {m} edges but found {len(edges)}")
    u, v, s = np.array(edges, dtype=np.int64).reshape(m, 3).T
    return SignedGraph.from_arrays(n, u, v, s, degree_bound)


def save_edge_list(g: SignedGraph, dest: str | Path | TextIO) -> None:
    """Write g in canonical form: sorted edges, '+'/'-' tokens, LF endings."""
    if hasattr(dest, "write"):
        _write(g, dest)  # type: ignore[arg-type]
        return
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        _write(g, fh)


def _write(g: SignedGraph, fh: TextIO) -> None:
    """Write from the CSR arrays (a graph from edge tuples gets them for the write only)."""
    src, dst, sign = csr_entries(g.n, *(g._indexes.get("csr") or csr_rows(g.adj, {})))
    key = np.sort(((src * g.n + dst) * 2 + sign)[src < dst])  # (u, v, s) packed, as edges() sorts
    fh.write(f"{g.n} {len(key)}\n")
    for lo in range(0, len(key), _WRITE_LINES):
        uv, s = np.divmod(key[lo:lo + _WRITE_LINES], 2)
        rows = zip(*(a.tolist() for a in (*np.divmod(uv, g.n), s)))
        fh.write("".join([f"{u} {v} {'+-'[c]}\n" for u, v, c in rows]))


# ---------------------------------------------------------------------------
# Derived graphs
# ---------------------------------------------------------------------------


def midpoint(n: int, u: int, v: int) -> int:
    """Id of the subdivision node on positive edge (u, v) of an n-node graph.

    Original node u keeps id u; the midpoint of (u, v) with u < v is
    n + u*n + v, so every id is a plain int and ids never collide.
    """
    if u > v:
        u, v = v, u
    return n + u * n + v


def csr_rows(adj: tuple[tuple[tuple[int, int], ...], ...],
             indexes: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A graph's rows ``adj`` as CSR arrays (indptr and nbr as int64, sign as
    int8), each row in insertion order; nbr and sign end with one -1 past the
    last row, the answer read for an empty slot. Kept in ``indexes``, the same
    graph's ``_indexes``, where from_arrays and a dense array read put them at
    the build; for a graph from edge tuples they are built at the first call."""
    csr = indexes.get("csr")
    if csr is None:
        n = len(adj)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
        count, flat = int(indptr[-1]) + 1, chain.from_iterable
        nbr = np.fromiter(chain(map(itemgetter(0), flat(adj)), [-1]), dtype=np.int64, count=count)
        sign = np.fromiter(chain(map(itemgetter(1), flat(adj)), [-1]), dtype=np.int8, count=count)
        csr = indexes["csr"] = (indptr, nbr, sign)
    return csr


def csr_entries(n: int, indptr, nbr, sign) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row entry of CSR arrays as three arrays: its row, neighbour and sign."""
    return np.repeat(np.arange(n), np.diff(indptr)), nbr[:indptr[-1]], sign[:indptr[-1]]


# ---------------------------------------------------------------------------
# Witnesses and clusterings
# ---------------------------------------------------------------------------


class WitnessKind(IntEnum):
    BAD_CYCLE = 0            # cycle with exactly one negative edge
    ODD_NEGATIVE_CYCLE = 1   # cycle with an odd number of negative edges
    SIGNED_TRIANGLE = 2      # triangle matching a queried sign multiset


@dataclass(frozen=True)
class Witness:
    """A concrete forbidden substructure found in a graph.

    ``signs[i]`` is the sign of edge ``(nodes[i], nodes[(i+1) % len(nodes)])``;
    the closing edge is included, so len(signs) == len(nodes).
    """

    kind: WitnessKind
    nodes: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.signs):
            raise ValueError("witness needs one sign per cycle edge, closing edge included")

    def edge_pairs(self) -> Iterator[tuple[int, int, int]]:
        k = len(self.nodes)
        for i in range(k):
            yield self.nodes[i], self.nodes[(i + 1) % k], self.signs[i]


@dataclass(frozen=True)
class Clustering:
    """Partition of nodes into clusters 0..k-1; every id must be used."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("clustering needs at least one cluster")
        used = set(self.assignment)
        if used != set(range(self.k)):
            raise ValueError(f"cluster ids must be exactly 0..{self.k - 1}")

    @classmethod
    def from_labels(cls, labels: Iterable[int]) -> "Clustering":
        """Relabel arbitrary hashable labels to 0..k-1 in first-seen order."""
        remap: dict[int, int] = {}
        out = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return cls(tuple(out), len(remap))