"""Differential fuzzing on random signed edge lists with at most 10 nodes.

Each property compares the library with a reference that shares none of its
code: the edge list as drawn, a networkx graph, or a plain re-parse; the .sgl
loader is compared with its own line reader, which every text could take.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import re
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedtest import bounded_testers as bt
from signedtest import core, exact, oracles
from signedtest import dense_testers as dt
from signedtest.core import (
    GraphFormatError,
    Sign,
    SignedGraph,
    WitnessKind,
    load_edge_list,
    midpoint,
)
from signedtest.exact import clustering_violations, folded_components, is_balanced, is_clusterable
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

from conftest import (
    assert_csr_of_rows,
    local_search_scoring_each_candidate_from_its_row,
    parity_search_walking_one_walk_at_a_time,
    sgl_text,
)

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# every accepted way to write a sign (Sign.PLUS == 0 and hashes alike, so a
# dict of them would keep only one of the two), and the int stored for it
SIGN_FORMS = ["+", "-", 0, 1, Sign.PLUS, Sign.MINUS]


def _stored(s) -> int:
    return "+-".index(s) if isinstance(s, str) else int(s)


@st.composite
def edge_lists(draw, min_nodes=1):
    """(n, edges): distinct pairs in random order and orientation, each with
    a sign written in one of the accepted forms."""
    n = draw(st.integers(min_nodes, 10))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(SIGN_FORMS))))
    return n, edges


@st.composite
def corrupted_edge_lists(draw):
    """(n, edges, degree_bound): a valid list of int-signed edges with up to
    three bad ones inserted anywhere (an endpoint out of range, a self-loop,
    a pair already listed, a sign other than 0 or 1), and a bound that may be
    below the maximum degree."""
    n, edges = draw(edge_lists())
    edges = [(u, v, _stored(s)) for u, v, s in edges]
    for _ in range(draw(st.integers(0, 3))):
        w = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["endpoint", "loop", "duplicate", "sign"]))
        if kind == "endpoint":
            bad = (w, draw(st.sampled_from([-1, n, n + 7])), 0)
        elif kind == "loop":
            bad = (w, w, 1)
        elif kind == "duplicate" and edges:
            u, v, s = draw(st.sampled_from(edges))
            bad = (v, u, 1 - s) if draw(st.booleans()) else (u, v, s)
        else:
            bad = (w, (w + 1) % n, draw(st.sampled_from([-1, 2, 255])))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges, draw(st.none() | st.integers(1, 6))


def _rows(n, edges):
    """Expected adjacency: (neighbor, stored sign) in edge insertion order."""
    rows = [[] for _ in range(n)]
    for u, v, s in edges:
        rows[u].append((v, _stored(s)))
        rows[v].append((u, _stored(s)))
    return rows


@FUZZ
@given(edge_lists())
def test_sgl_roundtrip_is_byte_identical(case):
    n, edges = case
    text = sgl_text(SignedGraph.from_edges(n, edges))
    assert sgl_text(load_edge_list(io.StringIO(text))) == text
    lines = text.splitlines()
    assert lines[0] == f"{n} {len(edges)}"
    want = sorted((min(u, v), max(u, v), "+-"[_stored(s)]) for u, v, s in edges)
    assert [tuple(line.split()) for line in lines[1:]] == [(str(u), str(v), t) for u, v, t in want]


@FUZZ
@given(edge_lists())
def test_oracles_return_the_input_signs_in_insertion_order(case):
    n, edges = case
    rows = _rows(n, edges)
    d = max(1, max(len(r) for r in rows))
    bounded = BoundedDegreeOracle(SignedGraph.from_edges(n, edges, degree_bound=d))
    for v in range(n):
        got = list(bounded.neighbors(v))
        assert got == rows[v]
        assert all(type(s) is int for _, s in got)
    dense = DenseOracle(SignedGraph.from_edges(n, edges))
    stored = {(u, w): s for u in range(n) for w, s in rows[u]}
    for u, w in itertools.permutations(range(n), 2):
        assert dense.query(u, w) == stored.get((u, w))
        assert dense.query(u, w) is None or type(dense.query(u, w)) is int



@FUZZ
@given(edge_lists(), st.data())
def test_dense_induced_reads_the_same_graph_from_arrays_as_pair_by_pair(case, data):
    n, edges = case
    g = SignedGraph.from_edges(n, edges)
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))  # any order
    by_pair = DenseOracle(g)  # n <= 10 reads below the cutoff
    with mock.patch.object(oracles, "_ARRAY_READ_MIN", 1):  # read at __init__ and at each read
        by_arrays = DenseOracle(g)
        got = by_arrays.induced(nodes)
    assert "csr" in g._indexes
    assert got == by_pair.induced(nodes)  # rows and their order alike
    assert by_arrays.query_count == by_pair.query_count == len(nodes) * (len(nodes) - 1) // 2
    assert all(type(w) is int and type(s) is int for row in got.adj for w, s in row)

@st.composite
def scattered_components(draw):
    """(n, edges): up to six components, each a random tree on 2 to 10 nodes
    plus up to three more edges, signed at random, their nodes scattered over
    n <= 60 ids; the ids no component takes are isolated. The trees are deep
    enough for a BFS level to meet its nodes out of id order."""
    n = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(n)))
    edges, at = [], 0
    for size in draw(st.lists(st.integers(2, 10), max_size=6)):
        part, at = ids[at:at + size], at + size
        if len(part) < 2:
            break
        pairs = {(part[i], part[draw(st.integers(0, i - 1))]) for i in range(1, len(part))}
        pairs |= set(draw(st.lists(st.sampled_from(list(itertools.combinations(part, 2))),
                                   max_size=3)))
        edges += [(u, v, draw(st.sampled_from([0, 1])))
                  for u, v in sorted({(min(p), max(p)) for p in pairs})]
    return n, edges


@mock.patch.object(exact, "_ARRAY_MIN_ENTRIES", 0)  # the array path on small graphs too
@FUZZ
@given(st.one_of(edge_lists(), scattered_components()), st.data())
def test_exact_checks_read_the_same_from_csr_arrays_as_from_tuple_rows(case, data):
    n, edges = case
    g = SignedGraph.from_edges(n, edges)
    nodes = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
    rows = DenseOracle(g).induced(nodes)  # n <= 60 reads below the cutoff: tuple rows
    with mock.patch.object(oracles, "_ARRAY_READ_MIN", 1):
        arrays = DenseOracle(g).induced(nodes)
    assert "csr" in arrays._indexes and "csr" not in rows._indexes
    for follow_negative in (True, False):
        assert exact._bfs(arrays, follow_negative) == exact._bfs(rows, follow_negative)
    assert is_balanced(arrays) == is_balanced(rows)  # sides, or the witness and its signs
    assert exact.positive_component_clustering(arrays) == exact.positive_component_clustering(rows)
    for k in (1, 2, 3, len(nodes)):
        start = folded_components(arrays, k)
        assert start == folded_components(rows, k)
        assert clustering_violations(arrays, start) == clustering_violations(rows, start)
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(nodes), max_size=len(nodes)))
    assert clustering_violations(arrays, labels) == clustering_violations(rows, labels)
    assert arrays.num_edges == rows.num_edges
    assert "adj" not in vars(arrays)  # no check above built the tuple rows
    assert arrays == rows


def _subdivision_is_bipartite(n, edges) -> bool:
    """networkx bipartiteness of the graph with every positive edge subdivided."""
    sub = nx.Graph()
    sub.add_nodes_from(range(n))
    for u, v, s in edges:
        if _stored(s) == Sign.PLUS:
            sub.add_edges_from([(u, ("mid", u, v)), (("mid", u, v), v)])
        else:
            sub.add_edge(u, v)
    return nx.is_bipartite(sub)


def _no_negative_edge_inside_a_positive_component(n, edges) -> bool:
    pos = nx.Graph()
    pos.add_nodes_from(range(n))
    pos.add_edges_from((u, v) for u, v, s in edges if _stored(s) == Sign.PLUS)
    comp = {v: i for i, c in enumerate(nx.connected_components(pos)) for v in c}
    return all(comp[u] != comp[v] for u, v, s in edges if _stored(s) == Sign.MINUS)


@FUZZ
@given(edge_lists())
def test_balance_matches_bipartite_subdivision(case):
    n, edges = case
    want = _subdivision_is_bipartite(n, edges)
    assert is_balanced(SignedGraph.from_edges(n, edges)).balanced == want


@FUZZ
@given(edge_lists())
def test_clusterable_iff_no_negative_edge_inside_a_positive_component(case):
    n, edges = case
    want = _no_negative_edge_inside_a_positive_component(n, edges)
    assert is_clusterable(SignedGraph.from_edges(n, edges)).clusterable == want


@FUZZ
@given(edge_lists(), st.data())
def test_clustering_violations_match_the_edge_list(case, data):
    n, edges = case
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    want = sum((labels[u] == labels[v]) == (_stored(s) == Sign.MINUS) for u, v, s in edges)
    assert clustering_violations(SignedGraph.from_edges(n, edges), labels) == want


@FUZZ
@given(edge_lists(), st.integers(0, 2**32 - 1))
def test_local_search_matches_scoring_each_candidate_from_its_row(case, seed):
    n, edges = case
    g = SignedGraph.from_edges(n, edges)
    for k in (1, 2, 3, n):
        for sd in (seed, seed + 1, seed + 2):
            want = local_search_scoring_each_candidate_from_its_row(g, k, np.random.default_rng(sd))
            got = dt._local_search_k_frustration(g, k, np.random.default_rng(sd),
                                                 folded_components(g, k))
            assert got == want, (k, sd)


# short walks, few of them: small graphs then reject often on the walk path
WALKS_ONLY = bt.BoundedConstants(allow_exact_fallback=False, c1=1.0, c2=2e-2, c3=5e-2,
                                 c4=2.0, c5=2.0, c6=4.0, walk_len_log_exponent=0)


def _assert_cycle_in(edges, w, negatives_ok) -> None:
    """w is a simple cycle of the drawn edge list, with its signs as drawn."""
    sign = {}
    for u, v, s in edges:
        sign[u, v] = sign[v, u] = _stored(s)
    assert len(w.nodes) >= 3 and len(set(w.nodes)) == len(w.nodes)
    assert [sign.get((u, v)) for u, v, _ in w.edge_pairs()] == list(w.signs)
    assert negatives_ok(sum(w.signs))


def test_walk_testers_are_one_sided_and_their_witnesses_hold():
    rejects = Counter()

    @FUZZ
    @given(edge_lists(min_nodes=2), st.integers(0, 2**32 - 1))
    def check(case, seed):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        g = SignedGraph.from_edges(n, edges, degree_bound=d)
        bal = bt.test_balance_bounded(BoundedDegreeOracle(g), 0.9, seed, WALKS_ONLY)
        clu = bt.test_clusterability_bounded(BoundedDegreeOracle(g), 0.9, seed, WALKS_ONLY)
        assert not bal.exact_fallback and not clu.exact_fallback
        if not bal.accept:
            assert not _subdivision_is_bipartite(n, edges)
            assert bal.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
            _assert_cycle_in(edges, bal.witness, lambda k: k % 2 == 1)
            rejects["balance"] += 1
        if not clu.accept:
            assert not _no_negative_edge_inside_a_positive_component(n, edges)
            assert clu.witness.kind is WitnessKind.BAD_CYCLE
            _assert_cycle_in(edges, clu.witness, lambda k: k == 1)
            rejects["clusterability"] += 1

    check()
    # the witness checks above ran on both testers
    assert rejects["balance"] > 0 and rejects["clusterability"] > 0


def test_lockstep_parity_search_matches_walking_one_walk_at_a_time():
    seen = Counter()

    # tiny groups and blocks split the walks the way long schedules do
    @FUZZ
    @given(edge_lists(min_nodes=2), st.integers(1, 60), st.integers(1, 30),
           st.integers(1, 64), st.integers(1, 512), st.integers(0, 2**32 - 1), st.data())
    def check(case, walks, length, group_walks, group_steps, seed, data):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        g = SignedGraph.from_edges(n, edges, degree_bound=d)
        mids = [midpoint(n, min(u, v), max(u, v)) for u, v, s in edges if _stored(s) == Sign.PLUS]
        start = data.draw(st.sampled_from(mids) if mids and data.draw(st.booleans())
                          else st.integers(0, n - 1))
        p = bt.WalkParams(starts=1, walks_per_start=walks, walk_length=length)
        lockstep, stepping = BoundedDegreeOracle(g), BoundedDegreeOracle(g)
        with mock.patch.multiple(bt, _draw_start=lambda o, rng: start,
                                 _GROUP_WALKS=group_walks, _GROUP_STEPS=group_steps):
            got = bt._parity_search(lockstep, p, np.random.default_rng(seed))
            want = parity_search_walking_one_walk_at_a_time(stepping, p, np.random.default_rng(seed))
        assert got == want
        if got is None:
            assert lockstep.query_count == stepping.query_count
        else:
            assert lockstep.query_count >= stepping.query_count
            seen["reject"] += 1
        seen["midpoint start" if start >= n else "original start"] += 1

    check()
    assert min(seen[k] for k in ("reject", "midpoint start", "original start")) > 0


def _has_triangle(n, edges, pattern) -> bool:
    """A triangle of the drawn edge list with the pattern's sign multiset."""
    sign = {}
    for u, v, s in edges:
        sign[u, v] = sign[v, u] = _stored(s)
    want = sorted("+-".index(c) for c in pattern)
    return any(sorted((sign.get((a, b)), sign.get((b, c)), sign.get((a, c)))) == want
               for a, b, c in itertools.combinations(range(n), 3)
               if (a, b) in sign and (b, c) in sign and (a, c) in sign)


def test_triangle_and_dense_balance_testers_are_one_sided_and_their_witnesses_hold():
    rejects = Counter()

    @FUZZ
    @given(edge_lists(min_nodes=3), st.sampled_from(["+++", "++-", "+--", "---"]),
           st.integers(0, 2**32 - 1))
    def check(case, pattern, seed):
        n, edges = case
        d = max([2] + [len(r) for r in _rows(n, edges)])
        dense = SignedGraph.from_edges(n, edges)
        triangles = {
            "dense triangle": dt.test_triangle_dense(DenseOracle(dense), pattern,
                                                     dt.DenseParams(eps=0.9, seed=seed)),
            "bounded triangle": bt.test_triangle_bounded(
                BoundedDegreeOracle(SignedGraph.from_edges(n, edges, degree_bound=d)),
                pattern, 0.9, seed),
        }
        for name, v in triangles.items():
            if not v.accept:
                assert _has_triangle(n, edges, pattern)
                assert v.witness.kind is WitnessKind.SIGNED_TRIANGLE
                _assert_cycle_in(edges, v.witness, lambda k: k == pattern.count("-"))
                rejects[name] += 1
        bal = dt.test_balance_dense(DenseOracle(dense), 0.9, seed)
        if not bal.accept:
            assert not _subdivision_is_bipartite(n, edges)
            assert bal.witness.kind is WitnessKind.ODD_NEGATIVE_CYCLE
            _assert_cycle_in(edges, bal.witness, lambda k: k % 2 == 1)
            rejects["dense balance"] += 1

    check()
    # the witness checks above ran on all three testers
    assert min(rejects[k] for k in ("dense triangle", "bounded triangle", "dense balance")) > 0


@FUZZ
@given(corrupted_edge_lists())
def test_from_arrays_builds_or_rejects_as_from_edges_does(case):
    n, edges, bound = case
    cols = [np.array([e[i] for e in edges], dtype=np.int64) for i in range(3)]
    try:
        want = SignedGraph.from_edges(n, edges, bound)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            SignedGraph.from_arrays(n, *cols, bound)
        assert str(got.value) == str(exc)
        return
    got = SignedGraph.from_arrays(n, *cols, bound)
    assert got == want and repr(got.adj) == repr(want.adj)


@FUZZ
@given(edge_lists(), st.sampled_from([np.int64, np.int32, np.uint16]))
def test_from_arrays_keeps_the_csr_arrays_of_the_rows_it_builds(case, dtype):
    n, edges = case
    cols = [np.array([e[i] for e in edges], dtype=dtype) for i in range(2)]
    g = SignedGraph.from_arrays(n, *cols, np.array([_stored(e[2]) for e in edges], dtype=dtype))
    assert g == SignedGraph.from_edges(n, edges)
    assert_csr_of_rows(g._indexes["csr"], g.adj)



@mock.patch.object(exact, "_ARRAY_MIN_ENTRIES", 0)  # the array path on small graphs too
@FUZZ
@given(edge_lists(min_nodes=2), st.integers(0, 2), st.sampled_from([1.0, 1.5, 8.0]))
def test_whole_graph_read_is_the_same_from_csr_arrays_as_from_tuple_rows(case, slack, eps):
    n, edges = case
    edges = [(u, v, _stored(s)) for u, v, s in edges]
    d = max([2, *Counter(x for u, v, _ in edges for x in (u, v)).values()]) + slack

    def arrays_only():  # a fresh graph from from_arrays, its rows never read
        cols = np.array(edges, dtype=np.int64).reshape(-1, 3).T
        return SignedGraph.from_arrays(n, *cols, d)

    rows = SignedGraph.from_edges(n, edges, d)
    by_arrays, by_rows = BoundedDegreeOracle(arrays_only()), BoundedDegreeOracle(rows)
    got, want = bt.read_whole_graph(by_arrays), bt.read_whole_graph(by_rows)
    assert isinstance(got, core.CSRGraph) and "adj" not in got._indexes
    assert by_arrays.query_count == by_rows.query_count
    assert by_rows.query_count == sum(min(len(row) + 1, d) for row in rows.adj)
    assert got == want and got.degree_bound == want.degree_bound == d
    for tester in (bt.test_balance_bounded, bt.test_clusterability_bounded):
        g = arrays_only()
        v, w = tester(BoundedDegreeOracle(g), eps, 0), tester(BoundedDegreeOracle(rows), eps, 0)
        assert (v.accept, v.witness, v.queries_used, v.exact_fallback) == \
            (w.accept, w.witness, w.queries_used, w.exact_fallback)
        assert v.exact_fallback and "adj" not in g._indexes  # answered on the arrays

_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# departures from the plain form that the line reader accepts, each made to
# one line or to the whole text; made in this order, they compose
_LINE_DEPARTURES = {
    "leading zero": "0{}".format,
    "twenty zeros": ("0" * 20 + "{}").format,
    "plus sign": "+{}".format,
    "arabic-indic digits": lambda line: line.translate(_ARABIC_INDIC),
    "tab": lambda line: line.replace(" ", "\t", 1),
    "double space": lambda line: line.replace(" ", "  ", 1),
    "trailing space": "{} ".format,
    "trailing comment": "{} # note".format,
    "indent": "\t{}".format,
    "blank lines": " \n\n{}".format,
    "comment line": "# comment\n{}".format,
}
_TEXT_DEPARTURES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
}


@st.composite
def sgl_texts(draw, corrupt=False):
    """(text, degree_bound, plain): an edge list of edge_lists() as .sgl text,
    lines in the drawn order. A plain text is in the form save_edge_list
    writes; the others make up to four departures from it. With corrupt, one
    damage (bad sign, missing or extra field, u >= v, endpoint >= n, a
    repeated pair, a degree over the bound, a wrong count of lines) makes
    the line reader reject the text."""
    n, edges = draw(edge_lists(min_nodes=2 if corrupt else 1))
    rows = [[min(u, v), max(u, v), "+-"[_stored(s)]] for u, v, s in edges]
    m = len(rows)
    degree = max(Counter(x for r in rows for x in r[:2]).values(), default=0)
    bound = draw(st.none() | st.integers(max(degree, 1), max(degree, 1) + 2))
    if corrupt:
        kinds = ["sign", "field", "order", "range", "count", "line past the count"]
        kinds += ["repeat"] * bool(rows) + ["degree"] * (degree >= 2)
        kind = draw(st.sampled_from(kinds))
        w = draw(st.integers(0, n - 2))
        if kind == "count":
            m += draw(st.sampled_from([-1, 1, 2]))
        elif kind == "line past the count":
            rows.append([w, w + 1, "+ # past the count"])
        elif kind == "degree":
            bound = degree - 1
        else:
            bad = {
                "sign": lambda: [w, w + 1, draw(st.sampled_from(["?", "0", "1", "+-", "plus"]))],
                "field": lambda: draw(st.sampled_from([[w, w + 1], [w, "-"], [w, w + 1, "+", w]])),
                "order": lambda: [w + draw(st.integers(0, 1)), w, "-"],
                "range": lambda: [w, n + draw(st.sampled_from([0, 1, 3, 10**20])), "+"],
                "repeat": lambda: [*draw(st.sampled_from(rows))[:2], draw(st.sampled_from("+-"))],
            }[kind]()
            rows.insert(draw(st.integers(0, len(rows))), bad)
            m += 1
    lines = [" ".join(map(str, line)) for line in [[n, m], *rows]]
    names = draw(st.sets(st.sampled_from([*_LINE_DEPARTURES, *_TEXT_DEPARTURES]), max_size=4))
    for name, depart in _LINE_DEPARTURES.items():
        if name in names:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = depart(lines[i])
    text = "\n".join(lines) + "\n"
    for name, depart in _TEXT_DEPARTURES.items():
        if name in names:
            text = depart(text)
    return text, bound, not names


@pytest.fixture(scope="module")
def sgl_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sgl") / "g.sgl"


def _line_reader(path, bound):
    """The graph the line reader alone builds from the file, or its error."""
    with open(path, encoding="utf-8") as fh:
        lines = core._data_lines(fh)
        _, n, m = core._header(lines)
        return core._read_edges(lines, n, m, bound)


@FUZZ
@given(case=sgl_texts())
def test_load_edge_list_builds_what_the_line_reader_builds(sgl_path, case):
    text, bound, plain = case
    sgl_path.write_bytes(text.encode())
    want = _line_reader(sgl_path, bound)
    # a plain text's body never reaches the line reader
    skip_lines = mock.patch.object(core, "_read_edges", side_effect=AssertionError("line reader"))
    with skip_lines if plain else contextlib.nullcontext():
        got = [load_edge_list(sgl_path, bound), load_edge_list(io.StringIO(text), bound)]
    for g in got:
        assert g == want and repr(g.adj) == repr(want.adj)


# the plain body as a regular expression: a reference that shares no code with core._plain
_PLAIN_BODY = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18} [+-]\n)*")
_TOKENS = ["0", "7", "12", "9" * 17, "1" * 18, "1" * 19, " ", "  ", "+", "-", "\n", "\r\n",
           "\t", "#", ",", "*", "/", ":", "?", "\u0663", "\ud800", "\x00"]
_NUMBER = st.sampled_from(["0", "7", "12", "1" * 18, "", "9" * 19])
# a line "u v s" whose every part is plain or, less often, one departure from it
_NEAR_PLAIN_LINE = st.tuples(
    _NUMBER, st.sampled_from([" ", " ", "  ", "\t", ""]), _NUMBER, st.sampled_from([" ", " ", ""]),
    st.sampled_from(["", "", "3"]), st.sampled_from(["+", "-", "*"]), st.sampled_from(["", "", "4"]),
    st.sampled_from(["\n", "\n", "\r\n", ""])).map("".join)


@FUZZ
@given(st.one_of(sgl_texts(), sgl_texts(corrupt=True)).map(lambda case: case[0].partition("\n")[2])
       | st.lists(_NEAR_PLAIN_LINE, max_size=6).map("".join)
       | st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join), st.integers(-1, 2))
def test_plain_body_check_is_its_grammar(body, shift):
    m = body.count("\n") + shift
    assert core._plain(body, m) == (_PLAIN_BODY.fullmatch(body) is not None
                                    and body.count("\n") == m)


@FUZZ
@given(case=sgl_texts(corrupt=True))
def test_load_edge_list_rejects_what_the_line_reader_rejects(sgl_path, case):
    text, bound, _ = case
    sgl_path.write_bytes(text.encode())
    with pytest.raises(GraphFormatError) as want:
        _line_reader(sgl_path, bound)
    for source in (sgl_path, io.StringIO(text)):
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(source, bound)
        assert str(got.value) == str(want.value)
