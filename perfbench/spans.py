"""Traced mode: spans around the program's public functions.

Nothing here edits the package. ``Tracer.install`` swaps each public function
for a wrapper in every ``signedtest`` module namespace that holds it (and on
the class, for methods), so calls the package makes internally are traced
too; ``uninstall`` puts the originals back. Spans stay in memory as lists
``[name, parent, root, start, end, queries, query_s, extra]`` and are written
out once, at the end of the run.

Only calls made inside an operation (a span the benchmark opens around each
timed program call, or around a whole set-up) are recorded; the benchmark's
own checks run outside them and leave no spans.

Oracle queries are too many for one span each: a query adds its count and its
time to the span that is open when it runs. Their time is measured inside the
wrapper, so the wrapper's own cost is calibrated once and added back, both to
``query_s`` and to the self time taken away from the calling span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from statistics import median

from signedtest import bounded_testers, cli, core, dense_testers, exact, generators, harness
from signedtest.core import SignedGraph
from signedtest.harness import ExperimentReport
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

NAME, PARENT, ROOT, START, END, QUERIES, QUERY_S, EXTRA = range(8)

# (module, public name, span name); each wrapper replaces every reference to
# the same function object across the package's modules.
FUNCTIONS = [
    (generators, "generate", "generators.generate"),
    (core, "load_edge_list", "core.sgl_load"),
    (core, "save_edge_list", "core.sgl_save"),
    (dense_testers, "test_triangle_dense", "dense_testers.triangle"),
    (dense_testers, "test_balance_dense", "dense_testers.balance"),
    (dense_testers, "test_clusterability_dense", "dense_testers.clusterability"),
    (bounded_testers, "test_triangle_bounded", "bounded_testers.triangle"),
    (bounded_testers, "test_balance_bounded", "bounded_testers.balance"),
    (bounded_testers, "test_clusterability_bounded", "bounded_testers.clusterability"),
    (bounded_testers, "sample_gprime_node", "bounded_testers.sample_gprime_node"),
    (bounded_testers, "read_whole_graph", "bounded_testers.read_whole_graph"),
    (exact, "is_balanced", "exact.check"),
    (exact, "is_clusterable", "exact.check"),
    (exact, "positive_component_clustering", "exact.check"),
    (exact, "has_signed_triangle", "exact.check"),
    (exact, "k_frustration_index", "exact.k_frustration"),
    (exact, "weak_frustration_index", "exact.k_frustration"),
    (exact, "verify_witness", "exact.verify"),
    (harness, "run_experiment", "harness.run_experiment"),
    (cli, "main", "cli.main"),
]


def _edges_built(g: SignedGraph) -> int:
    return sum(len(row) for row in g.adj) // 2


def _drew_node(node) -> int:
    return int(node is not None)


# span name -> function of the wrapped call's result stored in EXTRA
EXTRAS = {
    "core.from_edges": _edges_built,
    "bounded_testers.sample_gprime_node": _drew_node,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._orphan = [None, -1, -1, 0.0, 0.0, 0, 0.0, 0]
        self._undo: list[tuple[object, str, object]] = []
        self.wrapper_cost = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, parent, root, time.perf_counter(), 0.0, 0, 0.0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out, self.spans = self.spans, []
        return out

    # -- wrappers -------------------------------------------------------------

    def _spanning(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any operation: the benchmark's own checks
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if extra is not None:
                self.spans[idx][EXTRA] = extra(result)
            return result
        return wrapper

    def _counting(self, fn):
        perf = time.perf_counter
        stack = self._stack

        def query(oracle, a, b):
            t0 = perf()
            res = fn(oracle, a, b)
            dt = perf() - t0
            rec = self.spans[stack[-1]] if stack else self._orphan
            rec[QUERIES] += 1
            rec[QUERY_S] += dt
            return res
        return query

    def _calibrate(self) -> float:
        """Seconds one query wrapper adds beyond the time it measures."""
        o = BoundedDegreeOracle(SignedGraph.from_edges(2, [(0, 1, "+")], degree_bound=1))
        wrapped = self._counting(BoundedDegreeOracle.query)
        idx = self.open("calibration")
        rec = self.spans[idx]
        reps = 20000
        runs = []
        for _ in range(5):
            rec[QUERY_S] = 0.0
            t0 = time.perf_counter()
            for _ in range(reps):
                wrapped(o, 0, 1)
            runs.append((time.perf_counter() - t0 - rec[QUERY_S]) / reps)
        self.close(idx)
        self.spans.pop()
        return max(0.0, min(runs))

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "signedtest" and not modname.startswith("signedtest."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        if not self.wrapper_cost:
            self.wrapper_cost = self._calibrate()
        for mod, name, span in FUNCTIONS:
            original = getattr(mod, name)
            self._replace_everywhere(original, self._spanning(span, original))

        from_edges = SignedGraph.__dict__["from_edges"].__func__
        self._replace_attr(SignedGraph, "from_edges",
                           classmethod(self._spanning("core.from_edges", from_edges)))
        sign_map = SignedGraph.__dict__["_sign_map"]
        traced_map = functools.cached_property(self._spanning("core.sign_map", sign_map.func))
        traced_map.__set_name__(SignedGraph, "_sign_map")
        self._replace_attr(SignedGraph, "_sign_map", traced_map)
        for oracle in (DenseOracle, BoundedDegreeOracle):
            self._replace_attr(oracle, "query", self._counting(oracle.__dict__["query"]))
        self._replace_attr(ExperimentReport, "to_json",
                           self._spanning("harness.to_json", ExperimentReport.__dict__["to_json"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics derived from spans
# ---------------------------------------------------------------------------

def layer_totals(spans: list[list], wrapper_cost: float) -> dict:
    """Totals per span name: calls, duration, self time, queries, query time
    (wrapper cost included) and the summed EXTRA field."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        q_s = rec[QUERY_S] + rec[QUERIES] * wrapper_cost
        t = out[rec[NAME]]
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - child_time[i] - q_s
        t["queries"] += rec[QUERIES]
        t["query_s"] += q_s
        t["extra"] += rec[EXTRA]
    return out


def _sum(tot: dict, prefix: str, field: str) -> float:
    return sum(t[field] for name, t in tot.items() if name.startswith(prefix))


def setup_metrics(spans: list[list], wrapper_cost: float, setups: int) -> dict:
    tot = layer_totals(spans, wrapper_cost)
    per = 1.0 / setups
    return {
        "setup.generators.generate_s": tot["generators.generate"]["self_s"] * per,
        "setup.core.from_edges_s": tot["core.from_edges"]["total_s"] * per,
        "setup.core.from_edges_calls": tot["core.from_edges"]["calls"] * per,
        "setup.core.edges_built": tot["core.from_edges"]["extra"] * per,
        "setup.core.sign_map_s": tot["core.sign_map"]["total_s"] * per,
        "setup.core.sgl_save_s": tot["core.sgl_save"]["total_s"] * per,
    }


def round_metrics(spans: list[list], wrapper_cost: float, rounds: int) -> dict:
    tot = layer_totals(spans, wrapper_cost)
    per = 1.0 / rounds
    draws = tot["bounded_testers.sample_gprime_node"]
    queries = _sum(tot, "", "queries")
    return {
        "generators.generate_s": tot["generators.generate"]["self_s"] * per,
        "core.from_edges_s": tot["core.from_edges"]["total_s"] * per,
        "core.from_edges_calls": tot["core.from_edges"]["calls"] * per,
        "core.edges_built": tot["core.from_edges"]["extra"] * per,
        "core.sign_map_s": tot["core.sign_map"]["total_s"] * per,
        "core.sgl_load_s": tot["core.sgl_load"]["total_s"] * per,
        "core.sgl_save_s": tot["core.sgl_save"]["total_s"] * per,
        "oracles.queries": queries * per,
        "oracles.query_s": _sum(tot, "", "query_s") * per,
        "oracles.query_wrapper_s": queries * wrapper_cost * per,
        "bounded_testers.self_s": _sum(tot, "bounded_testers.", "self_s") * per,
        "bounded_testers.start_draws": draws["calls"] * per,
        "bounded_testers.start_draw_yield": draws["extra"] / draws["calls"] if draws["calls"] else 0.0,
        "bounded_testers.read_whole_graph_s": tot["bounded_testers.read_whole_graph"]["total_s"] * per,
        "bounded_testers.fallback_verdicts": tot["bounded_testers.read_whole_graph"]["calls"] * per,
        "dense_testers.self_s": _sum(tot, "dense_testers.", "self_s") * per,
        "exact.check_s": tot["exact.check"]["self_s"] * per,
        "exact.k_frustration_s": tot["exact.k_frustration"]["self_s"] * per,
        "exact.verify_s": tot["exact.verify"]["self_s"] * per,
        "harness.trial_overhead_s": tot["harness.run_experiment"]["self_s"] * per,
        "harness.report_s": tot["harness.to_json"]["total_s"] * per,
        "cli.self_s": tot["cli.main"]["self_s"] * per,
    }


def verdict_p50s(times: dict[str, list[float]]) -> dict:
    out = {}
    for module in ("bounded_testers", "dense_testers"):
        for prop in ("balance", "clusterability", "triangle"):
            key = f"{module}.{prop}"
            out[f"{key}_verdict_s_p50"] = median(times[key]) if times.get(key) else 0.0
    return out


def write_spans(path, phases: dict[str, list[list]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for rec in spans:
                fh.write(json.dumps([phase, *rec]) + "\n")
