"""Experiment engine: seeded tester runs, aggregation, JSON reports.

A report is a pure function of its config (wall-time fields aside): trials
draw their randomness from per-trial substreams keyed by trial index.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounded_testers as bt
from . import dense_testers as dt
from . import exact
from .core import Sign, SignedGraph, Witness, WitnessKind, load_edge_list
from .generators import GenSpec, generate
from .oracles import BoundedDegreeOracle, DenseOracle, RandomSource

SCHEMA_VERSION = 1

PROPERTIES = ("balance", "clusterability", "triangle")
MODELS = ("dense", "bounded")

# Budget and constant overrides: one ExperimentConfig field per name, None
# meaning "use the tester default". The CLI flags, the config validation and
# the CLI's config building all derive from this table.
_EXPONENTS = ("walk_len_log_exponent", "balance_len_eps_exponent")  # may be <= 0
OVERRIDES: dict[str, type] = {
    **dict.fromkeys(("c1", "c2", "c3", "c4", "c5", "c6", "c_b", "c_e", "c_c", "c_t"), float),
    **dict.fromkeys(_EXPONENTS, int),
    **dict.fromkeys(("triple_samples", "node_samples", "subset_size"), int),
    "allow_exact_fallback": bool,
}

_KIND_TOKENS = {
    WitnessKind.BAD_CYCLE: "bad-cycle",
    WitnessKind.ODD_NEGATIVE_CYCLE: "odd-negative-cycle",
    WitnessKind.SIGNED_TRIANGLE: "signed-triangle",
}
_TOKEN_KINDS = {v: k for k, v in _KIND_TOKENS.items()}


def witness_to_json(w: Witness) -> dict:
    return {
        "kind": _KIND_TOKENS[w.kind],
        "nodes": [int(v) for v in w.nodes],
        "signs": ["+-"[s] for s in w.signs],
    }


def witness_from_json(d: dict) -> Witness:
    if not isinstance(d, dict):
        raise ValueError(f"malformed witness record: expected an object, got {type(d).__name__}")
    try:
        kind, nodes, signs = d["kind"], d["nodes"], d["signs"]
    except KeyError as exc:
        raise ValueError(f"malformed witness record: missing {exc}") from exc
    if not (isinstance(kind, str) and kind in _TOKEN_KINDS):
        raise ValueError(f"malformed witness record: unknown kind {kind!r}")
    if not (isinstance(nodes, list) and isinstance(signs, list)):
        raise ValueError("malformed witness record: nodes and signs must be lists")
    # bool is an int subclass and int() would truncate 1.7 or parse "3"
    if not all(type(v) is int for v in nodes):
        raise ValueError("malformed witness record: node ids must be integers")
    return Witness(_TOKEN_KINDS[kind], tuple(nodes), tuple(Sign.from_token(s) for s in signs))


def wilson(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ExperimentConfig:
    """One tester, one instance, many seeded trials.

    ``instance`` is either a GenSpec or a path to an .sgl file (pass ``d``
    to attach a degree bound to file-loaded graphs for the bounded model).
    Override fields left as None use the tester defaults.
    """

    property: str
    model: str
    eps: float
    instance: GenSpec | str
    trials: int = 50
    seed: int = 0
    pattern: str = "++-"
    d: int | None = None
    # budget/constant overrides
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None
    c5: float | None = None
    c6: float | None = None
    c_b: float | None = None
    c_e: float | None = None
    c_c: float | None = None
    c_t: float | None = None
    walk_len_log_exponent: int | None = None
    balance_len_eps_exponent: int | None = None
    allow_exact_fallback: bool | None = None
    triple_samples: int | None = None
    node_samples: int | None = None
    subset_size: int | None = None

    def __post_init__(self) -> None:
        if self.property not in PROPERTIES:
            raise ValueError(f"property must be one of {PROPERTIES}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name, kind in OVERRIDES.items():
            v = getattr(self, name)
            if v is None or kind is bool:
                continue
            if kind is float and not math.isfinite(v):
                raise ValueError(f"override {name} must be finite, got {v}")
            if name not in _EXPONENTS and v <= 0:
                raise ValueError(f"override {name} must be positive")
        if self.property == "triangle":
            exact.triangle_pattern(self.pattern)

    def bounded_constants(self) -> bt.BoundedConstants:
        kw = {f.name: getattr(self, f.name) for f in dataclasses.fields(bt.BoundedConstants)
              if getattr(self, f.name) is not None}
        return dataclasses.replace(bt.DEFAULT_CONSTANTS, **kw)


def _config_to_dict(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    if isinstance(cfg.instance, GenSpec):
        d["instance"] = {"genspec": dataclasses.asdict(cfg.instance)}
    else:
        d["instance"] = {"path": str(cfg.instance)}
    return d


def load_instance(cfg: ExperimentConfig) -> SignedGraph:
    if isinstance(cfg.instance, GenSpec):
        g, _ = generate(cfg.instance)
    else:
        g = load_edge_list(cfg.instance, degree_bound=cfg.d)
    if cfg.model == "bounded" and g.degree_bound is None:
        raise ValueError("bounded-model run needs a degree bound; pass d or use "
                         "a family that sets one")
    return g


def _or(value, default):
    return default if value is None else value


def _dense_constants(cfg: ExperimentConfig) -> dict:
    return {"c_b": _or(cfg.c_b, dt.C_BALANCE), "c_e": _or(cfg.c_e, dt.C_EDGES),
            "c_c": _or(cfg.c_c, dt.C_CLUSTER), "c_t": _or(cfg.c_t, dt.C_TRIANGLE)}


def _dense_triangle(cfg: ExperimentConfig, g: SignedGraph):
    c = _dense_constants(cfg)
    c["triple_samples"] = _or(cfg.triple_samples, dt.default_triple_samples(cfg.eps, c["c_t"]))
    return c, lambda rng: dt.test_triangle_dense(
        DenseOracle(g), cfg.pattern,
        dt.DenseParams(eps=cfg.eps, seed=rng, triple_samples=c["triple_samples"]))


def _dense_balance(cfg: ExperimentConfig, g: SignedGraph):
    c = _dense_constants(cfg)
    c["node_samples"] = _or(cfg.node_samples, dt.default_node_samples(cfg.eps, c["c_b"]))
    return c, lambda rng: dt.test_balance_dense(
        DenseOracle(g), cfg.eps, rng, c_b=c["c_b"], node_samples=c["node_samples"])


def _dense_clusterability(cfg: ExperimentConfig, g: SignedGraph):
    c = _dense_constants(cfg)
    c["subset_size"] = _or(cfg.subset_size, dt.default_subset_size(cfg.eps, c["c_c"]))
    return c, lambda rng: dt.test_clusterability_dense(
        DenseOracle(g), cfg.eps, rng, c_e=c["c_e"], c_c=c["c_c"], subset_size=c["subset_size"])


def _bounded_constants(cfg: ExperimentConfig) -> tuple[dict, bt.BoundedConstants]:
    consts = cfg.bounded_constants()
    c = dataclasses.asdict(consts)
    c["c_t"] = _or(cfg.c_t, bt.C_TRIANGLE_BD)
    return c, consts


def _bounded_triangle(cfg: ExperimentConfig, g: SignedGraph):
    c, _ = _bounded_constants(cfg)
    return c, lambda rng: bt.test_triangle_bounded(
        BoundedDegreeOracle(g), cfg.pattern, cfg.eps, rng, c_t=c["c_t"])


def _bounded_walk(schedule, tester):
    def setup(cfg: ExperimentConfig, g: SignedGraph):
        c, consts = _bounded_constants(cfg)
        c["schedule"] = dataclasses.asdict(schedule(g.n, g.degree_bound, cfg.eps, consts))
        return c, lambda rng: tester(BoundedDegreeOracle(g), cfg.eps, rng, constants=consts)
    return setup


# (model, property) -> setup(cfg, g) returning (resolved constants, run),
# where run(rng) builds a fresh oracle and returns one Verdict.
TESTERS = {
    ("dense", "triangle"): _dense_triangle,
    ("dense", "balance"): _dense_balance,
    ("dense", "clusterability"): _dense_clusterability,
    ("bounded", "triangle"): _bounded_triangle,
    ("bounded", "balance"): _bounded_walk(bt.balance_walk_schedule, bt.test_balance_bounded),
    ("bounded", "clusterability"): _bounded_walk(bt.cluster_walk_schedule,
                                                 bt.test_clusterability_bounded),
}


def _run_one_trial(run, g: SignedGraph, seed: int, trial: int) -> dict:
    rng = RandomSource(seed).stream(trial)
    t0 = time.perf_counter()
    v = run(rng)
    wall = time.perf_counter() - t0
    row = {
        "trial": trial,
        "decision": v.decision,
        "queries": v.queries_used,
        "exact_fallback": v.exact_fallback,
        "wall_time_s": wall,
        "witness_valid": None,
        "witness": None,
    }
    if v.witness is not None:
        row["witness"] = witness_to_json(v.witness)
        row["witness_valid"] = exact.verify_witness(g, v.witness) is None
    return row


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    resolved_constants: dict
    instance_summary: dict
    trials: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "resolved_constants": self.resolved_constants,
            "instance": self.instance_summary,
            "trials": self.trials,
            "aggregates": self.aggregates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def strip_wall_times(report_dict: dict) -> dict:
    """Deep copy with every wall-time field zeroed (determinism compares)."""
    out = json.loads(json.dumps(report_dict))
    for row in out.get("trials", []):
        row["wall_time_s"] = 0.0
    agg = out.get("aggregates", {})
    if "mean_wall_time_s" in agg:
        agg["mean_wall_time_s"] = 0.0
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.trials independent tester runs and aggregate them."""
    g = load_instance(cfg)
    resolved, run = TESTERS[cfg.model, cfg.property](cfg, g)
    rows = [_run_one_trial(run, g, cfg.seed, t) for t in range(cfg.trials)]
    rejects = sum(1 for r in rows if r["decision"] == "reject")
    lo, hi = wilson(rejects, cfg.trials)
    queries = [r["queries"] for r in rows]
    aggregates = {
        "trials": cfg.trials,
        "rejects": rejects,
        "reject_rate": rejects / cfg.trials,
        "wilson_low": lo,
        "wilson_high": hi,
        "mean_queries": float(np.mean(queries)),
        "max_queries": int(max(queries)),
        "mean_wall_time_s": float(np.mean([r["wall_time_s"] for r in rows])),
        "all_reject_witnesses_valid": all(
            r["witness_valid"] for r in rows
            if r["decision"] == "reject" and r["witness"] is not None),
    }
    summary = {"n": g.n, "edges": g.num_edges, "degree_bound": g.degree_bound}
    return ExperimentReport(
        config=_config_to_dict(cfg),
        resolved_constants=resolved,
        instance_summary=summary,
        trials=rows,
        aggregates=aggregates,
    )


def run_scaling(cfg: ExperimentConfig, n_list: list[int]) -> dict:
    """Per-N experiments plus a log-log least-squares exponent fit."""
    if len(n_list) < 3:
        raise ValueError("need >= 3 points for a scaling fit")
    if not isinstance(cfg.instance, GenSpec):
        raise ValueError("scaling runs need a generated instance family")
    points = []
    for n in n_list:
        spec = dataclasses.replace(cfg.instance, n=n)
        sub = dataclasses.replace(cfg, instance=spec)
        rep = run_experiment(sub)
        points.append({
            "n": n,
            "mean_queries": rep.aggregates["mean_queries"],
            "max_queries": rep.aggregates["max_queries"],
            "reject_rate": rep.aggregates["reject_rate"],
            "mean_wall_time_s": rep.aggregates["mean_wall_time_s"],
        })
    if any(p["mean_queries"] <= 0 for p in points):
        raise ValueError("cannot fit an exponent through zero-query runs")
    xs = np.log([p["n"] for p in points])
    ys = np.log([p["mean_queries"] for p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _config_to_dict(cfg),
        "n_list": list(n_list),
        "points": points,
        "fitted_exponent": float(slope),
        "fit_intercept": float(intercept),
    }


def write_scaling_csv(table: dict, path) -> None:
    lines = ["n,mean_queries,max_queries,reject_rate"]
    for p in table["points"]:
        lines.append(f"{p['n']},{p['mean_queries']},{p['max_queries']},{p['reject_rate']}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
