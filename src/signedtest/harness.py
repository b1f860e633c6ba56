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

SCHEMA_VERSION = 2

PROPERTIES = ("balance", "clusterability", "triangle")
MODELS = ("dense", "bounded")

# Only the two bounded walk testers read knobs: the fields of
# bt.BoundedConstants, one ExperimentConfig field and one CLI flag each, None
# meaning "use the tester default". Every other tester refuses them.
WALK_TESTERS = (("bounded", "balance"), ("bounded", "clusterability"))
OVERRIDES: dict[str, type] = {
    f.name: type(f.default) for f in dataclasses.fields(bt.BoundedConstants)}

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
    to attach a degree bound to file-loaded graphs for the bounded model; a
    GenSpec's ``d`` must equal its degree).
    Override fields left as None use the tester defaults; only the walk
    testers read them, and setting one for another tester is an error.
    """

    property: str
    model: str
    eps: float
    instance: GenSpec | str
    trials: int = 50
    seed: int = 0
    pattern: str = "++-"
    d: int | None = None
    # walk-tester overrides, the fields of bt.BoundedConstants
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None
    c5: float | None = None
    c6: float | None = None
    walk_len_log_exponent: int | None = None
    allow_exact_fallback: bool | None = None

    def __post_init__(self) -> None:
        if self.property not in PROPERTIES:
            raise ValueError(f"property must be one of {PROPERTIES}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if isinstance(self.instance, GenSpec) and self.d not in (None, self.instance.degree):
            raise ValueError(f"d={self.d} disagrees with the instance's degree "
                             f"{self.instance.degree}")
        self.constants()
        if self.property == "triangle":
            exact.triangle_pattern(self.pattern)

    def constants(self) -> bt.BoundedConstants | None:
        """The walk testers' constants with this config's overrides; None for
        every other tester, which reads none."""
        kw = {name: getattr(self, name) for name in OVERRIDES if getattr(self, name) is not None}
        if (self.model, self.property) in WALK_TESTERS:
            return bt.BoundedConstants(**kw)
        if kw:
            raise ValueError(f"the {self.model} {self.property} tester does not read "
                             f"{', '.join(kw)}")
        return None


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


def _schedule(schedule):
    """Derive a walk tester's schedule as a dict; None when it reads the whole
    graph without one (bt.walk_schedule)."""
    def derive(cfg, g, c):
        p = bt.walk_schedule(schedule, g.n, g.degree_bound, cfg.eps, c)
        return None if p is None else dataclasses.asdict(p)
    return derive


# (model, property) -> (derived, run). derived maps each value the tester
# derives, reported in resolved_constants after the walk knobs, to a function
# of (cfg, g, c); run(cfg, o, c, rng) calls the tester on a fresh oracle o.
# c is cfg.constants(): the walk knobs, or None.
TESTERS = {
    ("dense", "triangle"): (
        {"triple_samples": lambda cfg, g, c: dt.triple_samples(cfg.eps)},
        lambda cfg, o, c, rng: dt.test_triangle_dense(
            o, cfg.pattern, dt.DenseParams(cfg.eps, rng))),
    ("dense", "balance"): (
        {"node_samples": lambda cfg, g, c: dt.node_samples(cfg.eps)},
        lambda cfg, o, c, rng: dt.test_balance_dense(o, cfg.eps, rng)),
    ("dense", "clusterability"): (
        {"subset_size": lambda cfg, g, c: dt.subset_size(cfg.eps)},
        lambda cfg, o, c, rng: dt.test_clusterability_dense(o, cfg.eps, rng)),
    ("bounded", "triangle"): (
        {"triangle_samples": lambda cfg, g, c: bt.triangle_samples(cfg.eps)},
        lambda cfg, o, c, rng: bt.test_triangle_bounded(o, cfg.pattern, cfg.eps, rng)),
    ("bounded", "balance"): (
        {"schedule": _schedule(bt.balance_walk_schedule)},
        lambda cfg, o, c, rng: bt.test_balance_bounded(o, cfg.eps, rng, constants=c)),
    ("bounded", "clusterability"): (
        {"schedule": _schedule(bt.cluster_walk_schedule)},
        lambda cfg, o, c, rng: bt.test_clusterability_bounded(o, cfg.eps, rng, constants=c)),
}
ORACLES = {"dense": DenseOracle, "bounded": BoundedDegreeOracle}


def _run_one_trial(cfg: ExperimentConfig, g: SignedGraph, c, trial: int) -> dict:
    rng = RandomSource(cfg.seed).stream(trial)
    run = TESTERS[cfg.model, cfg.property][1]
    t0 = time.perf_counter()
    v = run(cfg, ORACLES[cfg.model](g), c, rng)
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


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.trials independent tester runs and aggregate them."""
    g = load_instance(cfg)
    c = cfg.constants()
    resolved = dataclasses.asdict(c) if c is not None else {}
    for name, derive in TESTERS[cfg.model, cfg.property][0].items():
        resolved[name] = derive(cfg, g, c)
    rows = [_run_one_trial(cfg, g, c, t) for t in range(cfg.trials)]
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
    if len(set(n_list)) < 3:
        raise ValueError("need >= 3 points at distinct sizes for a scaling fit")
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
