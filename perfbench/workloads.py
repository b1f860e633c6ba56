"""The four workloads and the tally of what their rounds did.

A workload builds its instances and oracles in ``setup`` (the part timed as
``setup_s``), computes its independent ground truth in ``prepare`` (untimed),
and then repeats ``round``: the same program calls with the same seeds each
time, so every round attempts the same operations and must reproduce the
first round's outcomes exactly. Only the program calls are timed; the checks
that judge their outputs run between them.

Program functions are always looked up on their module at call time
(``bt.test_balance_bounded``, ``cli.main``), so that traced mode, which swaps
them for wrappers, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from signedtest import bounded_testers as bt
from signedtest import cli, generators, harness
from signedtest import dense_testers as dt
from signedtest.core import SignedGraph
from signedtest.generators import GenSpec
from signedtest.oracles import BoundedDegreeOracle, DenseOracle

import speed
from checks import (
    EdgeSet,
    bounded_triangle_samples,
    canon_witness,
    dense_triangle_samples,
    program_agrees,
    row_lookup,
    witness_problem,
)

# The reduced walk constants of acceptance criterion 6: with the fallback off
# and these budgets the walk testers run sublinearly at N = 10^5.
WALK_BAL = dict(allow_exact_fallback=False, c1=1.0, c2=0.005, c3=0.05, walk_len_log_exponent=0)
WALK_CLU = dict(allow_exact_fallback=False, c4=2.0, c5=0.05, c6=0.6, walk_len_log_exponent=0)
WALK_EPS = 0.9

# What a rejecting tester must return: witness kind, and the property the
# instance must lack for a reject to be allowed.
WITNESS_KIND = {"balance": "odd-negative-cycle", "clusterability": "bad-cycle",
                "++-": "signed-triangle", "---": "signed-triangle"}


def seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` reproducible 32-bit seeds for one stream of one run."""
    return [int(x) for x in np.random.SeedSequence([seed, stream]).generate_state(count)]


class Tally:
    """What one phase of the measured loop did: operations attempted and
    failed, verdicts and their queries, and time spent inside program calls.

    ``reference`` holds the first round's outcomes and is shared by the
    phases of one run; every later round is compared with it position by
    position, so a verdict that changes between repeats is a failure.
    """

    def __init__(self, reference: list, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.attempted = self.failed = self.verdicts = self.queries = self.rounds = 0
        # wall seconds inside program calls, and inside verdicts; speed
        # turns them into reference seconds (see speed.py)
        self.phase_s = self.verdict_s = 0.0
        self.speed = speed.SpeedLog()
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rejects: Counter = Counter()
        self.full_reads: Counter = Counter()
        self.problems: list[str] = []
        self._pos = 0
        self._first = False

    def begin_round(self) -> None:
        self._pos = 0
        self._first = not self.reference
        if self.rounds == 0:
            self.speed.tick(force=True)

    def end_round(self) -> None:
        self.speed.tick(force=True)
        self.rounds += 1

    def call(self, key: str, fn, *args):
        """Run one program call, timed; returns (result, seconds, error)."""
        span = self.tracer.open("op." + key) if self.tracer else None
        t0 = perf_counter()
        try:
            result, err = fn(*args), None
        except Exception as exc:  # the program failed this operation; count it
            result, err = None, f"{type(exc).__name__}: {exc}"
        secs = perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        self.phase_s += secs
        self.speed.tick(secs)
        return result, secs, err

    def record(self, key: str, outcome: tuple, problems: list[str],
               verdict: tuple | None = None) -> None:
        """One attempted operation. ``verdict`` is (decision, queries,
        seconds, full_read) when the operation was a tester verdict."""
        self.attempted += 1
        if self._first:
            self.reference.append((key, outcome))
        elif self._pos >= len(self.reference) or self.reference[self._pos] != (key, outcome):
            problems = [*problems, "outcome differs from the first round with the same seed"]
        self._pos += 1
        if verdict is not None:
            decision, queries, secs, full_read = verdict
            self.verdicts += 1
            self.queries += queries
            self.verdict_s += secs
            self.times[key].append(secs)
            module = key.split(".")[0]
            self.full_reads[module] += bool(full_read)
            if decision == "reject":
                self.rejects[module] += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{key}: {'; '.join(problems)}")

    def tester(self, key: str, fn, args: tuple, check) -> None:
        """Time one direct tester call and record it with its check."""
        v, secs, err = self.call(key, fn, *args)
        if err is not None:
            self.record(key, ("error", err), [err])
            return
        problems, full_read = check(v)
        outcome = (v.decision, v.queries_used, v.exact_fallback, canon_witness(v.witness))
        self.record(key, outcome, problems, (v.decision, v.queries_used, secs, full_read))


def reject_problems(prop: str, holds, n: int, lookup, witness) -> list[str]:
    """A reject is allowed only where the instance lacks the property, and
    only with a witness that the benchmark's checker and the program's
    ``exact.verify_witness`` both accept."""
    if prop in holds:
        return [f"rejected {prop} on an instance that has it by construction"]
    w = canon_witness(witness)
    if w is None:
        return ["reject without a witness"]
    if w[0] != WITNESS_KIND[prop]:
        return [f"{prop} reject carries a {w[0]} witness"]
    pattern = prop if prop in ("++-", "---") else None
    problem = witness_problem(w, lookup, n, pattern)
    out = [problem] if problem else []
    if not isinstance(witness, dict) and not program_agrees(n, witness, lookup, problem):
        out.append("exact.verify_witness disagrees with the benchmark's witness check")
    return out


@dataclass
class Instance:
    graph: SignedGraph
    oracle: object
    holds: frozenset       # properties it has by construction
    lookup: object = None  # edge lookup for checks, set in prepare


def _silently(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def run_cli(argv: list[str]) -> int:
    return _silently(cli.main, argv)


# ---------------------------------------------------------------------------
# bounded-walk
# ---------------------------------------------------------------------------

class BoundedWalk:
    """Walk testers on N = 5*10^4 bounded-degree instances, fallback off."""

    name = "bounded-walk"
    N = 50_000
    REPS = 3            # tester seeds per (instance, tester) in one round
    INPUT_SEED = 0
    TRIANGLE_EPS = 0.5
    INSTANCES = (       # family, d, k, properties held by construction
        ("balanced-two-side", 4, None, {"balance", "clusterability", "++-"}),
        ("clusterable-communities", 6, 10, {"clusterability", "++-"}),
        ("all-negative-regular", 3, None, {"clusterability", "++-"}),
        ("disjoint-bad-triangles", 2, None, set()),
    )

    def __init__(self, seed: int, workdir: Path):
        # The inputs are the same on every run, whatever --seed says: how soon
        # a walk meets an odd cycle differs tenfold between instances and
        # between tester seeds, so drawing them from --seed moved
        # queries_per_verdict by 11% (interquartile range over ten seeds)
        # and every timing with it.
        self.gen_seeds = seeds(self.INPUT_SEED, 1, len(self.INSTANCES))
        self.tester_seeds = seeds(self.INPUT_SEED, 2, len(self.INSTANCES) * 3 * self.REPS)
        self.bal = bt.BoundedConstants(**WALK_BAL)
        self.clu = bt.BoundedConstants(**WALK_CLU)
        self.instances: list[Instance] = []

    def release(self) -> None:
        self.instances = []

    def setup(self, tick) -> None:
        for (family, d, k, holds), s in zip(self.INSTANCES, self.gen_seeds):
            g, _ = generators.generate(GenSpec(family, self.N, seed=s, d=d, k=k))
            self.instances.append(Instance(g, BoundedDegreeOracle(g), frozenset(holds)))
            tick()

    def prepare(self) -> None:
        for inst in self.instances:
            inst.lookup = row_lookup(inst.graph)

    def round(self, t: Tally) -> None:
        testers = (
            ("bounded_testers.balance", "balance",
             lambda o, s: bt.test_balance_bounded(o, WALK_EPS, s, constants=self.bal)),
            ("bounded_testers.clusterability", "clusterability",
             lambda o, s: bt.test_clusterability_bounded(o, WALK_EPS, s, constants=self.clu)),
            ("bounded_testers.triangle", "++-",
             lambda o, s: bt.test_triangle_bounded(o, "++-", self.TRIANGLE_EPS, s)),
        )
        seed_iter = iter(self.tester_seeds)
        for inst in self.instances:
            for key, prop, run in testers:
                for _ in range(self.REPS):
                    t.tester(key, run, (inst.oracle, next(seed_iter)),
                             lambda v, inst=inst, prop=prop: (self._check(inst, prop, v), False))

    def _check(self, inst: Instance, prop: str, v) -> list[str]:
        out = []
        if v.exact_fallback:
            out.append("walk verdict read the whole graph")
        if prop == "++-":
            d = inst.oracle.d
            cap = bounded_triangle_samples(self.TRIANGLE_EPS, bt.C_TRIANGLE_BD) * (d + d * d)
            if v.queries_used > cap:
                out.append(f"{v.queries_used} queries > samples*(d+d^2) = {cap}")
        if not v.accept:
            out += reject_problems(prop, inst.holds, inst.graph.n, inst.lookup, v.witness)
        return out


# ---------------------------------------------------------------------------
# dense-complete
# ---------------------------------------------------------------------------

class DenseComplete:
    """Dense testers on two complete N = 1000 instances (about 500k edges each)."""

    name = "dense-complete"
    N = 1000
    REPS = 1
    TRIANGLE_EPS = 0.3
    INSTANCES = (       # family, k, properties held by construction
        ("balanced-two-side", None, {"balance", "clusterability", "++-", "---"}),
        ("clusterable-communities", 3, {"clusterability", "++-"}),
    )

    def __init__(self, seed: int, workdir: Path):
        self.gen_seeds = seeds(seed, 1, len(self.INSTANCES))
        self.tester_seeds = seeds(seed, 2, len(self.INSTANCES) * 4 * self.REPS)
        self.instances: list[Instance] = []

    def release(self) -> None:
        self.instances = []

    def setup(self, tick) -> None:
        for (family, k, holds), s in zip(self.INSTANCES, self.gen_seeds):
            g, _ = generators.generate(GenSpec(family, self.N, seed=s, k=k))
            tick()
            self.instances.append(Instance(g, DenseOracle(g), frozenset(holds)))
            tick()

    def prepare(self) -> None:
        for inst in self.instances:
            inst.lookup = row_lookup(inst.graph)

    def round(self, t: Tally) -> None:
        eps_t = self.TRIANGLE_EPS
        testers = (
            ("dense_testers.balance", "balance",
             lambda o, s: dt.test_balance_dense(o, 0.1, s)),
            ("dense_testers.triangle", "++-",
             lambda o, s: dt.test_triangle_dense(o, "++-", dt.DenseParams(eps=eps_t, seed=s))),
            ("dense_testers.triangle", "---",
             lambda o, s: dt.test_triangle_dense(o, "---", dt.DenseParams(eps=eps_t, seed=s))),
            ("dense_testers.clusterability", "clusterability",
             lambda o, s: dt.test_clusterability_dense(o, 0.7, s)),
        )
        seed_iter = iter(self.tester_seeds)
        for inst in self.instances:
            for key, prop, run in testers:
                for _ in range(self.REPS):
                    t.tester(key, run, (inst.oracle, next(seed_iter)),
                             lambda v, inst=inst, prop=prop: self._check(inst, prop, v))

    def _check(self, inst: Instance, prop: str, v) -> tuple[list[str], bool]:
        n = inst.graph.n
        out = []
        if prop in ("++-", "---"):
            cap = 3 * dense_triangle_samples(self.TRIANGLE_EPS, dt.C_TRIANGLE)
            if v.queries_used > cap:
                out.append(f"{v.queries_used} queries > 3*samples = {cap}")
        if prop == "clusterability" and not v.accept:
            # both instances are exactly clusterable, so the estimate is 0
            out.append("tolerant clusterability tester rejected a clusterable instance")
        elif not v.accept:
            out += reject_problems(prop, inst.holds, n, inst.lookup, v.witness)
        full = v.exact_fallback or (prop == "balance" and v.queries_used == n * (n - 1) // 2)
        return out, full


# ---------------------------------------------------------------------------
# small-graphs
# ---------------------------------------------------------------------------

def _set_partitions(n: int):
    def rec(i, labels, k):
        if i == n:
            yield tuple(labels)
            return
        for c in range(k + 1):
            yield from rec(i + 1, labels + [c], max(k, c + 1))
    yield from rec(0, [], 0)


def small_property_holders(max_n: int = 5):
    """Every signed graph on 1..max_n nodes that is balanced, clusterable,
    or free of '++-' triangles, built from the definitions: balanced graphs
    from 2-labellings, clusterable ones from set partitions (positive inside
    a part, negative across), pattern-free ones by listing triangles."""
    balanced, clusterable, free = set(), set(), set()
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            present = [p for i, p in enumerate(pairs) if mask >> i & 1]
            for lab in _set_partitions(n):
                edges = tuple((u, v, "+" if lab[u] == lab[v] else "-") for u, v in present)
                clusterable.add((n, edges))
                if max(lab) <= 1:
                    balanced.add((n, edges))
        for combo in itertools.product((None, "+", "-"), repeat=len(pairs)):
            sign = {p: s for p, s in zip(pairs, combo) if s is not None}
            if not any(
                (a, b) in sign and (b, c) in sign and (a, c) in sign
                and sorted((sign[a, b], sign[b, c], sign[a, c])) == ["+", "+", "-"]
                for a, b, c in itertools.combinations(range(n), 3)
            ):
                free.add((n, tuple((u, v, s) for (u, v), s in sign.items())))
    return sorted(balanced), sorted(clusterable), sorted(free)


@dataclass(frozen=True)
class HarnessRun:
    """One run_experiment call of the small-graphs round."""

    prop: str            # property, or the triangle pattern
    model: str
    eps: float
    family: str
    n: int
    d: int | None
    k: int | None
    holds: frozenset
    walk: dict | None = None


class SmallGraphs:
    """Per-call overhead: the one-sided testers on every property-holding
    graph with at most 5 nodes, and harness runs on 60..120-node instances."""

    name = "small-graphs"
    TRIALS = 200
    SWEEP_EPS = 1.0
    SWEEP_BALANCE_EPS = 0.9
    HARNESS = (
        HarnessRun("balance", "dense", 0.3, "disjoint-bad-triangles", 120, None, None, frozenset()),
        HarnessRun("++-", "dense", 0.5, "clusterable-communities", 60, None, 3,
                   frozenset({"clusterability", "++-"})),
        HarnessRun("++-", "bounded", 0.2, "disjoint-bad-triangles", 90, 2, None, frozenset()),
        HarnessRun("balance", "bounded", 0.5, "all-negative-regular", 60, 3, None,
                   frozenset({"clusterability", "++-"})),
        HarnessRun("clusterability", "bounded", WALK_EPS, "clusterable-communities", 120, 6, 4,
                   frozenset({"clusterability", "++-"}), WALK_CLU),
    )

    def __init__(self, seed: int, workdir: Path):
        balanced, clusterable, free = small_property_holders()
        self.sweeps = {  # sweep -> (edge lists, property it holds)
            "dense_testers.balance": ([e for e in balanced if e[0] >= 2], "balance"),
            "dense_testers.triangle": ([e for e in free if e[0] >= 3], "++-"),
            "bounded_testers.balance": ([e for e in balanced if e[0] >= 2], "balance"),
            "bounded_testers.clusterability": ([e for e in clusterable if e[0] >= 2],
                                               "clusterability"),
            "bounded_testers.triangle": (free, "++-"),
        }
        self.sweep_seeds = {key: seeds(seed, 10 + i, len(lists))
                            for i, (key, (lists, _)) in enumerate(self.sweeps.items())}
        self.dense_keys = sorted({e for key, (lists, _) in self.sweeps.items()
                                  if key.startswith("dense") for e in lists})
        self.bounded_keys = sorted({e for key, (lists, _) in self.sweeps.items()
                                    if key.startswith("bounded") for e in lists})
        self.degrees = {e: EdgeSet(e[0], e[1]).degree for e in self.bounded_keys}
        self.harness_seeds = seeds(seed, 20, 2 * len(self.HARNESS))
        self.configs = [self._config(run, gen_seed, trial_seed) for run, gen_seed, trial_seed
                        in zip(self.HARNESS, self.harness_seeds[::2], self.harness_seeds[1::2])]
        self.dense: dict = {}
        self.bounded: dict = {}
        self.truth: list[tuple[EdgeSet, frozenset]] = []

    def _config(self, run: HarnessRun, gen_seed: int, trial_seed: int) -> harness.ExperimentConfig:
        spec = GenSpec(run.family, run.n, seed=gen_seed, d=run.d, k=run.k)
        is_triangle = run.prop in ("++-", "---")
        return harness.ExperimentConfig(
            property="triangle" if is_triangle else run.prop, model=run.model, eps=run.eps,
            instance=spec, trials=self.TRIALS, seed=trial_seed,
            pattern=run.prop if is_triangle else "++-", **(run.walk or {}))

    def release(self) -> None:
        self.dense, self.bounded = {}, {}

    def setup(self, tick) -> None:
        for key in self.dense_keys:
            n, edges = key
            self.dense[key] = DenseOracle(SignedGraph.from_edges(n, edges))
            tick()
        for key in self.bounded_keys:
            n, edges = key
            bound = max(2, max(self.degrees[key]))
            self.bounded[key] = BoundedDegreeOracle(SignedGraph.from_edges(n, edges, bound))
            tick()

    def prepare(self) -> None:
        self.truth = []
        for run, cfg in zip(self.HARNESS, self.configs):
            g, _ = generators.generate(cfg.instance)
            es = EdgeSet.of_graph(g)
            holds = set(run.holds)
            if run.model == "bounded" and run.walk is None:
                # whole-graph verdicts are compared with ground truth, not construction
                if es.is_balanced():
                    holds.add("balance")
                if es.is_clusterable():
                    holds.add("clusterability")
            self.truth.append((es, frozenset(holds)))

    def round(self, t: Tally) -> None:
        eps, eps_b = self.SWEEP_EPS, self.SWEEP_BALANCE_EPS
        calls = {
            "dense_testers.balance": (self.dense, lambda o, s: dt.test_balance_dense(o, eps_b, s)),
            "dense_testers.triangle": (self.dense, lambda o, s: dt.test_triangle_dense(
                o, "++-", dt.DenseParams(eps=eps, seed=s))),
            "bounded_testers.balance": (self.bounded, lambda o, s: bt.test_balance_bounded(o, eps, s)),
            "bounded_testers.clusterability": (
                self.bounded, lambda o, s: bt.test_clusterability_bounded(o, eps, s)),
            "bounded_testers.triangle": (self.bounded, lambda o, s: bt.test_triangle_bounded(
                o, "++-", eps, s)),
        }
        for key, (lists, prop) in self.sweeps.items():
            oracles, run = calls[key]
            for e, s in zip(lists, self.sweep_seeds[key]):
                t.tester(key, run, (oracles[e], s),
                         lambda v, e=e, key=key, prop=prop: self._check_sweep(key, prop, e, v))
        for run, cfg, (es, holds) in zip(self.HARNESS, self.configs, self.truth):
            self._harness_run(t, run, cfg, es, holds)

    def _check_sweep(self, key: str, prop: str, e, v) -> tuple[list[str], bool]:
        n = e[0]
        out = [] if v.accept else [f"rejected {prop} on a graph that has it by construction"]
        full = False
        if key == "dense_testers.balance":
            full = v.queries_used == n * (n - 1) // 2
        elif key == "dense_testers.triangle":
            cap = 3 * dense_triangle_samples(self.SWEEP_EPS, dt.C_TRIANGLE)
            if v.queries_used > cap:
                out.append(f"{v.queries_used} queries > 3*samples = {cap}")
        elif key == "bounded_testers.triangle":
            d = max(2, max(self.degrees[e]))
            cap = bounded_triangle_samples(self.SWEEP_EPS, bt.C_TRIANGLE_BD) * (d + d * d)
            if v.queries_used > cap:
                out.append(f"{v.queries_used} queries > samples*(d+d^2) = {cap}")
        else:  # eps = 1 always reads the whole graph
            d = max(2, max(self.degrees[e]))
            want = sum(min(deg + 1, d) for deg in self.degrees[e])
            full = True
            if not v.exact_fallback:
                out.append("eps=1 verdict did not read the whole graph")
            if v.queries_used != want:
                out.append(f"whole-graph read used {v.queries_used} queries, expected {want}")
        return out, full

    def _harness_run(self, t: Tally, run: HarnessRun, cfg, es: EdgeSet, holds) -> None:
        key = "harness.run_experiment"
        text, _, err = t.call(key, lambda: harness.run_experiment(cfg).to_json())
        if err is not None:
            t.record(key, ("error", err), [err])
            return
        report = json.loads(text)
        rows = report["trials"]
        agg = report["aggregates"]
        rejects = sum(r["decision"] == "reject" for r in rows)
        problems = []
        if [r["trial"] for r in rows] != list(range(cfg.trials)):
            problems.append("trial rows missing or out of order")
        if agg["trials"] != cfg.trials or agg["rejects"] != rejects:
            problems.append("aggregates disagree with the trial rows")
        t.record(key, (rejects, agg["mean_queries"], agg["max_queries"]), problems)
        tester = f"{'dense' if run.model == 'dense' else 'bounded'}_testers." + (
            "triangle" if cfg.property == "triangle" else cfg.property)
        d = run.d
        for row in rows:
            out = []
            if row["decision"] == "reject":
                out += reject_problems(run.prop, holds, es.n, es.lookup, row["witness"])
                if row["witness_valid"] is not True:
                    out.append("harness did not mark the witness valid")
            if cfg.property == "triangle":
                samples = (dense_triangle_samples(cfg.eps, dt.C_TRIANGLE) * 3 if run.model == "dense"
                           else bounded_triangle_samples(cfg.eps, bt.C_TRIANGLE_BD) * (d + d * d))
                if row["queries"] > samples:
                    out.append(f"{row['queries']} queries > triangle bound {samples}")
            if run.model == "bounded" and run.walk is None and cfg.property != "triangle":
                if not row["exact_fallback"]:
                    out.append("default-budget verdict did not read the whole graph")
                elif row["queries"] != es.fallback_queries(d):
                    out.append(f"whole-graph read used {row['queries']} queries, "
                               f"expected {es.fallback_queries(d)}")
            if run.walk is not None and row["exact_fallback"]:
                out.append("walk verdict read the whole graph")
            outcome = (row["decision"], row["queries"], row["exact_fallback"],
                       canon_witness(row["witness"]))
            t.record(tester, outcome, out, (row["decision"], row["queries"], row["wall_time_s"],
                                            row["exact_fallback"]))


# ---------------------------------------------------------------------------
# fallback-cli
# ---------------------------------------------------------------------------

class FallbackCli:
    """Whole-graph fallback through the command line, on .sgl files."""

    name = "fallback-cli"
    N = 20_000
    EPS = 0.1
    # the default walk constants, passed explicitly: at this N and eps their
    # walk budget exceeds N*d, so the documented whole-graph read always fires
    BUDGET = ["--c1", "8", "--c2", "2", "--c3", "4", "--c4", "8", "--c5", "2", "--c6", "4"]
    INSTANCES = (("balanced-two-side", 4), ("planted-negative-matching", 8))

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.gen_seeds = seeds(seed, 1, len(self.INSTANCES))
        self.test_seeds = seeds(seed, 2, 2 * len(self.INSTANCES))
        self.truth: list[tuple[EdgeSet, frozenset]] = []

    def _path(self, i: int, suffix: str) -> Path:
        return self.workdir / f"instance{i}{suffix}"

    def release(self) -> None:
        pass

    def setup(self, tick) -> None:
        for i, ((family, d), s) in enumerate(zip(self.INSTANCES, self.gen_seeds)):
            argv = ["gen", "--family", family, "--n", str(self.N), "--d", str(d),
                    "--seed", str(s), "--out", str(self._path(i, ".sgl"))]
            if run_cli(argv) != 0:
                raise RuntimeError(f"signedtest {' '.join(argv)} failed")
            tick()

    def prepare(self) -> None:
        self.truth = []
        for i in range(len(self.INSTANCES)):
            es = EdgeSet.of_sgl(self._path(i, ".sgl"))
            holds = {p for p, ok in (("balance", es.is_balanced()),
                                     ("clusterability", es.is_clusterable())) if ok}
            self.truth.append((es, frozenset(holds)))

    def round(self, t: Tally) -> None:
        seed_iter = iter(self.test_seeds)
        for i, (family, d) in enumerate(self.INSTANCES):
            es, holds = self.truth[i]
            graph = str(self._path(i, ".sgl"))
            for prop in ("balance", "clusterability"):
                report = self._path(i, f".{prop}.json")
                argv = ["test", "--in", graph, "--d", str(d), "--model", "bounded",
                        "--property", prop, "--eps", str(self.EPS), "--trials", "1",
                        "--seed", str(next(seed_iter)), *self.BUDGET, "--out", str(report)]
                self._test(t, argv, report, es, holds, prop, d, graph, i)

    def _test(self, t: Tally, argv, report: Path, es: EdgeSet, holds, prop, d, graph, i) -> None:
        key = f"bounded_testers.{prop}"
        rc, _, err = t.call("cli.test", run_cli, argv)
        if err is not None or rc != 0:
            t.record(key, ("error", err, rc), [err or f"signedtest test exited {rc}"])
            return
        rep = json.loads(report.read_text(encoding="utf-8"))
        row = rep["trials"][0]
        out = []
        if not row["exact_fallback"]:
            out.append("verdict did not take the whole-graph fallback")
        if row["queries"] != es.fallback_queries(d):
            out.append(f"whole-graph read used {row['queries']} queries, "
                       f"expected {es.fallback_queries(d)}")
        want = "accept" if prop in holds else "reject"
        if row["decision"] != want:
            out.append(f"{row['decision']} where networkx ground truth says {want}")
        elif want == "reject":
            out += reject_problems(prop, holds, es.n, es.lookup, row["witness"])
            if row["witness_valid"] is not True:
                out.append("harness did not mark the witness valid")
        if rep["aggregates"]["rejects"] != (row["decision"] == "reject"):
            out.append("aggregates disagree with the trial row")
        outcome = (row["decision"], row["queries"], row["exact_fallback"],
                   canon_witness(row["witness"]))
        t.record(key, outcome, out, (row["decision"], row["queries"], row["wall_time_s"], True))
        if row["witness"] is not None:
            self._verify(t, row["witness"], es, d, graph, i, prop)

    def _verify(self, t: Tally, witness: dict, es: EdgeSet, d, graph, i, prop) -> None:
        wpath = self._path(i, f".{prop}.witness.json")
        vpath = self._path(i, f".{prop}.verify.json")
        wpath.write_text(json.dumps(witness), encoding="utf-8")
        argv = ["verify", "--graph", graph, "--d", str(d), "--witness", str(wpath),
                "--out", str(vpath)]
        rc, _, err = t.call("cli.verify", run_cli, argv)
        if err is not None or rc != 0:
            t.record("cli.verify", ("error", err, rc), [err or f"signedtest verify exited {rc}"])
            return
        valid = json.loads(vpath.read_text(encoding="utf-8"))["valid"]
        own = witness_problem(canon_witness(witness), es.lookup, es.n)
        problems = [] if valid == (own is None) else [
            f"signedtest verify says valid={valid}, benchmark check says {own or 'valid'}"]
        t.record("cli.verify", (valid,), problems)


WORKLOADS = {w.name: w for w in (BoundedWalk, DenseComplete, SmallGraphs, FallbackCli)}
