"""Harness and CLI tests: Wilson intervals, report determinism, subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest
from scipy.stats import binomtest, norm

import signedtest
from signedtest import cli
from signedtest.core import Sign, Witness, WitnessKind, save_edge_list
from signedtest.generators import (
    BALANCED_TWO_SIDE,
    CLUSTERABLE_COMMUNITIES,
    DISJOINT_BAD_TRIANGLES,
    GenSpec,
    generate,
)
from signedtest.harness import (
    OVERRIDES,
    ExperimentConfig,
    run_experiment,
    run_scaling,
    strip_wall_times,
    wilson,
    witness_from_json,
    witness_to_json,
    write_scaling_csv,
)

# cheap walk budgets so walk-path runs stay fast in unit tests
CHEAP_WALKS = dict(allow_exact_fallback=False, c1=1.0, c2=0.02, c3=0.05,
                   walk_len_log_exponent=0)


def test_every_public_name_resolves():
    assert all(hasattr(signedtest, name) for name in signedtest.__all__)


# ---------------------------------------------------------------------------
# wilson intervals
# ---------------------------------------------------------------------------

class TestWilson:
    # frozen outputs at the default z = 1.96
    FROZEN = [
        (0, 20, 0.0, 0.16113012549493322),
        (20, 20, 0.8388698745050667, 1.0),
        (1, 50, 0.0035391680889764604, 0.10495686471836953),
        (30, 40, 0.598057409330299, 0.8581303210445048),
        (8, 10, 0.49015684672072335, 0.9433190520193067),
    ]

    def test_frozen_values(self):
        for k, n, lo, hi in self.FROZEN:
            got_lo, got_hi = wilson(k, n)
            assert got_lo == pytest.approx(lo, abs=1e-12)
            assert got_hi == pytest.approx(hi, abs=1e-12)

    def test_against_scipy_reference(self):
        # scipy uses the exact normal quantile; pass the same z for comparison
        z = norm.ppf(0.975)
        for k, n, _, _ in self.FROZEN:
            ref = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
            lo, hi = wilson(k, n, z=z)
            assert lo == pytest.approx(float(ref.low), abs=1e-12)
            assert hi == pytest.approx(float(ref.high), abs=1e-12)

    def test_bounds_and_order(self):
        for k in range(0, 11):
            lo, hi = wilson(k, 10)
            assert 0.0 <= lo <= k / 10 <= hi <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson(1, 0)
        with pytest.raises(ValueError):
            wilson(5, 3)
        with pytest.raises(ValueError):
            wilson(-1, 3)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

class TestConfig:
    def base(self, **kw):
        args = dict(property="balance", model="dense", eps=0.5,
                    instance=GenSpec(BALANCED_TWO_SIDE, 40), trials=3)
        args.update(kw)
        return ExperimentConfig(**args)

    def test_valid(self):
        cfg = self.base()
        assert cfg.trials == 3

    @pytest.mark.parametrize("kw", [
        {"property": "parity"},
        {"model": "streaming"},
        {"eps": 0.0},
        {"eps": 1.5},
        {"trials": 0},
        {"model": "bounded", "c2": -1.0},
        {"node_samples": 0},
        {"property": "triangle", "pattern": "+-"},
        {"property": "triangle", "pattern": "+*-"},
        {"model": "bounded", "c1": float("inf")},
        {"c_b": float("nan")},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            self.base(**kw)

    def test_bounded_constants_merge(self):
        cfg = self.base(model="bounded", c2=0.5, allow_exact_fallback=False)
        consts = cfg.constants()
        assert consts.c2 == 0.5
        assert consts.allow_exact_fallback is False
        assert consts.c1 == 8.0  # untouched default


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_accepting_run(self):
        cfg = ExperimentConfig(property="balance", model="dense", eps=0.5,
                               instance=GenSpec(BALANCED_TWO_SIDE, 60),
                               trials=6, seed=11)
        rep = run_experiment(cfg)
        d = rep.to_dict()
        assert d["schema_version"] == 1
        assert d["aggregates"]["reject_rate"] == 0.0
        assert d["aggregates"]["rejects"] == 0
        assert [r["trial"] for r in d["trials"]] == list(range(6))
        assert all(r["queries"] > 0 for r in d["trials"])
        assert d["config"]["instance"]["genspec"]["family"] == BALANCED_TWO_SIDE
        lo, hi = wilson(0, 6)
        assert d["aggregates"]["wilson_low"] == pytest.approx(lo)
        assert d["aggregates"]["wilson_high"] == pytest.approx(hi)

    def test_rejecting_run_validates_witnesses(self):
        cfg = ExperimentConfig(property="clusterability", model="bounded", eps=0.1,
                               instance=GenSpec(DISJOINT_BAD_TRIANGLES, 90),
                               trials=5, seed=2)
        rep = run_experiment(cfg)
        agg = rep.aggregates
        assert agg["reject_rate"] == 1.0
        assert agg["all_reject_witnesses_valid"] is True
        for row in rep.trials:
            assert row["decision"] == "reject"
            assert row["witness_valid"] is True
            assert row["witness"]["kind"] == "bad-cycle"

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig(property="balance", model="bounded", eps=0.9,
                               instance=GenSpec(BALANCED_TWO_SIDE, 150, d=4),
                               trials=4, seed=5, **CHEAP_WALKS)
        a = strip_wall_times(run_experiment(cfg).to_dict())
        b = strip_wall_times(run_experiment(cfg).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_trials(self):
        spec = GenSpec(DISJOINT_BAD_TRIANGLES, 90)
        a = run_experiment(ExperimentConfig(property="balance", model="dense",
                                            eps=0.4, instance=spec, trials=3, seed=0))
        b = run_experiment(ExperimentConfig(property="balance", model="dense",
                                            eps=0.4, instance=spec, trials=3, seed=1))
        rows_a = [(r["queries"], r["witness"]) for r in a.trials]
        rows_b = [(r["queries"], r["witness"]) for r in b.trials]
        assert rows_a != rows_b  # node samples differ, so do induced subgraphs

    def test_file_instance(self, tmp_path):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 30))
        path = tmp_path / "g.sgl"
        save_edge_list(g, path)
        cfg = ExperimentConfig(property="clusterability", model="bounded", eps=0.3,
                               instance=str(path), d=2, trials=2, seed=0)
        rep = run_experiment(cfg)
        assert rep.aggregates["reject_rate"] == 1.0
        assert rep.config["instance"] == {"path": str(path)}

    def test_bounded_needs_degree_bound(self, tmp_path):
        g, _ = generate(GenSpec(BALANCED_TWO_SIDE, 20))  # dense variant, no bound
        path = tmp_path / "g.sgl"
        save_edge_list(g, path)
        cfg = ExperimentConfig(property="balance", model="bounded", eps=0.5,
                               instance=str(path), trials=1)
        with pytest.raises(ValueError, match="degree bound"):
            run_experiment(cfg)

    def test_resolved_constants_echoed(self):
        cfg = ExperimentConfig(property="balance", model="bounded", eps=0.9,
                               instance=GenSpec(BALANCED_TWO_SIDE, 150, d=4),
                               trials=1, seed=0, **CHEAP_WALKS)
        rep = run_experiment(cfg)
        rc = rep.resolved_constants
        assert rc["c2"] == 0.02 and rc["allow_exact_fallback"] is False
        sched = rc["schedule"]
        assert sched["starts"] >= 1 and sched["walks_per_start"] >= 1
        assert sched["walk_length"] >= 1


# ---------------------------------------------------------------------------
# run_scaling
# ---------------------------------------------------------------------------

class TestRunScaling:
    def cfg(self, **kw):
        args = dict(property="balance", model="bounded", eps=0.9,
                    instance=GenSpec(BALANCED_TWO_SIDE, 100, d=4),
                    trials=2, seed=0, **CHEAP_WALKS)
        args.update(kw)
        return ExperimentConfig(**args)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match=">= 3 points"):
            run_scaling(self.cfg(), [100, 200])

    def test_needs_genspec(self, tmp_path):
        g, _ = generate(GenSpec(DISJOINT_BAD_TRIANGLES, 30))
        path = tmp_path / "g.sgl"
        save_edge_list(g, path)
        cfg = ExperimentConfig(property="clusterability", model="bounded", eps=0.3,
                               instance=str(path), d=2, trials=1)
        with pytest.raises(ValueError, match="family"):
            run_scaling(cfg, [10, 20, 30])

    def test_table_shape_and_csv(self, tmp_path):
        table = run_scaling(self.cfg(), [150, 300, 600])
        assert table["schema_version"] == 1
        assert [p["n"] for p in table["points"]] == [150, 300, 600]
        assert all(p["mean_queries"] > 0 for p in table["points"])
        # sublinear walk budget: grows, but clearly slower than n
        assert 0.0 < table["fitted_exponent"] < 1.0
        csv = tmp_path / "t.csv"
        write_scaling_csv(table, csv)
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "n,mean_queries,max_queries,reject_rate"
        assert len(lines) == 4


# ---------------------------------------------------------------------------
# witness serialization
# ---------------------------------------------------------------------------

class TestWitnessJson:
    def test_round_trip(self):
        w = Witness(WitnessKind.BAD_CYCLE, (3, 1, 2),
                    (Sign.PLUS, Sign.PLUS, Sign.MINUS))
        d = witness_to_json(w)
        assert d == {"kind": "bad-cycle", "nodes": [3, 1, 2],
                     "signs": ["+", "+", "-"]}
        assert witness_from_json(d) == w

    def test_malformed(self):
        with pytest.raises(ValueError):
            witness_from_json({"kind": "bad-cycle", "nodes": [1, 2, 3]})
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            witness_from_json({"kind": "nope", "nodes": [1], "signs": ["+"]})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_gen_writes_graph_and_metadata(self, tmp_path):
        out = tmp_path / "inst.sgl"
        rc = cli.main(["gen", "--family", "clusterable-communities", "--n", "40",
                       "--d", "6", "--k", "4", "--gen-seed", "3",
                       "--out", str(out)])
        assert rc == 0
        assert out.exists()
        meta = json.loads((tmp_path / "inst.meta.json").read_text())
        assert meta["spec"]["family"] == CLUSTERABLE_COMMUNITIES
        assert meta["spec"]["n"] == 40

    def test_exact_subcommand(self, tmp_path, capsys):
        out = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "12",
                  "--out", str(out)])
        capsys.readouterr()
        # every check on four vertex-disjoint (+,+,-) triangles
        expected = [
            (["balance"], {"balanced": False}, "odd-negative-cycle"),
            (["clusterability"], {"clusterable": False}, "bad-cycle"),
            (["triangle", "--pattern", "++-"], {"found": True}, "signed-triangle"),
            (["frustration"], {"frustration_index": 4}, None),
            (["weak-frustration"], {"weak_frustration_index": 4}, None),
            (["k-frustration", "--k", "2"], {"k_frustration_index": 4}, None),
            (["triangle-distance"], {"triangle_free_distance": 4}, None),
        ]
        for check, fields, witness_kind in expected:
            rc = cli.main(["exact", "--in", str(out), "--check", *check])
            assert rc == 0, check
            res = json.loads(capsys.readouterr().out)
            assert {k: res[k] for k in fields} == fields, check
            if witness_kind is not None:
                assert res["witness"]["kind"] == witness_kind, check
        rc = cli.main(["exact", "--in", str(out), "--check", "weak-frustration",
                       "--out", str(tmp_path / "w.json")])
        assert rc == 0
        assert json.loads((tmp_path / "w.json").read_text())["weak_frustration_index"] == 4

    @pytest.mark.parametrize("n,check,message", [
        (12, ["k-frustration"], "k-frustration needs --k"),
        (30, ["frustration"], "frustration_index caps at n=24, got 30"),
    ])
    def test_exact_subcommand_errors(self, tmp_path, capsys, n, check, message):
        out = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", str(n),
                  "--out", str(out)])
        capsys.readouterr()
        rc = cli.main(["exact", "--in", str(out), "--check", *check])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_test_subcommand_report(self, tmp_path):
        rep_path = tmp_path / "r.json"
        rc = cli.main(["test", "--model", "bounded", "--property", "clusterability",
                       "--eps", "0.2", "--trials", "3", "--seed", "4",
                       "--family", "disjoint-bad-triangles", "--n", "60",
                       "--out", str(rep_path)])
        assert rc == 0
        rep = json.loads(rep_path.read_text())
        assert rep["schema_version"] == 1
        assert rep["aggregates"]["reject_rate"] == 1.0
        assert rep["aggregates"]["all_reject_witnesses_valid"] is True

    def test_test_subcommand_stdout_and_overrides(self, capsys):
        rc = cli.main(["test", "--model", "bounded", "--property", "balance",
                       "--eps", "0.9", "--trials", "2", "--seed", "0",
                       "--family", "balanced-two-side", "--n", "150", "--d", "4",
                       "--no-exact-fallback", "--c1", "1.0", "--c2", "0.02",
                       "--c3", "0.05", "--walk-len-log-exponent", "0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["resolved_constants"]["allow_exact_fallback"] is False
        assert rep["aggregates"]["reject_rate"] == 0.0
        assert not any(r["exact_fallback"] for r in rep["trials"])

    def test_verify_subcommand(self, tmp_path, capsys):
        gpath = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "9",
                  "--out", str(gpath)])
        capsys.readouterr()
        good = {"kind": "bad-cycle", "nodes": [0, 1, 2],
                "signs": ["+", "+", "-"]}
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(good))
        rc = cli.main(["verify", "--graph", str(gpath), "--witness", str(wpath)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        bad = dict(good, nodes=[0, 1, 3])  # not a triangle in this layout
        wpath.write_text(json.dumps(bad))
        rc = cli.main(["verify", "--graph", str(gpath), "--witness", str(wpath)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False and out["error"]

    @pytest.mark.parametrize("record", [
        {"kind": "bad-cycle", "nodes": 5, "signs": []},
        [1, 2],
        {"kind": "bad-cycle", "nodes": [0, None, 2], "signs": ["+", "+", "-"]},
        {"kind": ["x"], "nodes": [0, 1, 2], "signs": ["+", "+", "-"]},
        {"kind": "nope", "nodes": [0, 1, 2], "signs": ["+", "+", "-"]},
        {"kind": "bad-cycle", "nodes": [0, 1.7, 2], "signs": ["+", "+", "-"]},
        {"kind": "bad-cycle", "nodes": [0, "1", 2], "signs": ["+", "+", "-"]},
        {"kind": "bad-cycle", "nodes": [0, True, 2], "signs": ["+", "+", "-"]},
    ])
    def test_verify_malformed_witness_is_a_one_line_error(self, tmp_path, capsys, record):
        gpath = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "9",
                  "--out", str(gpath)])
        capsys.readouterr()
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps(record))
        rc = cli.main(["verify", "--graph", str(gpath), "--witness", str(wpath)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed witness record") and err.count("\n") == 1

    def test_override_flags_follow_the_harness_table(self):
        config_fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(config_fields[config_fields.index("d") + 1:]) == sorted(OVERRIDES)
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command in ("test", "bench"):
            actions = [a for a in subparsers.choices[command]._actions if a.dest in OVERRIDES]
            assert sorted(a.dest for a in actions) == sorted(OVERRIDES)
            assert all(len(a.option_strings) == 1 for a in actions)

    @pytest.mark.parametrize("args,message", [
        (["--model", "bounded", "--property", "balance", "--c1", "inf"],
         "c1 must be positive and finite"),
        (["--model", "bounded", "--property", "balance", "--c1", "nan"],
         "c1 must be positive and finite"),
        (["--model", "dense", "--property", "balance", "--c-b", "inf"],
         "c_b must be positive and finite"),
        (["--model", "dense", "--property", "triangle", "--pattern", "+*-"],
         "bad sign token '*', expected '+' or '-'"),
        # finite values whose budgets overflow or underflow
        (["--model", "bounded", "--property", "balance", "--c2", "1e308"], ""),
        (["--model", "bounded", "--property", "balance", "--eps", "1e-300"], ""),
        (["--model", "bounded", "--property", "clusterability", "--eps", "1e-300"], ""),
        (["--model", "dense", "--property", "triangle", "--eps", "1e-300"], ""),
        (["--model", "dense", "--property", "clusterability", "--eps", "1e-300"], ""),
        # overrides the selected tester does not read
        (["--model", "dense", "--property", "balance", "--c1", "5"],
         "the dense balance tester does not read c1\n"),
        (["--model", "dense", "--property", "balance", "--triple-samples", "3"],
         "the dense balance tester does not read triple_samples\n"),
        (["--model", "bounded", "--property", "triangle", "--node-samples", "3"],
         "the bounded triangle tester does not read node_samples\n"),
        (["--model", "dense", "--property", "balance", "--no-exact-fallback"],
         "the dense balance tester does not read allow_exact_fallback\n"),
        (["--model", "dense", "--property", "clusterability", "--no-exact-fallback"],
         "the dense clusterability tester does not read allow_exact_fallback\n"),
        (["--model", "dense", "--property", "triangle", "--no-exact-fallback"],
         "the dense triangle tester does not read allow_exact_fallback\n"),
        (["--model", "dense", "--property", "balance", "--c1", "5", "--no-exact-fallback",
          "--triple-samples", "3"],
         "the dense balance tester does not read c1, allow_exact_fallback, triple_samples\n"),
    ], ids=["c1-inf", "c1-nan", "c_b-inf", "pattern", "c2-1e308", "bounded-balance-eps",
            "bounded-clusterability-eps", "dense-triangle-eps", "dense-clusterability-eps",
            "unread-c1", "unread-triple-samples", "unread-node-samples",
            "unread-fallback-dense-balance", "unread-fallback-dense-clusterability",
            "unread-fallback-dense-triangle", "unread-three"])
    def test_bad_numbers_are_a_one_line_error(self, tmp_path, capsys, args, message):
        if "--eps" not in args:
            args = [*args, "--eps", "0.5"]
        rc = cli.main(["test", "--family", "balanced-two-side", "--n", "10", "--d", "4",
                       "--trials", "1", *args, "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_bench_rejects_short_n_list(self, tmp_path, capsys):
        rc = cli.main(["bench", "--model", "bounded", "--property", "balance",
                       "--eps", "0.9", "--family", "balanced-two-side",
                       "--n", "100", "--d", "4", "--n-list", "100,200",
                       "--out", str(tmp_path / "b.json")])
        assert rc == 1
        assert ">= 3 points" in capsys.readouterr().err

    def test_bench_writes_table_and_csv(self, tmp_path):
        out = tmp_path / "b.json"
        csv = tmp_path / "b.csv"
        rc = cli.main(["bench", "--model", "bounded", "--property", "balance",
                       "--eps", "0.9", "--trials", "2",
                       "--family", "balanced-two-side", "--n", "100", "--d", "4",
                       "--n-list", "150,300,600", "--no-exact-fallback",
                       "--c1", "1.0", "--c2", "0.02", "--c3", "0.05",
                       "--walk-len-log-exponent", "0",
                       "--out", str(out), "--csv", str(csv)])
        assert rc == 0
        table = json.loads(out.read_text())
        assert len(table["points"]) == 3
        assert csv.exists()

    def test_bench_defaults_n_from_n_list(self, tmp_path):
        # --n is a placeholder for bench; the size list drives every point
        out = tmp_path / "b.json"
        rc = cli.main(["bench", "--model", "bounded", "--property", "balance",
                       "--eps", "0.9", "--trials", "2",
                       "--family", "balanced-two-side", "--d", "4",
                       "--n-list", "150,300,600", "--no-exact-fallback",
                       "--c1", "1.0", "--c2", "0.02", "--c3", "0.05",
                       "--walk-len-log-exponent", "0",
                       "--out", str(out)])
        assert rc == 0
        table = json.loads(out.read_text())
        assert [p["n"] for p in table["points"]] == [150, 300, 600]

    def test_missing_instance_errors(self, capsys):
        rc = cli.main(["test", "--model", "dense", "--property", "balance",
                       "--eps", "0.5", "--trials", "1"])
        assert rc == 1
        assert "instance is required" in capsys.readouterr().err

    def test_conflicting_instance_errors(self, tmp_path, capsys):
        gpath = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "9",
                  "--out", str(gpath)])
        capsys.readouterr()
        rc = cli.main(["test", "--model", "dense", "--property", "balance",
                       "--eps", "0.5", "--trials", "1", "--in", str(gpath),
                       "--family", "balanced-two-side", "--n", "10"])
        assert rc == 1
        assert "not both" in capsys.readouterr().err

    def test_n_with_file_instance_errors(self, tmp_path, capsys):
        gpath = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "30",
                  "--out", str(gpath)])
        capsys.readouterr()
        rc = cli.main(["test", "--model", "dense", "--property", "balance",
                       "--eps", "0.5", "--trials", "1", "--in", str(gpath), "--n", "999"])
        assert rc == 1
        assert "--n only applies to --family" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--k", "7"), ("--planted-fraction", "0.1")])
    def test_family_parameters_with_file_instance_error(self, tmp_path, capsys, flag, value):
        gpath = tmp_path / "g.sgl"
        cli.main(["gen", "--family", "disjoint-bad-triangles", "--n", "30",
                  "--out", str(gpath)])
        capsys.readouterr()
        rc = cli.main(["test", "--model", "bounded", "--property", "triangle",
                       "--eps", "0.5", "--trials", "1", "--in", str(gpath), "--d", "2",
                       flag, value, "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {flag} only applies to --family\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "all-negative-regular", "--n", "10", "--d", "3", "--seed", "-1"],
        ["test", "--family", "all-negative-regular", "--n", "10", "--d", "3", "--gen-seed", "-1",
         "--model", "bounded", "--property", "balance", "--eps", "0.5", "--trials", "1"],
    ], ids=["gen", "test"])
    def test_negative_generator_seed_is_a_one_line_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.sgl"
        rc = cli.main([*argv, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()
