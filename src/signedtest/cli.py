"""Command line front end.

Subcommands: ``gen`` writes instances, ``exact`` runs the exact checkers,
``test`` runs seeded tester experiments, ``bench`` fits query-count scaling
over a list of sizes, ``verify`` re-checks a witness file against a graph.
Exit code 0 means the command ran; verdicts live in the emitted JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import exact
from .core import load_edge_list, save_edge_list
from .generators import FAMILIES, GenSpec, generate
from .harness import (
    MODELS,
    OVERRIDES,
    PROPERTIES,
    ExperimentConfig,
    run_experiment,
    run_scaling,
    witness_from_json,
    witness_to_json,
    write_scaling_csv,
)


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _add_experiment_flags(p: argparse.ArgumentParser, trials: int) -> None:
    """Flags shared by ``test`` and ``bench``: tester, instance, overrides."""
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--property", choices=PROPERTIES, required=True)
    p.add_argument("--pattern", default="++-")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="read the instance from an .sgl edge list")
    p.add_argument("--family", choices=FAMILIES, help="generate the instance instead")
    p.add_argument("--n", type=int, help="instance size (with --family)")
    p.add_argument("--d", type=int,
                   help="degree bound (family parameter, or bound attached to --in)")
    p.add_argument("--k", type=int, help="group count (family parameter)")
    p.add_argument("--planted-fraction", type=float, dest="planted_fraction")
    p.add_argument("--gen-seed", type=int, default=0, dest="gen_seed",
                   help="seed for instance generation (default 0)")
    grp = p.add_argument_group("walk-tester overrides (bounded balance and clusterability)")
    for name, kind in OVERRIDES.items():
        if kind is bool:  # allow_exact_fallback, the one switch, is on by default
            grp.add_argument("--no-exact-fallback", dest=name,
                             action="store_const", const=False, default=None,
                             help="never fall back to reading the whole graph")
        else:
            grp.add_argument("--" + name.replace("_", "-"), type=kind, dest=name)


def _genspec_from_args(args) -> GenSpec:
    if args.n is None:
        raise ValueError("--family needs --n")
    return GenSpec(args.family, args.n, seed=args.gen_seed, d=args.d,
                   k=args.k, planted_fraction=args.planted_fraction)


def _config_from_args(args) -> ExperimentConfig:
    if args.infile and args.family:
        raise ValueError("pass either --in or --family, not both")
    if args.infile:
        for flag, value in (("--n", args.n), ("--k", args.k),
                            ("--planted-fraction", args.planted_fraction)):
            if value is not None:
                raise ValueError(f"{flag} only applies to --family")
        instance = args.infile
    elif args.family:
        instance = _genspec_from_args(args)
    else:
        raise ValueError("an instance is required: --in FILE or --family NAME --n N")
    kw = {name: getattr(args, name) for name in OVERRIDES if getattr(args, name) is not None}
    return ExperimentConfig(
        property=args.property,
        model=args.model,
        eps=args.eps,
        instance=instance,
        trials=args.trials,
        seed=args.seed,
        pattern=args.pattern,
        d=args.d,
        **kw,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    spec = _genspec_from_args(args)
    g, meta = generate(spec)
    out = Path(args.out)
    save_edge_list(g, out)
    _emit(meta, str(out.with_suffix(".meta.json")))
    print(f"wrote {out} (n={g.n}, edges={g.num_edges}) and {out.with_suffix('.meta.json')}")
    return 0


def _cmd_exact(args) -> int:
    g = load_edge_list(args.infile, degree_bound=args.d)
    check = args.check
    result: dict = {"check": check, "n": g.n, "edges": g.num_edges}
    if check == "balance":
        res = exact.is_balanced(g)
        result["balanced"] = res.balanced
        result["witness"] = witness_to_json(res.witness) if res.witness else None
    elif check == "clusterability":
        res = exact.is_clusterable(g)
        result["clusterable"] = res.clusterable
        result["witness"] = witness_to_json(res.witness) if res.witness else None
        if res.clustering is not None:
            result["clusters"] = res.clustering.k
            result["assignment"] = list(res.clustering.assignment)
    elif check == "triangle":
        w = exact.has_signed_triangle(g, args.pattern)
        result["pattern"] = args.pattern
        result["found"] = w is not None
        result["witness"] = witness_to_json(w) if w else None
    elif check == "frustration":
        result["frustration_index"] = exact.frustration_index(g)
    elif check == "weak-frustration":
        result["weak_frustration_index"] = exact.weak_frustration_index(g)
    elif check == "k-frustration":
        if args.k is None:
            raise ValueError("k-frustration needs --k")
        result["k"] = args.k
        result["k_frustration_index"] = exact.k_frustration_index(g, args.k)
    elif check == "triangle-distance":
        result["pattern"] = args.pattern
        result["triangle_free_distance"] = exact.triangle_free_distance(g, args.pattern)
    _emit(result, args.out)
    return 0


def _cmd_test(args) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        agg = report.aggregates
        print(f"wrote {args.out}: reject_rate={agg['reject_rate']:.3f} "
              f"mean_queries={agg['mean_queries']:.1f}")
    else:
        sys.stdout.write(report.to_json())
    return 0


def _cmd_bench(args) -> int:
    if args.infile:
        raise ValueError("bench generates instances per size; use --family, not --in")
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if args.n is None and n_list:
        args.n = n_list[0]  # placeholder; run_scaling resizes per point
    cfg = _config_from_args(args)
    table = run_scaling(cfg, n_list)
    _emit(table, args.out)
    if args.csv:
        write_scaling_csv(table, args.csv)
    if args.out:
        print(f"fitted exponent: {table['fitted_exponent']:.4f}")
    return 0


def _cmd_verify(args) -> int:
    g = load_edge_list(args.graph, degree_bound=args.d)
    record = json.loads(Path(args.witness).read_text(encoding="utf-8"))
    w = witness_from_json(record)
    err = exact.verify_witness(g, w)
    _emit({"valid": err is None, "error": err}, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="signedtest",
                                   description="signed-graph property testing toolkit")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--planted-fraction", type=float, dest="planted_fraction")
    p.add_argument("--gen-seed", "--seed", type=int, default=0, dest="gen_seed")
    p.add_argument("--out", required=True, help="output .sgl path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("exact", help="run an exact checker on a graph file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--d", type=int, help="attach a degree bound")
    p.add_argument("--check", required=True,
                   choices=["balance", "clusterability", "triangle", "frustration",
                            "weak-frustration", "k-frustration", "triangle-distance"])
    p.add_argument("--pattern", default="++-")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("test", help="run a seeded tester experiment")
    _add_experiment_flags(p, trials=50)
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("bench", help="fit query scaling over several sizes")
    _add_experiment_flags(p, trials=5)
    p.add_argument("--n-list", required=True, dest="n_list",
                   help="comma-separated sizes, e.g. 1000,10000,100000")
    p.add_argument("--out", help="table path (stdout when omitted)")
    p.add_argument("--csv", help="also write the points as CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="re-check a witness file against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        # ArithmeticError: finite but extreme values (--eps 1e-300, --c2 1e308)
        # whose budgets overflow or divide by zero; MemoryError: sample counts
        # whose arrays cannot be allocated (bounded triangle at --eps 1e-12)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
