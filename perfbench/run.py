"""Layered benchmark for signedtest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. One invocation runs one workload in this process: it sets up
three times (``setup_s`` is the median), then repeats rounds of identical,
seeded program calls for about ``--seconds`` seconds, checking every output
against the benchmark's own computations. ``--workload all`` runs each
workload in a fresh child process, one after the other.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, the per-layer metrics from spans recorded
around the package's public functions, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / "_work"
# the keys of workloads.WORKLOADS, listed here so that arguments are checked
# before the package is imported
NAMES = ("bounded-walk", "dense-complete", "small-graphs", "fallback-cli")
SETUPS = 3

UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "queries_per_s": "1/s",
         "queries_per_verdict": "queries", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def header(args) -> str:
    import numpy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    py = sys.version.split()[0]
    return (f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} python={py} numpy={numpy.__version__} nproc={nproc} "
            f"commit={git_commit()}")


def run_rounds(workload, tally, seconds: float, min_rounds: int) -> None:
    """Whole rounds until another one of average length would overrun."""
    start = perf_counter()
    while True:
        tally.begin_round()
        workload.round(tally)
        tally.end_round()
        elapsed = perf_counter() - start
        if tally.rounds >= min_rounds and elapsed * (tally.rounds + 1) / tally.rounds > seconds:
            return


def set_up(workload, tracer=None) -> tuple[list[float], list[float]]:
    """Set up SETUPS times; returns each set-up's time in reference seconds
    and on the wall clock. The workload calls ``tick`` between program calls
    so that the host's speed is probed across the set-up."""
    scaled, wall = [], []
    for _ in range(SETUPS):
        workload.release()
        gc.collect()
        log = speed.SpeedLog()
        log.tick(force=True)
        last = perf_counter()

        def tick() -> None:
            nonlocal last
            log.tick(perf_counter() - last)
            last = perf_counter()

        span = tracer.open("setup") if tracer else None
        last = perf_counter()
        workload.setup(tick)
        tick()
        if span is not None:
            tracer.close(span)
        log.tick(force=True)
        wall.append(log.program_s)
        scaled.append(log.program_s * log.scale())
    return scaled, wall


def measure(workload, seconds: float) -> tuple[dict, list]:
    from workloads import Tally
    setup_times, setup_wall = set_up(workload)
    workload.prepare()
    tally = Tally([])
    run_rounds(workload, tally, seconds, min_rounds=2)
    f = tally.speed.scale()
    values = {
        "setup_s": median(setup_times),
        "verdicts_per_s": tally.verdicts / (tally.phase_s * f),
        "queries_per_s": tally.queries / (tally.verdict_s * f),
        "queries_per_verdict": tally.queries / tally.verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"rounds={tally.rounds} verdicts={tally.verdicts} host speed factor {f:.3f}; "
          f"wall clock: setups " + ",".join(f"{s:.3f}" for s in setup_wall)
          + f" s, {tally.verdicts / tally.phase_s:.6g} verdicts/s, "
          f"{tally.queries / tally.verdict_s:.6g} queries/s")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return metrics, [tally]


def measure_traced(workload, seconds: float) -> tuple[dict, list]:
    import spans
    from workloads import Tally
    tracer = spans.Tracer()
    tracer.install()
    try:
        set_up(workload, tracer)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    workload.prepare()
    reference: list = []
    plain = Tally(reference)
    run_rounds(workload, plain, seconds / 2, min_rounds=1)
    traced = Tally(reference, tracer)
    tracer.install()
    try:
        run_rounds(workload, traced, seconds / 2, min_rounds=1)
    finally:
        tracer.uninstall()
    round_spans = tracer.take()

    per = 1.0 / traced.rounds
    values = {
        **spans.setup_metrics(setup_spans, tracer.wrapper_cost, SETUPS),
        **spans.round_metrics(round_spans, tracer.wrapper_cost, traced.rounds),
        **spans.verdict_p50s(plain.times),
        "bounded_testers.rejects": traced.rejects["bounded_testers"] * per,
        "dense_testers.rejects": traced.rejects["dense_testers"] * per,
        "dense_testers.full_read_verdicts": traced.full_reads["dense_testers"] * per,
        "trace.overhead": (traced.phase_s * traced.speed.scale() / traced.rounds)
        / (plain.phase_s * plain.speed.scale() / plain.rounds),
    }
    print(f"tracing overhead: {values['trace.overhead']:.3f}x "
          f"(traced verdict phase per round / untraced; {traced.rounds} traced, "
          f"{plain.rounds} untraced rounds; query wrapper {tracer.wrapper_cost * 1e9:.0f} ns)")
    spans.write_spans(WORKDIR / f"spans-{workload.name}.jsonl",
                      {"setup": setup_spans, "round": round_spans})
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    return metrics, [plain, traced]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("_p50"):
        return "s"
    if name.endswith("yield") or name == "trace.overhead":
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in a fresh process; relays their output."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signedtest" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/signedtest; run from a signedtest checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("SIGNEDTEST_WORKERS", None)  # one process, no worker threads
    sys.path.insert(0, str(SRC))
    print(header(args), flush=True)
    if args.workload == "all":
        return run_all(args)

    import signedtest
    if Path(signedtest.__file__).resolve().parent != (SRC / "signedtest").resolve():
        print(f"error: imported signedtest from {signedtest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = WORKDIR / f"run-{os.getpid()}"  # concurrent runs never share files
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, tallies = measure_traced(workload, args.seconds)
        else:
            metrics, tallies = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for msg in t.problems:
            print(f"FAILED {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
