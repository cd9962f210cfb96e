"""Benchmark for simatroid: run one workload from a seed, check every
answer, print the metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; simatroid is imported from
./src.  One process, one thread.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  README.md in this directory explains the workloads,
the metrics and their measured spread.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkers import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 9


def load_program():
    """Import simatroid from ROOT/src and nowhere else."""
    src = ROOT / "src"
    if not (src / "simatroid" / "__init__.py").is_file():
        sys.exit(f"error: no simatroid sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import simatroid
    if Path(simatroid.__file__).resolve().parent != src / "simatroid":
        sys.exit(f"error: imported simatroid from {simatroid.__file__}, not {src}")
    return simatroid


def calibrate() -> float:
    """A fixed loop that runs no program code: median of 3 timings."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import simatroid and
    generate and parse the workload's inputs; the first start, which may
    compile bytecode, is not counted."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


class Runner:
    """Runs whole rounds of the same operations; the first round checks
    every answer, later rounds must repeat it exactly.  Before each round,
    outside its timed region, it times the calibration loop."""

    def __init__(self, ops):
        self.ops = ops
        self.expected = None      # first round's results
        self.outcome = None       # True ok, False known fault
        self.rounds = 0
        self.failed = 0
        self.calib_s = []         # calibrate() before each round

    def round(self, tracer=None) -> list[float]:
        self.calib_s.append(calibrate())
        gc.collect()
        if tracer is not None:
            tracer.new_round()
        times = []
        results = []
        for op in self.ops:
            run = op.run if tracer is None else tracer.operation(op.kind, op.run)
            start = time.perf_counter()
            result = run()
            times.append(time.perf_counter() - start)
            results.append(result)
        if self.expected is None:
            self.outcome = [op.check(r) for op, r in zip(self.ops, results)]
            self.expected = results
        else:
            for op, got, want in zip(self.ops, results, self.expected):
                if got != want:
                    raise CheckFailed(f"{op.label}: answer differs from the first round's")
        self.rounds += 1
        self.failed += self.outcome.count(False)
        return times

    def timed(self, seconds: float, tracer=None, minimum=1) -> list[list[float]]:
        """Whole rounds until seconds of operation time have passed."""
        out = []
        while len(out) < minimum or sum(map(sum, out)) < seconds:
            out.append(self.round(tracer))
        return out


def per_command(ops, rounds, commands):
    out = {}
    for cmd in commands:
        idx = [i for i, op in enumerate(ops) if op.kind == cmd]
        out[f"cli.{cmd}.s"] = (statistics.median(sum(r[i] for i in idx) for r in rounds), "s")
        out[f"cli.{cmd}.calls"] = (len(idx), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="operation time to measure (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    simatroid = load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        build(args.seed)
        return 0

    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    runner = Runner(build(args.seed))
    OUT.mkdir(exist_ok=True)
    stdin = sys.stdin
    metrics = {}
    try:
        runner.round()                                        # warm-up, checks answers
        if args.trace == 0:
            rounds = runner.timed(args.seconds)
            metrics = {
                "ops_per_s": (len(runner.ops) / statistics.median(map(sum, rounds)), "1/s"),
                "op_p50_ms": (statistics.median(t for r in rounds for t in r) * 1000, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail = per_command(runner.ops, rounds, workloads.COMMANDS)
            detail["round_s"] = ([sum(r) for r in rounds], "s")
            detail["calib_s"] = (runner.calib_s[1:], "s")
        else:
            from tracing import Tracer
            plain = runner.timed(args.seconds / 2, minimum=2)
            tracer = Tracer()
            restore = tracer.install(simatroid)
            try:
                traced = runner.timed(args.seconds / 2, tracer=tracer)
            finally:
                restore()
            metrics = per_command(runner.ops, plain, workloads.COMMANDS)
            metrics.update(tracer.metrics(len(traced)))
            metrics["host.calib_s"] = (statistics.median(runner.calib_s[1:]), "s")
            metrics["trace.overhead_s"] = (statistics.median(map(sum, traced))
                                           - statistics.median(map(sum, plain)), "s")
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            detail = {"round_s": ([sum(r) for r in plain], "s"),
                      "traced_round_s": ([sum(r) for r in traced], "s"),
                      "calib_s": (runner.calib_s[1:], "s")}
        correct = True
    except CheckFailed as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        correct = False
        detail = {}
    finally:
        sys.stdin = stdin

    calib = runner.calib_s[1:]    # the timed rounds'
    result = {"correct": correct, "attempted": runner.rounds * len(runner.ops),
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=runner.rounds, ops_per_round=len(runner.ops),
                  host_calib_s=statistics.median(calib) if calib else None,
                  detail={k: v for k, (v, _) in detail.items()},
                  python=sys.version.split()[0])
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
