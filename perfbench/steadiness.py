"""Repeat the benchmark over several seeds and report how steady it is.

    python3 perfbench/steadiness.py --seeds 1-10              # all workloads
    python3 perfbench/steadiness.py --workloads stacked --seeds 1-5

For each workload and end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
from BENCHMARK.json.  It also prints the share of failed operations,
which must be identical in every run, and the median of each run's
host calibration time (run.py's record file), to tell a slow machine
from a regression.  Every run's result line is appended to
perfbench/out/steadiness.jsonl.  Runs last BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    args = parser.parse_args()

    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / "steadiness.jsonl"
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = HERE / "out" / f"result-{workload}-{seed}-0.json"
            values.setdefault("host_calib_s", []).append(
                json.loads(record.read_text(encoding="utf-8"))["host_calib_s"])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, workload=workload, seed=seed,
                                         finished=time.time())) + "\n")
        print(f"{workload}: {len(args.seeds)} runs, failed share {sorted(shares)}")
        ok &= len(shares) == 1
        host = {"name": "host_calib_s", "unit": "s", "bound": None}
        for metric in bench["end_to_end"] + [host]:
            xs = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            bound = "" if metric["bound"] is None else f"bound {metric['bound']:.2f}"
            print(f"  {metric['name']:12s} median {med:10.4f} {metric['unit']:4s} "
                  f"spread {spread:6.3f}  {bound:10s}  "
                  f"min {min(xs):.4f}  max {max(xs):.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
