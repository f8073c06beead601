"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of the runs, as
a share of their median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload train_ref --seeds 0-9

Runs one benchmark process at a time. Exits non-zero when a run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]

    values = {m["name"]: [] for m in specs}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{proc.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in specs:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{m['name']:40s} {med:12.5g} {spread:8.4f} {m['bound']:6.3f}")


if __name__ == "__main__":
    main()
