"""Steadiness of the benchmark: k runs of every workload, one seed each.

    python3 bench/steady.py --runs 10 [--first-seed 1] [--workloads a,b] [--trace 1]

For each workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread under a third of its bound is
marked ``ok``.  Runs last ``run_seconds`` from BENCHMARK.json.  With ``--trace 1`` it runs the per-layer metrics instead and
marks each ``.calls`` count that differs between runs.  The share of failed
operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = [
            run_once(workload, seed, spec["run_seconds"], args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct {correct}, failed shares {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            if name in bounds:
                bound = bounds[name]
                verdict = "ok" if spread < bound / 3 else "WIDE"
                tail = f"bound {bound:.2f}  {verdict}"
            elif name.endswith(".calls"):
                tail = "repeats" if len(set(values)) == 1 else f"VARIES {min(values)}..{max(values)}"
            else:
                tail = ""
            print(f"  {name:40s} median {med:14.6g} {unit:10s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}  {tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
