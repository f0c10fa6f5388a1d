"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py --base DIR --change DIR [--pairs 10]
        [--seconds 20] [--workload NAME ...] [--out PATH]

Pair i runs ``python3 bench/run.py --workload W --seed i+1 --seconds S
--trace 0`` once in each checkout, the base first in even pairs and the
change first in odd ones, so that a drift in machine speed falls on both
sides alike.  Each checkout runs its own ``bench/run.py`` from its own root.
The record is written as JSON, by default to ``BENCH_<change sha>.json`` in
the current directory: each side's git sha, the machine, and per workload and
end-to-end metric the per-run values, median, quartiles and the pairs the
change won.  A metric's direction and bound come from the change's
``BENCHMARK.json``.  It prints each workload's correctness and each side's
failed/attempted operations beside the medians, marks ``OVER BOUND`` each
metric whose change median is worse than the base median by more than its
bound, and exits 1 on such a metric, if any run reported incorrect results,
or if the change failed a larger share of its operations than the base.
The standard library is all it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def git_state(root: Path) -> dict:
    """The checkout's HEAD commit, its tree and its ``src`` tree, and whether tracked files differ from HEAD.

    The ``src`` tree sha names the package code alone, so it also matches a
    later commit that changed only documents or records.
    """

    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "sha": git("rev-parse", "HEAD") or None,
        "tree": git("rev-parse", "HEAD^{tree}") or None,
        "src_tree": git("rev-parse", "HEAD:src") or None,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def machine() -> dict:
    """What the runs ran on: platform, CPU model and count, and Python version."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run; its last line of output, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd[1:])} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def failed_share(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def compare(base: list[dict], change: list[dict], spec: dict) -> dict:
    """Per metric: each side's runs, the pairs in which the change did better, and whether it is over its bound."""
    out = {}
    for name, (direction, bound) in spec.items():
        b = [run["metrics"][name]["value"] for run in base]
        c = [run["metrics"][name]["value"] for run in change]
        sign = 1.0 if direction == "higher" else -1.0
        base_stats, change_stats = describe(b), describe(c)
        median_change = change_stats["median"] / base_stats["median"] - 1.0
        out[name] = {
            "unit": base[0]["metrics"][name]["unit"],
            "better": direction,
            "base": base_stats,
            "change": change_stats,
            "wins": sum(sign * (y - x) > 0.0 for x, y in zip(b, c)),
            "pairs": len(b),
            "median_change": median_change,
            "base_iqr": base_stats["q3"] - base_stats["q1"],
            "bound": bound,
            "over_bound": sign * median_change < -bound,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", help="workload to run (default: every one)")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<change sha>.json)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")

    base_root, change_root = args.base.resolve(), args.change.resolve()
    spec = json.loads((change_root / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"base": git_state(base_root), "change": git_state(change_root)}

    results = {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            order = (("base", base_root), ("change", change_root))
            for side, root in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_once(root, workload, i + 1, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        results[workload] = {
            "correct": all(run["correct"] for side in runs.values() for run in side),
            "failed": {side: sum(run["failed"] for run in side_runs) for side, side_runs in runs.items()},
            "attempted": {side: sum(run["attempted"] for run in side_runs) for side, side_runs in runs.items()},
            "metrics": compare(runs["base"], runs["change"], metrics),
        }

    record = {
        "command": f"bench/run.py --seed <pair> --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "sides": sides,
        "machine": machine(),
        "workloads": results,
    }
    out = args.out or Path(f"BENCH_{(sides['change']['sha'] or 'unknown')[:7]}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    faults = []
    for workload, result in results.items():
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:20s} correct {result['correct']}  failed/attempted base "
              f"{failed['base']}/{attempted['base']}  change {failed['change']}/{attempted['change']}")
        for name, m in result["metrics"].items():
            print(f"{workload:20s} {name:16s} base {m['base']['median']:>12.6g}  change "
                  f"{m['change']['median']:>12.6g}  {m['median_change']:+7.1%}  wins {m['wins']}/{m['pairs']}"
                  + ("  OVER BOUND" if m["over_bound"] else ""))
            if m["over_bound"]:
                faults.append(f"{workload}: {name} is worse than the base by more than its bound {m['bound']:.0%}")
        if not result["correct"]:
            faults.append(f"{workload}: a run reported incorrect results")
        if failed_share(failed["change"], attempted["change"]) > failed_share(failed["base"], attempted["base"]):
            faults.append(f"{workload}: the change failed a larger share of operations than the base")
    print(f"wrote {out}")
    for fault in faults:
        print(f"FAIL {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
