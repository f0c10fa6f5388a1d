"""stratci benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh,
single-threaded Python processes (``worker.py``) started from here, with the
BLAS and OpenMP thread counts pinned to 1.  Set-up is the CPU time of
several fresh set-up-only processes, each scaled by reference processes run
around it (``calibrate.py``), and reported as the median.
The outputs are checked by ``checks.py``, which does not import stratci.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402

WORKLOADS = ("one-stratum-reps", "twenty-strata-sweep", "release-desk")
# Set-up-only processes timed per run.
SETUP_SAMPLES = 9
# Whole run, set-up processes included, is cut off after this many seconds.
DEADLINE_S = 175.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = ("setup_s", "intervals_per_s", "release_p50_us", "peak_rss_mb")
UNITS = {
    "setup_s": "s",
    "intervals_per_s": "interval/s",
    "release_p50_us": "us",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (metric, span, statistic).  Counts and totals are per
# round; "us" is the mean inclusive time per call, "self_us" the mean time
# per call outside wrapped children.
PER_LAYER = (
    ("randomness.derive_stream.calls", "randomness.derive_stream", "calls"),
    ("randomness.derive_stream.us", "randomness.derive_stream", "us"),
    ("randomness.child.calls", "randomness.child", "calls"),
    ("randomness.child.us", "randomness.child", "us"),
    ("randomness.generator.calls", "randomness.generator", "calls"),
    ("randomness.generator.us", "randomness.generator", "us"),
    ("randomness.gaussian.calls", "randomness.gaussian", "calls"),
    ("randomness.gaussian.us", "randomness.gaussian", "us"),
    ("mechanisms.gaussian_mechanism.calls", "mechanisms.gaussian_mechanism", "calls"),
    ("mechanisms.gaussian_mechanism.self_us", "mechanisms.gaussian_mechanism", "self_us"),
    ("mechanisms.sensitivities.calls", "mechanisms.sensitivities", "calls"),
    ("mechanisms.sensitivities.us", "mechanisms.sensitivities", "us"),
    ("dp_ci.str_pub.us", "dp_ci.str_pub", "us"),
    ("dp_ci.str_pub.self_us", "dp_ci.str_pub", "self_us"),
    ("dp_ci.pop_pub.us", "dp_ci.pop_pub", "us"),
    ("dp_ci.pop_pub.self_us", "dp_ci.pop_pub", "self_us"),
    ("dp_ci.str_priv.us", "dp_ci.str_priv", "us"),
    ("dp_ci.str_priv.self_us", "dp_ci.str_priv", "self_us"),
    ("dp_ci.difference_ci.us", "dp_ci.difference_ci", "us"),
    ("estimators.non_private_ci.us", "estimators.non_private_ci", "us"),
    ("estimators.wald_interval.calls", "estimators.wald_interval", "calls"),
    ("estimators.wald_interval.us", "estimators.wald_interval", "us"),
    ("core.check_paired.calls", "core.check_paired", "calls"),
    ("core.check_paired.us", "core.check_paired", "us"),
    ("core.build_design.us", "core.build_design", "us"),
    ("simharness.draw_sample.us", "simharness.draw_sample", "us"),
    ("simharness.draw_sample.self_us", "simharness.draw_sample", "self_us"),
    ("simharness.generate_population.s", "simharness.generate_population", "s"),
    ("simharness.run_experiment.self_s", "simharness.run_experiment", "self_s"),
    ("analysis.width_ratio_report.us", "analysis.width_ratio_report", "us"),
    ("cli.self_s", "cli", "self_s"),
)
STAT_UNITS = {"calls": "count", "us": "us", "self_us": "us", "s": "s", "self_s": "s"}
EXTRA_LAYER_UNITS = {
    "dp_ci.ratio_warnings": "count",
    "cli.output_bytes": "bytes",
    "import.stratci_s": "s",
    "import.scipy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(RuntimeError):
    """A worker process failed; the run prints no result."""


def start(cmd: list[str], err, deadline: float) -> subprocess.Popen:
    env = dict(os.environ, **THREAD_PINS)
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    proc.watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    proc.watchdog.start()
    return proc


def finish(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a started process; return (exit code, its user + system CPU seconds)."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, usage.ru_utime + usage.ru_stime


def spawn(args, out: Path, mode: str, deadline: float, importtime: bool = False) -> tuple[float, dict | None, str]:
    """Run one worker to its end; return (its CPU seconds, final JSON or None, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", str(out),
    ]
    err_path = out / f"{mode}.stderr"
    ready, last = False, None
    with open(err_path, "w") as err:
        proc = start(cmd, err, deadline)
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = True
            elif line.strip():
                last = line
        code, cpu = finish(proc)
    stderr = err_path.read_text()
    if code != 0 or not ready:
        raise WorkerError(f"worker ({mode}) exited with {code}:\n{stderr[-4000:]}")
    return cpu, (json.loads(last) if last else None), stderr


def reference(deadline: float) -> float:
    """CPU seconds of one reference process (calibrate.py)."""
    proc = start([sys.executable, str(HERE / "calibrate.py")], subprocess.DEVNULL, deadline)
    proc.stdout.read()
    code, cpu = finish(proc)
    if code != 0:
        raise WorkerError(f"reference process exited with {code}")
    return cpu


def timed_setups(args, out: Path, deadline: float, importtime: bool) -> list[tuple[float, float, str]]:
    """Set-up-only processes, each between two reference processes.

    Returns (CPU seconds to the end of set-up, speed scale, stderr) per
    process; the scale is REFERENCE_PROCESS_S over the mean CPU time of the
    reference processes before and after it.
    """
    samples = []
    before = reference(deadline)
    for _ in range(SETUP_SAMPLES):
        cpu, _, stderr = spawn(args, out, "setup", deadline, importtime)
        after = reference(deadline)
        samples.append((cpu, calibrate.REFERENCE_PROCESS_S / ((before + after) / 2.0), stderr))
        before = after
    return samples


def import_seconds(stderr: str) -> tuple[float, float]:
    """(stratci, scipy) cumulative import seconds from ``-X importtime`` output.

    scipy counts every scipy module imported at the shallowest depth any
    scipy module appears, which is where stratci first pulls it in.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    stratci_us = sum(us for _, name, us in entries if name == "stratci")
    scipy = [(depth, us) for depth, name, us in entries if name == "scipy" or name.startswith("scipy.")]
    top = min((depth for depth, _ in scipy), default=0)
    scipy_us = sum(us for depth, us in scipy if depth == top)
    return stratci_us / 1e6, scipy_us / 1e6


def check_outputs(workload: str, out: Path, result: dict) -> list[str]:
    releases = json.loads((out / "releases.json").read_text())
    if workload == "release-desk":
        return checks.check_release_desk(releases)
    summary = json.loads((out / "out" / "summary.json").read_text())
    if workload == "one-stratum-reps":
        errors = checks.check_one_stratum(summary, (out / "out" / "reps.csv").read_text())
    else:
        errors = checks.check_sweep(summary, result["rho_grid"])
    return errors + checks.check_releases(releases)


def median_scaled(rounds: dict) -> float:
    """Median round time at the reference machine speed."""
    return statistics.median(rounds["scaled_s"])


# Spans of the three mechanisms: a traced round must record exactly one call
# of each per release the workload makes, or the wrappers missed a binding.
MECHANISM_SPANS = ("dp_ci.str_pub", "dp_ci.pop_pub", "dp_ci.str_priv")


def layer_metrics(result: dict, imports: list[tuple[float, float]]) -> dict:
    rounds = result["trace_rounds"]
    layers = result["layers"]
    traced = result["traced"]
    for span in MECHANISM_SPANS:
        if layers[span]["calls"] != rounds * result["releases_per_mechanism"]:
            raise WorkerError(
                f"{span}: {layers[span]['calls']} calls traced over {rounds} rounds, expected "
                f"{result['releases_per_mechanism']} per round; a wrapper missed a binding"
            )
    scale = statistics.median(s / t for s, t in zip(traced["scaled_s"], traced["round_s"]))
    values = {}
    for metric, span, stat in PER_LAYER:
        entry = layers[span]
        calls = entry["calls"]
        if stat == "calls":
            values[metric] = calls // rounds
        elif stat in ("us", "self_us"):
            ns = entry["ns" if stat == "us" else "self_ns"]
            values[metric] = ns * scale / calls / 1e3 if calls else 0.0
        else:
            values[metric] = entry["ns" if stat == "s" else "self_ns"] * scale / rounds / 1e9
    values["dp_ci.ratio_warnings"] = result["ratio_warnings"] // rounds
    values["cli.output_bytes"] = result["output_bytes"]
    values["import.stratci_s"] = statistics.median(s for s, _ in imports)
    values["import.scipy_s"] = statistics.median(s for _, s in imports)
    values["trace.overhead_ratio"] = median_scaled(traced) / median_scaled(result)
    units = {metric: STAT_UNITS[stat] for metric, _, stat in PER_LAYER}
    units.update(EXTRA_LAYER_UNITS)
    return {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "stratci" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no stratci checkout at {ROOT} (needs src/stratci and configs/)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".bench_run" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    trace = args.trace == 1
    try:
        setups = timed_setups(args, out, deadline, importtime=trace)
        _, result, _ = spawn(args, out, "trace" if trace else "run", deadline)
        errors = check_outputs(args.workload, out, result)
        digests = set(result["digests"])
        if len(digests) != 1:
            errors.append(f"untraced rounds disagree: {len(digests)} distinct outputs")
        rounds = len(result["round_s"])
        attempted, failed = result["attempted"], result["failed"]
        if trace:
            traced = result["traced"]
            if set(traced["digests"]) != digests:
                errors.append("traced outputs differ from untraced outputs")
            rounds += len(traced["round_s"])
            attempted += traced["attempted"]
            failed += traced["failed"]
            imports = [tuple(s * scale for s in import_seconds(stderr)) for _, scale, stderr in setups]
            metrics = layer_metrics(result, imports)
        else:
            metrics = {
                "setup_s": statistics.median(cpu * scale for cpu, scale, _ in setups),
                "intervals_per_s": result["intervals_per_round"] / median_scaled(result),
                "release_p50_us": result["release_p50_us"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {name: {"value": metrics[name], "unit": UNITS[name]} for name in END_TO_END}
        bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
        if bad:
            raise WorkerError(f"metrics not finite: {', '.join(bad)}")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        f"workload {args.workload}, seed {args.seed}: {rounds} rounds, {len(errors)} failed checks, "
        f"median speed scale {statistics.median(s / t for s, t in zip(result['scaled_s'], result['round_s'])):.3f}"
    )
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
