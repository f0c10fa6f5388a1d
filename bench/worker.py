"""One benchmark workload in one fresh, single-threaded Python process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE --out DIR

The worker imports stratci from the checkout's ``src``, makes the workload's
inputs from the seed, and prints ``READY`` once both are done; that moment
ends set-up.  ``--mode setup`` stops there.  ``--mode run`` then runs whole
rounds of the workload until the next round would end after ``--seconds``
(at least one round), and ``--mode trace`` runs the same untraced rounds
followed by a fixed number of rounds with per-layer spans recorded.  The
last line of standard output is one JSON object that ``run.py`` reads.
Outputs are left in DIR for the correctness checks: the last simulate
call's files in ``out/`` and the first round's releases in ``releases.json``
(every round must give the same outputs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stratci  # noqa: E402
from stratci import analysis, cli, core, dp_ci, randomness  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402

# Shipped config per simulate workload, whether reps.csv is written, the
# repetitions per round (per budget for the sweep), and the direct releases
# per mechanism and budget after each round that give ``release_p50_us``.
# Rounds under a second keep the speed probes between rounds (calibrate.py)
# close enough to follow the machine's drift; the configs' 10 000 and
# 6 x 4 000 repetitions would take 3.5 s and 32 s per call.
SIMULATE = {
    "one-stratum-reps": ("one_stratum_n152.cfg", True, 1000, 300),
    "twenty-strata-sweep": ("rho_sweep.cfg", False, 100, 50),
}
RELEASE_DESK = "release-desk"
WORKLOADS = (*SIMULATE, RELEASE_DESK)

# release-desk make-up: this many datasets for each stratum count, every one
# released by the three mechanisms at alpha 0.1 and an even budget split.
DESK_STRATA = (1, 5, 20)
DESK_DATASETS_PER_H = 400
DESK_ALPHA = 0.1
DESK_SPLIT = 0.5
MECHANISMS = (
    ("str-pub", "stratum_noise_public_sizes"),
    ("pop-pub", "population_noise_public_sizes"),
    ("str-priv", "stratum_noise_private_sizes"),
)

# Rounds in the traced phase: enough that it lasts a few seconds.
TRACE_ROUNDS = {"one-stratum-reps": 6, "twenty-strata-sweep": 8, RELEASE_DESK: 10}


class Round(NamedTuple):
    attempted: int
    failed: int
    digest: str
    raw_s: float
    scaled_s: float
    p50_us: float


def simulate_config(workload: str, seed: int) -> tuple[str, dict]:
    """The shipped config with ``base_seed`` set to the benchmark seed.

    Also returns the settings the checks and the interval count need.
    """
    name, emit_reps, repetitions, _ = SIMULATE[workload]
    lines, settings = [], {}
    for line in (ROOT / "configs" / name).read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        key, value = key.strip(), value.strip()
        if key == "base_seed":
            line = f"base_seed = {seed}"
        elif key in ("algorithms", "rho_grid"):
            settings[key] = [v.strip() for v in value.split(",")]
        elif key == "repetitions":
            line, value = f"repetitions = {repetitions}", str(repetitions)
            settings[key] = int(value)
        lines.append(line)
    if emit_reps:
        lines.append("emit_reps = true")
    settings["rho_grid"] = [float(v) for v in settings.get("rho_grid", [])]
    return "\n".join(lines) + "\n", settings


def desk_datasets(seed: int) -> list[dict]:
    """Finite populations and their stratified samples, drawn by the benchmark.

    Stratum sizes N_h ~ U{500..3000}, proportions p_h ~ U(0.2, 0.8) with
    K_h = round(p_h N_h) positives, sample sizes n_h = max(30, round(r_h N_h))
    with r_h ~ U(0.02, 0.1), counts exactly hypergeometric, and a total budget
    rho ~ U(0.3, 1.0).  Every n_h >= 30 and rho >= 0.3 keep the noisy-size
    coefficient of variation below 0.1, where the ratio approximation holds.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    datasets = []
    for H in DESK_STRATA:
        for _ in range(DESK_DATASETS_PER_H):
            sizes = [int(v) for v in rng.integers(500, 3001, size=H)]
            positives = [int(round(p * N)) for p, N in zip(rng.uniform(0.2, 0.8, size=H), sizes)]
            samples = [max(30, int(round(r * N))) for r, N in zip(rng.uniform(0.02, 0.1, size=H), sizes)]
            counts = [int(c) for c in rng.hypergeometric(positives, np.subtract(sizes, positives), samples)]
            datasets.append(
                {
                    "sizes": sizes,
                    "positives": positives,
                    "samples": samples,
                    "counts": counts,
                    "rho": float(rng.uniform(0.3, 1.0)),
                }
            )
    return datasets


def _ci_payload(ci) -> dict:
    return {
        "point": ci.point_estimate,
        "variance": ci.variance_estimate,
        "lower": ci.lower,
        "upper": ci.upper,
        "rho1": ci.budget_spent.rho1 if ci.budget_spent else None,
        "rho2": ci.budget_spent.rho2 if ci.budget_spent else None,
        "clipped": {
            "proportion": ci.clipped.proportion_clipped,
            "interval": ci.clipped.interval_clipped,
            "variance_floored": ci.clipped.variance_floored,
            "noisy_size_floored": ci.clipped.noisy_size_floored,
        },
        "noise_variances": dict(ci.noise_variances),
    }


def release(seed: int, key: list[int], design, counts, budget, alpha: float, timer, kind) -> tuple[dict, int]:
    """Release one dataset by every mechanism, timing each call.

    Mechanism ``slot`` draws from ``derive_stream(seed, key + [slot])`` and
    its latency is recorded as kind ``kind(slot)``.  Returns the intervals by
    mechanism name and the number of calls that failed.
    """
    clock = time.perf_counter_ns
    cis, failed = {}, 0
    for slot, (name, attr) in enumerate(MECHANISMS):
        stream = randomness.derive_stream(seed, [*key, slot])
        mechanism = getattr(dp_ci, attr)
        try:
            start = clock()
            out = mechanism(stream, design, counts, budget, alpha)
            timer.record(clock() - start, kind(slot))
        except ValueError:
            failed += 1
            continue
        cis[name] = out[0] if isinstance(out, tuple) else out
    return cis, failed


def publish(header: dict, sections: dict, path: Path | None) -> str:
    """SHA-256 of one JSON object, written to ``path`` too if given.

    ``sections`` maps a key to an iterable of entries; entries are encoded
    one at a time, so the whole object is never held in memory.
    """
    digest = hashlib.sha256()
    out = path.open("w") if path is not None else None

    def put(text: str) -> None:
        digest.update(text.encode())
        if out is not None:
            out.write(text)

    put(json.dumps(header, sort_keys=True)[:-1])
    for key, entries in sections.items():
        put(f', "{key}": [')
        for j, entry in enumerate(entries):
            put(("," if j else "") + json.dumps(entry, sort_keys=True))
        put("]")
    put("}")
    if out is not None:
        out.close()
    return digest.hexdigest()


def _with_tracer(tracer, fn):
    """Call ``fn()`` with the tracer's wrappers installed, if there is a tracer."""
    if tracer is None:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


class ReleaseDesk:
    """Independent single-interval releases through the library API."""

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.datasets = desk_datasets(seed)
        self.pairs = [(i, i + 1) for i in range(0, len(self.datasets), 2)]
        self.intervals_per_round = len(self.datasets) * len(MECHANISMS)
        self.releases_per_mechanism = len(self.datasets)
        self.rho_grid: list[float] = []
        self.output_bytes = 0
        self.releases_path: Path | None = out / "releases.json"

    def _kind(self, design):
        h = DESK_STRATA.index(len(design))
        return lambda slot: slot * len(DESK_STRATA) + h

    def round(self, timer: calibrate.ScaledClock, tracer=None) -> Round:
        """One pass over every dataset."""
        failed = 0
        released, reports, diffs = [], [], []

        def work() -> None:
            nonlocal failed
            timer.start()
            for i, ds in enumerate(self.datasets):
                try:
                    design = core.build_design(list(zip(ds["sizes"], ds["samples"])))
                    counts = core.StratumCounts(tuple(ds["counts"]))
                    budget = core.PrivacyBudget.total(ds["rho"], DESK_SPLIT)
                except ValueError:
                    failed += len(MECHANISMS) + 1
                    released.append({})
                    reports.append(None)
                    continue
                cis, bad = release(self.seed, [i], design, counts, budget, DESK_ALPHA, timer, self._kind(design))
                failed += bad
                released.append(cis)
                proportions = [K / N for K, N in zip(ds["positives"], ds["sizes"])]
                try:
                    reports.append(analysis.width_ratio_report(design, budget, proportions))
                except ValueError:
                    failed += 1
                    reports.append(None)
            for a, b in self.pairs:
                row = {}
                for name, _ in MECHANISMS:
                    try:
                        row[name] = dp_ci.difference_ci(released[a][name], released[b][name], DESK_ALPHA)
                    except (KeyError, ValueError):
                        failed += 1
                diffs.append(row)
            timer.stop()

        _with_tracer(tracer, work)
        raw, scaled = timer.raw, timer.scaled
        digest = publish(
            {"alpha": DESK_ALPHA, "split": DESK_SPLIT},
            {
                "datasets": (
                    dict(
                        ds,
                        releases={name: _ci_payload(ci) for name, ci in cis.items()},
                        report={tag.value: v for tag, v in report.extrinsic_variances} if report else None,
                    )
                    for ds, cis, report in zip(self.datasets, released, reports)
                ),
                "differences": (
                    {"pair": list(pair), "intervals": {name: _ci_payload(ci) for name, ci in row.items()}}
                    for pair, row in zip(self.pairs, diffs)
                ),
            },
            self.releases_path,
        )
        self.releases_path = None
        attempted = len(self.datasets) * (len(MECHANISMS) + 1) + len(self.pairs) * len(MECHANISMS)
        return Round(attempted, failed, digest, raw, scaled, timer.take_p50())


class Simulate:
    """``stratci simulate`` on a shipped config through ``stratci.cli.main``.

    After each simulate call, the workload's design (from the call's
    ``summary.json``) is released directly through the library API a fixed
    number of times per mechanism and budget; those calls give
    ``release_p50_us`` and are not part of the round time.
    """

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        text, settings = simulate_config(workload, seed)
        self.seed = seed
        self.config = out / "input.cfg"
        self.config.write_text(text)
        self.out = out / "out"
        self.releases = SIMULATE[workload][3]
        grid_points = max(1, len(settings["rho_grid"]))
        self.releases_per_mechanism = settings["repetitions"] * grid_points
        self.intervals_per_round = self.releases_per_mechanism * len(settings["algorithms"])
        self.rho_grid = settings["rho_grid"]
        self.output_bytes = 0
        self.releases_path: Path | None = out / "releases.json"

    def round(self, timer: calibrate.ScaledClock, tracer=None) -> Round:
        """One simulate call, then the direct releases at its design."""

        def work() -> int:
            timer.start()
            code = cli.main(["simulate", "--config", str(self.config), "--out", str(self.out)])
            timer.stop()
            return code

        code = _with_tracer(tracer, work)
        raw, scaled = timer.raw, timer.scaled
        digest = hashlib.sha256()
        self.output_bytes = 0
        for path in sorted(self.out.iterdir()):
            data = path.read_bytes()
            self.output_bytes += len(data)
            digest.update(path.name.encode() + b"\0" + data)
        if code != 0:
            return Round(self.intervals_per_round, self.intervals_per_round, digest.hexdigest(), raw, scaled, float("nan"))
        summary = json.loads((self.out / "summary.json").read_text())
        failed, released = self._release(summary, timer)
        digest.update(released.encode())
        attempted = self.intervals_per_round + len(summary["grid"]) * self.releases * len(MECHANISMS)
        return Round(attempted, failed, digest.hexdigest(), raw, scaled, timer.take_p50())

    def _release(self, summary: dict, timer: calibrate.ScaledClock) -> tuple[int, str]:
        """The direct releases; returns (failed calls, digest of their intervals)."""
        sizes, samples = summary["stratum_sizes"], summary["sample_sizes"]
        counts_list = [round(summary["true_proportion"] * n) for n in samples]
        design = core.build_design(list(zip(sizes, samples)))
        counts = core.StratumCounts(tuple(counts_list))
        rhos = [g["rho"] for g in summary["grid"]]
        failed, entries = 0, []
        timer.start()
        for b, rho in enumerate(rhos):
            budget = core.PrivacyBudget.total(rho, summary["split"])
            for k in range(self.releases):
                cis, bad = release(
                    self.seed, [b, k], design, counts, budget, summary["alpha"], timer,
                    lambda slot: slot * len(rhos) + b,
                )
                failed += bad
                entries.append((rho, cis))
        timer.stop()
        digest = publish(
            {"alpha": summary["alpha"], "split": summary["split"]},
            {
                "datasets": (
                    {
                        "sizes": sizes,
                        "samples": samples,
                        "counts": counts_list,
                        "rho": rho,
                        "releases": {name: _ci_payload(ci) for name, ci in cis.items()},
                    }
                    for rho, cis in entries
                )
            },
            self.releases_path,
        )
        self.releases_path = None
        return failed, digest


def run_rounds(workload, timer: calibrate.ScaledClock, seconds: float, limit: int | None = None, tracer=None) -> dict:
    """Whole rounds until the next would end after ``seconds`` (or ``limit`` rounds)."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(timer, tracer))
        if limit is not None:
            if len(rounds) == limit:
                break
        elif time.perf_counter() - start + (time.perf_counter() - start) / len(rounds) > seconds:
            break
    return {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "digests": [r.digest for r in rounds],
        "round_s": [r.raw_s for r in rounds],
        "scaled_s": [r.scaled_s for r in rounds],
        # A round's release_p50_us is the mean over release kinds (mechanism,
        # and H or budget) of each kind's median: the pooled median of kinds
        # that take 20 to 800 us would sit on the boundary between two kinds
        # and jump between them from run to run.
        "release_p50_us": statistics.median(r.p50_us for r in rounds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == RELEASE_DESK:
        workload = ReleaseDesk(args.seed, out)
    else:
        workload = Simulate(args.workload, args.seed, out)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if not Path(stratci.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stratci imported from {stratci.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    timer = calibrate.ScaledClock()
    result = run_rounds(workload, timer, args.seconds)
    result.update(
        intervals_per_round=workload.intervals_per_round,
        rho_grid=workload.rho_grid,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.mode == "trace":
        rounds = TRACE_ROUNDS[args.workload]
        tracer = tracing.Tracer()
        result["traced"] = run_rounds(workload, timer, args.seconds, limit=rounds, tracer=tracer)
        result["trace_rounds"] = rounds
        result["layers"] = tracer.summary()
        result["ratio_warnings"] = tracer.ratio_warnings.count
        result["output_bytes"] = workload.output_bytes
        result["releases_per_mechanism"] = workload.releases_per_mechanism
        tracer.write(out / "spans.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
