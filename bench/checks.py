"""Correctness checks on workload outputs, computed apart from stratci.

Nothing here imports stratci.  The normal quantile comes from
``statistics.NormalDist``; closed forms are rebuilt from the design fields a
run wrote (``summary.json``) or from the inputs the benchmark generated.
Every check returns a list of failure messages; an empty list means the
output passed.  Tolerances are stated next to each check and in README.md.
"""

from __future__ import annotations

import math
from statistics import NormalDist

ALGORITHMS = ("nonprivate", "str-pub", "pop-pub", "str-priv")
MECHANISMS = ("str-pub", "pop-pub", "str-priv")

# Mean widths the paper reports for one stratum, N = 2000, n = 152,
# p = 0.5, rho = 1/152, with the absolute tolerance the shipped config
# states for them.
PAPER_WIDTHS = {
    "nonprivate": (0.127, 0.01),
    "str-pub": (0.228, 0.01),
    "pop-pub": (0.295, 0.01),
    "str-priv": (0.327, 0.02),
}

# Mean width against 2 z sqrt(var + v_ex): the ratio-of-normals mechanism
# sits about 0.7% above its limiting law at n = 152, the others within 0.2%.
CLOSED_FORM_WIDTH_RTOL = 0.02
# Mean width ratio against sqrt(1 + v_ex / var) on twenty strata, with every
# p_h replaced by the overall proportion: observed within 0.8%.
CLOSED_FORM_RATIO_RTOL = 0.03
# Coverage bands are nominal +/- this many binomial standard errors.  At 4
# SEs the binomial lower tail near 0.9 still holds about 1e-4 of the mass
# whatever the repetition count, so the sweep's 24 coverage cells per run
# false-alarm in about 1 run in 400: seed 107 of seeds 1-200 did (str-pub at
# rho = 0.1 read 0.76 over its 100 repetitions and 0.8855 over 2 000).  At 5
# SEs a cell false-alarms with probability about 4e-6.
COVERAGE_SIGMAS = 5.0
# A stratum mechanism whose per-stratum proportion noise has a standard
# deviation at least this large can be clipped onto [0, 1] (five such
# deviations separate p = 0.5 from a boundary).  Clipping shrinks the
# released proportion's spread while the variance estimate still adds the
# full noise variance, so coverage there may only err upwards.
CLIP_BINDS_SD = 0.1
# width == 2 z sqrt(v): z from NormalDist and from the program may differ
# in the last few bits.
WIDTH_RTOL = 1e-9
# Recomputed means against the summary's numpy means (pairwise summation).
MEAN_RTOL = 1e-12


def z_value(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def coverage_band(alpha: float, trials: int, center: float | None = None) -> tuple[float, float]:
    """``center`` (default the nominal 1 - alpha) +/- COVERAGE_SIGMAS binomial SEs."""
    if center is None:
        center = 1.0 - alpha
    half = COVERAGE_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / trials)
    return center - half, center + half


def wald_coverage_exact(N: int, K: int, n: int, alpha: float) -> float:
    """Exact coverage of the non-private Wald interval for one stratum.

    Sums, in integers, the hypergeometric weights of the counts c whose
    interval c/n +/- z sqrt(((N - n)/N) p(1 - p)/(n - 1)) covers K/N.  At
    n = 152 the count's discreteness puts it at 0.8914, not 0.9.
    """
    z = z_value(alpha)
    p = K / N
    covering = 0
    for c in range(max(0, n - (N - K)), min(n, K) + 1):
        ph = c / n
        half = z * math.sqrt(((N - n) / N) * ph * (1.0 - ph) / (n - 1))
        if ph - half <= p <= ph + half:
            covering += math.comb(K, c) * math.comb(N - K, n - c)
    return covering / math.comb(N, n)


def design_variance(sizes, samples, proportions) -> float:
    """Exact design variance of the stratified proportion (no privacy noise)."""
    total = sum(sizes)
    return sum(
        (N / total) ** 2 * ((N - n) / (N - 1)) * p * (1.0 - p) / n
        for N, n, p in zip(sizes, samples, proportions)
    )


def extrinsic_variances(sizes, samples, proportions, rho: float, split: float) -> dict:
    """Variance each mechanism's noise adds, from the mechanisms' definitions."""
    total = sum(sizes)
    rho1 = rho * split
    rho2 = rho - rho1
    wn2 = [(N / total / n) ** 2 for N, n in zip(sizes, samples)]
    return {
        "nonprivate": 0.0,
        "str-pub": sum(wn2) / (2.0 * rho),
        "pop-pub": max(wn2) / (2.0 * rho1),
        "str-priv": sum(wn2) / (2.0 * rho1)
        + sum(v * p * p for v, p in zip(wn2, proportions)) / (2.0 * rho2),
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# --- one-stratum-reps --------------------------------------------------------


def check_one_stratum(summary: dict, reps_text: str) -> list[str]:
    """Paper widths, closed-form widths, coverage band, and reps.csv vs summary."""
    errors: list[str] = []
    alpha, R, split = summary["alpha"], summary["repetitions"], summary["split"]
    (grid,) = summary["grid"]
    rows = grid["algorithms"]
    if tuple(rows) != ALGORITHMS:
        return [f"summary algorithms {list(rows)} != {list(ALGORITHMS)}"]
    sizes, samples = summary["stratum_sizes"], summary["sample_sizes"]
    p = summary["true_proportion"]
    var = design_variance(sizes, samples, [p])
    vex = extrinsic_variances(sizes, samples, [p], grid["rho"], split)
    z = z_value(alpha)
    (N,), (n,) = sizes, samples
    exact = wald_coverage_exact(N, round(p * N), n, alpha)
    for name in ALGORITHMS:
        row = rows[name]
        # The noise smooths the private intervals' discreteness away.
        lo, hi = coverage_band(alpha, R, exact if name == "nonprivate" else None)
        target, tol = PAPER_WIDTHS[name]
        if abs(row["mean_width"] - target) > tol:
            errors.append(f"{name}: mean width {row['mean_width']:.4f} not within {tol} of paper's {target}")
        closed = 2.0 * z * math.sqrt(var + vex[name])
        if not _close(row["mean_width"], closed, CLOSED_FORM_WIDTH_RTOL):
            errors.append(f"{name}: mean width {row['mean_width']:.5f} vs closed form {closed:.5f}")
        if not lo <= row["coverage"] <= hi:
            errors.append(f"{name}: coverage {row['coverage']} outside [{lo:.4f}, {hi:.4f}]")
    errors += _check_reps(reps_text, rows, R, p)
    return errors


def _check_reps(reps_text: str, rows: dict, R: int, p: float) -> list[str]:
    lines = reps_text.splitlines()
    if not lines or lines[0] != "rep,algorithm,covered,width,lower,upper":
        return ["reps.csv: bad header"]
    body = lines[1:]
    if len(body) != R * len(ALGORITHMS):
        return [f"reps.csv: {len(body)} rows, expected {R * len(ALGORITHMS)}"]
    errors: list[str] = []
    acc = {name: {"covered": 0, "width": [], "lower": [], "upper": []} for name in ALGORITHMS}
    for i, line in enumerate(body):
        rep, name, covered, width, lower, upper = line.split(",")
        expected_rep, expected_name = divmod(i, len(ALGORITHMS))
        if int(rep) != expected_rep or name != ALGORITHMS[expected_name]:
            errors.append(f"reps.csv row {i + 2}: ({rep}, {name}) out of order")
            break
        width, lower, upper = float(width), float(lower), float(upper)
        if covered != ("1" if lower <= p <= upper else "0"):
            errors.append(f"reps.csv row {i + 2}: covered bit {covered} disagrees with [{lower}, {upper}]")
            break
        if width != upper - lower:
            errors.append(f"reps.csv row {i + 2}: width {width} != upper - lower")
            break
        a = acc[name]
        a["covered"] += covered == "1"
        a["width"].append(width)
        a["lower"].append(lower)
        a["upper"].append(upper)
    if errors:
        return errors
    for name in ALGORITHMS:
        a, row = acc[name], rows[name]
        if a["covered"] / R != row["coverage"]:
            errors.append(f"reps.csv: {name} coverage {a['covered'] / R} != summary {row['coverage']}")
        for field in ("width", "lower", "upper"):
            mean = math.fsum(a[field]) / R
            if not _close(mean, row[f"mean_{field}"], MEAN_RTOL):
                errors.append(f"reps.csv: {name} mean {field} {mean!r} != summary {row[f'mean_{field}']!r}")
    return errors


# --- twenty-strata-sweep -----------------------------------------------------


def _proportion_noise_sd(name: str, samples, p: float, rho: float, split: float) -> float:
    """Largest per-stratum standard deviation of a stratum mechanism's noisy proportion."""
    n_min = min(samples)
    if name == "str-pub":
        return 1.0 / (n_min * math.sqrt(2.0 * rho))
    rho1 = rho * split
    rho2 = rho - rho1
    return math.sqrt(1.0 / (2.0 * rho1) + p * p / (2.0 * rho2)) / n_min


def check_sweep(summary: dict, rho_grid) -> list[str]:
    """Widths fall with rho, coverage in band, public-size width ratios match closed forms."""
    errors: list[str] = []
    alpha, R, split = summary["alpha"], summary["repetitions"], summary["split"]
    grid = summary["grid"]
    rhos = [g["rho"] for g in grid]
    if rhos != list(rho_grid):
        return [f"sweep grid {rhos} != configured {list(rho_grid)}"]
    sizes, samples = summary["stratum_sizes"], summary["sample_sizes"]
    p = summary["true_proportion"]
    props = [p] * len(sizes)
    var = design_variance(sizes, samples, props)
    lo, hi = coverage_band(alpha, R)
    for name in MECHANISMS:
        rows = [g["algorithms"][name] for g in grid]
        for (rho_a, a), (rho_b, b) in zip(zip(rhos, rows), zip(rhos[1:], rows[1:])):
            se = math.sqrt(a["width_sd"] ** 2 / R + b["width_sd"] ** 2 / R)
            if not a["mean_width"] - b["mean_width"] > 2.0 * se:
                errors.append(
                    f"{name}: width {b['mean_width']:.5f} at rho={rho_b} does not fall "
                    f"by 2 SE from {a['mean_width']:.5f} at rho={rho_a}"
                )
    for g in grid:
        rho = g["rho"]
        vex = extrinsic_variances(sizes, samples, props, rho, split)
        for name in ALGORITHMS:
            cov = g["algorithms"][name]["coverage"]
            clipped = (
                name in ("str-pub", "str-priv")
                and _proportion_noise_sd(name, samples, p, rho, split) >= CLIP_BINDS_SD
            )
            if cov < lo or (cov > hi and not clipped):
                side = "below" if cov < lo else "above"
                errors.append(f"{name} at rho={rho}: coverage {cov} {side} [{lo:.4f}, {hi:.4f}]")
        for name in ("str-pub", "pop-pub"):
            ratio = g["algorithms"][name]["mean_width_ratio"]
            closed = math.sqrt(1.0 + vex[name] / var)
            if not _close(ratio, closed, CLOSED_FORM_RATIO_RTOL):
                errors.append(f"{name} at rho={rho}: width ratio {ratio:.4f} vs closed form {closed:.4f}")
    return errors


# --- release-desk ------------------------------------------------------------


def _noise_ledger(name: str, sizes, samples, rho1: float, rho2: float) -> dict:
    """Delta^2 / (2 rho) for every noise component a mechanism records."""
    if name == "str-pub":
        rho = rho1 + rho2
        return {
            f"stratum_proportion[{h}]": (1.0 / n) * (1.0 / n) / (2.0 * rho)
            for h, n in enumerate(samples)
        }
    if name == "pop-pub":
        total = sum(sizes)
        weights = [N / total for N in sizes]
        delta_p = max(w / n for w, n in zip(weights, samples))
        constants = [w**2 * ((N - n) / N) / (n - 1) for w, N, n in zip(weights, sizes, samples)]
        delta_v = max((C / n) * (1.0 - 1.0 / n) for C, n in zip(constants, samples))
        return {
            "population_proportion": delta_p * delta_p / (2.0 * rho1),
            "variance_estimate": delta_v * delta_v / (2.0 * rho2),
        }
    ledger = {}
    for h in range(len(samples)):
        ledger[f"stratum_count[{h}]"] = 1.0 / (2.0 * rho1)
        ledger[f"stratum_size[{h}]"] = 1.0 / (2.0 * rho2)
    return ledger


def _check_interval(label: str, ci: dict, z: float) -> list[str]:
    lower, point, upper, var = ci["lower"], ci["point"], ci["upper"], ci["variance"]
    if not all(math.isfinite(x) for x in (lower, point, upper, var)):
        return [f"{label}: non-finite interval {ci}"]
    if not lower <= point <= upper:
        return [f"{label}: [{lower}, {upper}] does not bracket {point}"]
    if not any(ci.get("clipped", {}).values()):
        expected = 2.0 * z * math.sqrt(var)
        if abs((upper - lower) - expected) > WIDTH_RTOL * expected + 1e-15:
            return [f"{label}: width {upper - lower!r} != 2 z sqrt(v) = {expected!r}"]
    return []


def check_releases(payload: dict) -> list[str]:
    """Every released interval, its budget split and its noise ledger."""
    errors: list[str] = []
    split = payload["split"]
    z = z_value(payload["alpha"])
    for i, ds in enumerate(payload["datasets"]):
        rho1 = ds["rho"] * split
        rho2 = ds["rho"] - rho1
        for name in MECHANISMS:
            ci = ds["releases"][name]
            label = f"dataset {i} {name}"
            errors += _check_interval(label, ci, z)
            if (ci["rho1"], ci["rho2"]) != (rho1, rho2):
                errors.append(f"{label}: budget ({ci['rho1']}, {ci['rho2']}) != split ({rho1}, {rho2})")
            ledger = _noise_ledger(name, ds["sizes"], ds["samples"], rho1, rho2)
            if ci["noise_variances"] != ledger:
                bad = sorted(k for k in ledger if ci["noise_variances"].get(k) != ledger[k])
                errors.append(f"{label}: noise variances differ from Delta^2/(2 rho) at {bad or 'labels'}")
    return errors


def check_release_desk(payload: dict) -> list[str]:
    """Releases, width-ratio reports, difference intervals and coverage of release-desk."""
    errors = check_releases(payload)
    alpha, split = payload["alpha"], payload["split"]
    z = z_value(alpha)
    datasets = payload["datasets"]
    covered = {name: 0 for name in MECHANISMS}
    for i, ds in enumerate(datasets):
        sizes, samples, positives = ds["sizes"], ds["samples"], ds["positives"]
        truth = sum(positives) / sum(sizes)
        rho1 = ds["rho"] * split
        rho2 = ds["rho"] - rho1
        for name in MECHANISMS:
            ci = ds["releases"][name]
            covered[name] += ci["lower"] <= truth <= ci["upper"]
        total = sum(sizes)
        wn2 = [(N / total / n) ** 2 for N, n in zip(sizes, samples)]
        report = ds["report"]
        for name, expected in (
            ("str-pub", sum(wn2) / (2.0 * (rho1 + rho2))),
            ("pop-pub", max(wn2) / (2.0 * rho1)),
        ):
            if not _close(report[name], expected, MEAN_RTOL):
                errors.append(f"dataset {i}: report v_ex[{name}] {report[name]!r} != {expected!r}")
    for j, pair in enumerate(payload["differences"]):
        a, b = (datasets[k]["releases"] for k in pair["pair"])
        for name in MECHANISMS:
            d = pair["intervals"][name]
            label = f"difference {j} {name}"
            errors += _check_interval(label, d, z)
            if d["variance"] != a[name]["variance"] + b[name]["variance"]:
                errors.append(f"{label}: variance {d['variance']!r} != sum of inputs")
            if d["point"] != a[name]["point"] - b[name]["point"]:
                errors.append(f"{label}: point {d['point']!r} != difference of inputs")
    lo, hi = coverage_band(alpha, len(datasets))
    for name in MECHANISMS:
        share = covered[name] / len(datasets)
        if not lo <= share <= hi:
            errors.append(f"{name}: coverage {share:.4f} of true proportions outside [{lo:.4f}, {hi:.4f}]")
    return errors
