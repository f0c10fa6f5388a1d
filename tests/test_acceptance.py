"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  Monte-Carlo tolerances follow the coverage standard-error
rule (nominal +/- 2 sqrt(alpha(1-alpha)/R)) or the stated band; every run is
seeded and deterministic.
"""

import math
import sys
import time

import numpy as np

from stratci import (
    AlgorithmTag,
    ExperimentConfig,
    PrivacyBudget,
    Population,
    StratumCounts,
    Uniform,
    build_design,
    derive_stream,
    difference_ci,
    draw_sample,
    exact_stratum_variance,
    non_private_ci,
    population_noise_public_sizes,
    reciprocal_normal_moments,
    rho_sweep,
    run_experiment,
    sensitivities,
    stratum_noise_private_sizes,
    stratum_noise_public_sizes,
    theoretical_width_ratio,
    wald_interval,
    width_ratio_lower_bound,
)
from stratci.cli import main
from stratci.randomness import gaussian

import oracles
from oracles import conditional_reciprocal_moments_quadrature

NON = AlgorithmTag.NON_PRIVATE
STR_PUB = AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES
POP_PUB = AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES
STR_PRIV = AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES
ALL_TAGS = (NON, STR_PUB, POP_PUB, STR_PRIV)


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    if sys.stdout is not sys.__stdout__:  # visible even when pytest captures output
        print(f"\n{line}", file=sys.__stdout__)
    assert ok, f"{criterion}: {detail}"


def test_c1_one_stratum_benchmark():
    """One stratum, n=152, p=0.5, rho=1/152: widths and coverage at 10k reps."""
    config = ExperimentConfig(
        alpha=0.1, strata=1, stratum_size=2000, rate=0.076, proportion=0.5,
        rho=1.0 / 152, split=0.5, algorithms=ALL_TAGS,
        repetitions=10000, base_seed=20240601, clip_proportions=True,
    )
    started = time.perf_counter()
    summary = run_experiment(config)
    elapsed = time.perf_counter() - started
    rows = dict(summary.by_algorithm)
    targets = {NON: (0.127, 0.01), STR_PUB: (0.228, 0.01), POP_PUB: (0.295, 0.01), STR_PRIV: (0.327, 0.02)}
    details = []
    ok = elapsed <= 60.0
    details.append(f"runtime {elapsed:.1f}s (limit 60s)")
    for tag, (target, tol) in targets.items():
        row = rows[tag]
        width_ok = abs(row.mean_width - target) <= tol
        cover_ok = 0.885 <= row.coverage <= 0.915
        ok = ok and width_ok and cover_ok
        details.append(
            f"{tag.value}: width {row.mean_width:.4f} (target {target}+/-{tol}), "
            f"coverage {row.coverage:.4f}"
        )
    _report("C1", ok, "; ".join(details))


def test_c2_twenty_strata_width_ratios():
    """Twenty heterogeneous strata, rho = 1/max(n_h): width ratios within 15%."""
    config = ExperimentConfig(
        alpha=0.1, strata=20, stratum_size=Uniform(1500, 2000),
        rate=Uniform(0.04, 0.08), proportion=Uniform(0.4, 0.6),
        rho="1/max_n", split=0.5, algorithms=ALL_TAGS,
        repetitions=10000, base_seed=1, clip_proportions=True,
    )
    summary = run_experiment(config)
    rows = dict(summary.by_algorithm)
    targets = {STR_PUB: 2.074, POP_PUB: 1.239, STR_PRIV: 3.168}
    details = [f"true p {summary.true_proportion:.4f}, rho {summary.rho:.5f}"]
    ok = True
    for tag, target in targets.items():
        row = rows[tag]
        wr_ok = abs(row.mean_width_ratio - target) <= 0.15 * target
        ok = ok and wr_ok
        details.append(f"{tag.value}: WR {row.mean_width_ratio:.3f} (target {target}+/-15%)")
    for tag in ALL_TAGS:
        cover_ok = 0.885 <= rows[tag].coverage <= 0.92
        ok = ok and cover_ok
        details.append(f"{tag.value} coverage {rows[tag].coverage:.4f}")
    _report("C2", ok, "; ".join(details))


def test_c3_width_ratio_lower_bounds():
    """Bound identities at n*rho = 1 and dominance over a 1000-point grid."""
    n, rho = 100, 0.01
    identities = (
        (STR_PUB, math.sqrt(3.0)),
        (POP_PUB, math.sqrt(5.0)),
        (STR_PRIV, math.sqrt(3.0 + 2.0 * math.sqrt(2.0))),
    )
    ok = True
    details = []
    for tag, expected in identities:
        bound = width_ratio_lower_bound(n, rho, tag)
        ok = ok and abs(bound - expected) <= 1e-12
        details.append(f"{tag.value} bound {bound:.12f} vs {expected:.12f}")
    gen = derive_stream(33, [0]).generator()
    violations = 0
    for _ in range(1000):
        n = int(gen.integers(3, 100000))
        N = n * int(gen.integers(2, 1000))
        p = float(gen.uniform(0.001, 0.999))
        rho = float(10.0 ** gen.uniform(-6, 1))
        tag = (STR_PUB, POP_PUB, STR_PRIV)[int(gen.integers(0, 3))]
        twr = theoretical_width_ratio(N, n, p, rho, tag)
        if twr < width_ratio_lower_bound(n, rho, tag) - 1e-12:
            violations += 1
    ok = ok and violations == 0
    details.append(f"{violations} bound violations over 1000 random designs")
    _report("C3", ok, "; ".join(details))


def test_c4_reciprocal_moment_series_vs_quadrature():
    """Series-vs-oracle error within 10 (sigma/mu)^(2k+2) for both moments."""
    # oracle sanity at the sigma -> 0 limit first
    ok = True
    worst_limit = 0.0
    for mu in (2.0, 10.0, 101.7, 400.0):
        mean, second = conditional_reciprocal_moments_quadrature(mu, mu * 1e-7)
        worst_limit = max(worst_limit, abs(mean - 1.0 / mu), abs(second - 1.0 / mu**2))
    ok = ok and worst_limit <= 1e-10

    gen = derive_stream(44, [0]).generator()
    worst_margin = math.inf
    checked = 0
    for _ in range(50):
        mu = float(gen.uniform(50.0, 500.0))
        ratio = float(gen.uniform(0.01, 0.2))
        sigma = ratio * mu
        q_mean, q_second = conditional_reciprocal_moments_quadrature(mu, sigma)
        for k in (0, 1, 2, 3):
            series = reciprocal_normal_moments(mu, sigma, k)
            bound = 10.0 * ratio ** (2 * k + 2)
            err = max(abs(series.mean - q_mean), abs(series.second_moment - q_second))
            worst_margin = min(worst_margin, bound - err)
            checked += 1
            ok = ok and err <= bound
    _report(
        "C4",
        ok,
        f"sigma->0 oracle deviation {worst_limit:.2e} (limit 1e-10); "
        f"{checked} series/oracle checks, slackest margin {worst_margin:.2e}",
    )


def test_c5_bias_correction_property():
    """E[p~(1-p~) + 1/(2 rho n^2)] = p^(1-p^) at 1e6 draws, 10 parameterizations."""
    gen = derive_stream(55, [0]).generator()
    ok = True
    worst_sigmas = 0.0
    for i in range(10):
        n = int(gen.integers(10, 500))
        c = int(gen.integers(0, n + 1))
        rho = float(10.0 ** gen.uniform(-4, 0))
        p_hat = c / n
        s2 = (1.0 / n) ** 2 / (2.0 * rho)
        noise = gaussian(derive_stream(55, [1, i]), 0.0, s2, size=10**6)
        p_tilde = p_hat + noise
        vals = p_tilde * (1.0 - p_tilde) + s2
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        deviation = abs(float(np.mean(vals)) - p_hat * (1.0 - p_hat))
        worst_sigmas = max(worst_sigmas, deviation / se)
        ok = ok and deviation <= 4.0 * se
    _report("C5", ok, f"10 parameterizations at 1e6 draws; worst deviation {worst_sigmas:.2f} sigma (limit 4)")


def test_c6_noise_scale_audit():
    """Recorded noise variances match Delta^2/(2 rho) exactly; output variances match the closed forms within 5% at 1e6 draws."""
    N, n, p = 2000, 100, 0.5
    design = build_design([(N, n)])
    population = Population((N,), (N // 2,))
    rho_total = 0.05
    single = PrivacyBudget.total(rho_total)  # used unsplit by the stratum mechanism
    split = PrivacyBudget.total(rho_total)   # rho1 = rho2 = 0.025
    counts0 = StratumCounts((50,))

    # exact ledger equality of recorded noise variances
    delta_p = 1.0 / n
    ci1, rel1 = stratum_noise_public_sizes(derive_stream(0, [0]), design, counts0, single, 0.1)
    exact_ok = rel1[0].proportion_noise_variance == delta_p * delta_p / (2.0 * single.rho)
    sens = sensitivities(design)
    ci2, _ = population_noise_public_sizes(derive_stream(0, [0]), design, counts0, split, 0.1)
    recorded = dict(ci2.noise_variances)
    exact_ok = exact_ok and recorded["population_proportion"] == sens.proportion * sens.proportion / (2.0 * split.rho1)
    exact_ok = exact_ok and recorded["variance_estimate"] == sens.variance * sens.variance / (2.0 * split.rho2)
    ci3, rel3 = stratum_noise_private_sizes(derive_stream(0, [0]), design, counts0, split, 0.1)
    exact_ok = exact_ok and rel3[0].count_noise_variance == 1.0 / (2.0 * split.rho1)
    exact_ok = exact_ok and rel3[0].size_noise_variance == 1.0 / (2.0 * split.rho2)

    # Monte-Carlo output variance of each mechanism under resampling
    reps = 10**6
    var_phat = exact_stratum_variance(design[0], p)
    expected = {
        STR_PUB: var_phat + 1.0 / (2.0 * rho_total * n * n),
        POP_PUB: var_phat + delta_p**2 / (2.0 * split.rho1),
        STR_PRIV: var_phat + 1.0 / (2.0 * split.rho1 * n * n) + p * p / (2.0 * split.rho2 * n * n),
    }
    sample_gen = derive_stream(66, [0]).generator()
    all_counts = sample_gen.hypergeometric(N // 2, N // 2, n, size=reps)
    details = [f"exact ledger equality: {exact_ok}"]
    ok = exact_ok
    for tag, runner in (
        (STR_PUB, lambda s, c: stratum_noise_public_sizes(s, design, c, single, 0.1)[0]),
        (POP_PUB, lambda s, c: population_noise_public_sizes(s, design, c, split, 0.1)[0]),
        (STR_PRIV, lambda s, c: stratum_noise_private_sizes(s, design, c, split, 0.1)[0]),
    ):
        points = np.empty(reps)
        for i in range(reps):
            ci = runner(derive_stream(66, [1, i]), StratumCounts((int(all_counts[i]),)))
            points[i] = ci.point_estimate
        observed = float(np.var(points))
        rel_err = abs(observed - expected[tag]) / expected[tag]
        ok = ok and rel_err <= 0.05
        details.append(f"{tag.value}: Var(p~) {observed:.3e} vs {expected[tag]:.3e} ({rel_err * 100:.2f}%)")
    _report("C6", ok, "; ".join(details))


def test_c7_no_noise_limit():
    """Every mechanism at rho = 1e12 agrees with its noiseless interval to 1e-5."""
    huge = PrivacyBudget.total(1e12)
    worst = 0.0
    for sizes, counts in (
        ([(2000, 100)], (50,)),
        ([(1500, 60), (1800, 90), (2500, 130)], (20, 33, 70)),
    ):
        design = build_design(sizes)
        sc = StratumCounts(counts)
        baseline = non_private_ci(design, sc, 0.1)
        ci1, _ = stratum_noise_public_sizes(derive_stream(7, [0]), design, sc, huge, 0.1)
        ci2, _ = population_noise_public_sizes(derive_stream(7, [0]), design, sc, huge, 0.1)
        p_hats = [c / s.sample_size for s, c in zip(design, counts)]
        exact_var = sum(
            w**2 * exact_stratum_variance(s, ph) for w, s, ph in zip(oracles.weights(design), design, p_hats)
        )
        exact_baseline = wald_interval(baseline.point_estimate, exact_var, 0.1)
        ci3, _ = stratum_noise_private_sizes(derive_stream(7, [0]), design, sc, huge, 0.1)
        for got, want in ((ci1, baseline), (ci2, baseline), (ci3, exact_baseline)):
            worst = max(worst, abs(got.lower - want.lower), abs(got.upper - want.upper))
    _report("C7", worst <= 1e-5, f"worst endpoint deviation {worst:.2e} (limit 1e-5)")


def test_c8_determinism(tmp_path, capsys):
    """Identical seeds give byte-identical outputs; execution order is invisible."""
    cfg_text = (
        "alpha = 0.1\nstrata = 2\nstratum_size = uniform(1500, 2000)\n"
        "rate = uniform(0.04, 0.08)\nproportion = uniform(0.4, 0.6)\n"
        "rho = 0.01\nalgorithms = nonprivate, str-pub, pop-pub, str-priv\n"
        "repetitions = 30\nbase_seed = 5\nclip_proportions = true\nemit_reps = true\n"
    )
    cfg = tmp_path / "det.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        outs.append(
            ((out_dir / "summary.json").read_bytes(), (out_dir / "reps.csv").read_bytes())
        )
    sim_ok = outs[0] == outs[1]

    data = tmp_path / "in.csv"
    data.write_text("stratum_id,N_h,n_h,c_h\n1,2000,100,50\n")
    ci_outs = []
    for _ in range(2):
        main(["ci", "--input", str(data), "--algorithm", "str-priv", "--rho", "0.02", "--seed", "3"])
        ci_outs.append(capsys.readouterr().out)
    ci_ok = ci_outs[0] == ci_outs[1]

    config = ExperimentConfig(
        alpha=0.1, strata=1, stratum_size=2000, rate=0.076, proportion=0.5,
        rho=0.01, algorithms=ALL_TAGS, repetitions=64, base_seed=11,
        clip_proportions=True,
    )
    natural = run_experiment(config, keep_records=True)
    order = list(np.random.default_rng(2).permutation(64))
    permuted = run_experiment(config, rep_order=order, keep_records=True)
    perm_ok = natural == permuted
    _report(
        "C8",
        sim_ok and ci_ok and perm_ok,
        f"simulate byte-identical: {sim_ok}; ci byte-identical: {ci_ok}; "
        f"repetition order invisible: {perm_ok}",
    )


def test_c9_rho_sweep_monotonics():
    """Widths shrink as rho grows; coverage stays in band except the documented
    small-rho over-coverage of the private-sizes mechanism.  That over-coverage
    is measured with no clipping too: at one stratum and n rho = 0.25 it covers
    0.9307 at n = 40 and 0.9101 at n = 160."""
    config = ExperimentConfig(
        alpha=0.1, strata=20, stratum_size=Uniform(1500, 2000),
        rate=Uniform(0.04, 0.08), proportion=Uniform(0.4, 0.6),
        rho=0.01, split=0.5, algorithms=ALL_TAGS,
        repetitions=4000, base_seed=1, clip_proportions=True,
    )
    grid = (0.002, 0.005, 0.01, 0.03, 0.1, 0.5)
    results = rho_sweep(config, grid)
    R = config.repetitions
    ok = True
    details = []
    for tag in (STR_PUB, POP_PUB, STR_PRIV):
        widths = [dict(s.by_algorithm)[tag].mean_width for _, s in results]
        ses = [dict(s.by_algorithm)[tag].width_sd / math.sqrt(R) for _, s in results]
        decreasing = all(
            widths[i] > widths[i + 1] - 2.0 * (ses[i] + ses[i + 1])
            for i in range(len(widths) - 1)
        )
        ok = ok and decreasing
        details.append(f"{tag.value} widths {['%.3f' % w for w in widths]} decreasing: {decreasing}")
    over_coverage_seen = False
    for rho, summary in results:
        for tag in ALL_TAGS:
            cov = dict(summary.by_algorithm)[tag].coverage
            if tag is STR_PRIV and rho <= 0.005:
                # str-priv over-covers at small rho: upward excursions expected, never undershoot
                in_band = cov >= 0.885
                over_coverage_seen = over_coverage_seen or cov > 0.915
            else:
                in_band = 0.885 <= cov <= 0.915
            if not in_band:
                details.append(f"coverage out of band: {tag.value} at rho={rho}: {cov:.4f}")
            ok = ok and in_band
    ok = ok and over_coverage_seen
    details.append(f"documented small-rho over-coverage observed: {over_coverage_seen}")
    _report("C9", ok, "; ".join(details))


def test_c10_difference_ci_coverage():
    """Two synthetic populations: the difference interval covers the true gap ~90%."""
    # true proportions mirror the income application: 49.0223% vs 29.5152%
    pop_a = Population((10**6,), (490223,))
    pop_b = Population((10**6,), (295152,))
    true_diff = pop_a.proportion - pop_b.proportion
    assert math.isclose(true_diff, 0.195071, rel_tol=1e-12)
    budget = PrivacyBudget.total(0.05)
    rate = (0.001,)  # n = 1000 per population
    reps = 10000
    covered = 0
    for r in range(reps):
        stream = derive_stream(77, [r])
        design_a, counts_a = draw_sample(stream.child(0), pop_a, rate)
        design_b, counts_b = draw_sample(stream.child(1), pop_b, rate)
        ci_a, _ = stratum_noise_public_sizes(stream.child(2), design_a, counts_a, budget, 0.1)
        ci_b, _ = stratum_noise_public_sizes(stream.child(3), design_b, counts_b, budget, 0.1)
        diff = difference_ci(ci_a, ci_b, 0.1)
        covered += diff.lower <= true_diff <= diff.upper
    coverage = covered / reps
    ok = 0.885 <= coverage <= 0.915
    _report("C10", ok, f"difference-CI coverage {coverage:.4f} of true gap {true_diff:.6f} (band [0.885, 0.915])")
