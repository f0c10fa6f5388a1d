import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratci import (
    AlgorithmTag,
    ExperimentConfig,
    PrivacyBudget,
    StratumDesign,
    ValidationError,
    budget_ratio_private_vs_public,
    budget_ratio_stratum_vs_population,
    build_design,
    denominator_cv,
    derive_stream,
    extrinsic_variance,
    ratio_estimator_k2_moments,
    reciprocal_normal_moments,
    run_experiment,
    theoretical_width_ratio,
    width_ratio_lower_bound,
    width_ratio_report,
)

from stratci.analysis import mean_shift
from stratci.core import Design, _design_facts

from oracles import conditional_reciprocal_moments_quadrature, truncated_even_moment

STR_PUB = AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES
POP_PUB = AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES
STR_PRIV = AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES


class TestExtrinsicVariance:
    def test_single_stratum_value(self):
        design = build_design([(2000, 100)])
        v = extrinsic_variance(design, STR_PUB, PrivacyBudget.total(0.01))
        assert math.isclose(v, 5e-3, rel_tol=1e-15)

    def test_equal_weights_ratio_is_half_strata_count(self):
        # with equal sampling weights, stratum/population extrinsic ratio = H/2
        for H in (1, 4, 20):
            design = Design([StratumDesign(1000, 50)] * H)
            budget = PrivacyBudget.total(0.01)
            ratio = extrinsic_variance(design, STR_PUB, budget) / extrinsic_variance(
                design, POP_PUB, budget
            )
            assert math.isclose(ratio, H / 2.0, rel_tol=1e-12)

    def test_private_sizes_needs_proportions(self):
        design = build_design([(2000, 100)])
        with pytest.raises(ValidationError):
            extrinsic_variance(design, STR_PRIV, PrivacyBudget.total(0.01))
        v = extrinsic_variance(design, STR_PRIV, PrivacyBudget.total(0.01), (0.5,))
        expected = 1.0 / (2 * 0.005 * 100**2) + 0.25 / (2 * 0.005 * 100**2)
        assert math.isclose(v, expected, rel_tol=1e-12)

    @pytest.mark.parametrize("tag", [POP_PUB, STR_PRIV])
    @pytest.mark.parametrize("budget", [PrivacyBudget(0.0, 0.01), PrivacyBudget(0.01, 0.0)], ids=["rho1", "rho2"])
    @pytest.mark.parametrize("form", [extrinsic_variance, mean_shift])
    def test_split_mechanisms_need_both_parts(self, tag, budget, form):
        design = build_design([(2000, 100)])
        with pytest.raises(ValidationError, match="rho1 > 0 and rho2 > 0"):
            form(design, tag, budget, (0.5,))

    def test_non_mechanism_tag_named(self):
        design = build_design([(2000, 100)])
        with pytest.raises(ValidationError, match="DIFFERENCE is not a private release mechanism"):
            extrinsic_variance(design, AlgorithmTag.DIFFERENCE, PrivacyBudget.total(0.01))

    def test_non_finite_names_rho(self):
        design = build_design([(2000, 100)])
        with pytest.raises(ValidationError, match="rho 1e-320 is too small"):
            extrinsic_variance(design, STR_PUB, PrivacyBudget.total(1e-320))

    @pytest.mark.parametrize("form,tag,budget,cause", [
        (extrinsic_variance, POP_PUB, PrivacyBudget(1e-320, 0.01), "rho1 1e-320 is too small"),
        (extrinsic_variance, STR_PRIV, PrivacyBudget(0.01, 1e-320), "rho1 0.01 or rho2 1e-320 is too small"),
        (mean_shift, STR_PRIV, PrivacyBudget(0.01, 1e-320), "rho2 1e-320 is too small"),
    ], ids=["pop-pub", "str-priv", "str-priv shift"])
    def test_non_finite_names_the_budget_part_divided_by(self, form, tag, budget, cause):
        design = build_design([(2000, 100)])
        what = "extrinsic variance" if form is extrinsic_variance else "mean shift"
        with pytest.raises(ValidationError, match=f"^{cause}: the {tag.value} {what} is not finite$"):
            form(design, tag, budget, (0.5,))

    def test_non_private_is_zero(self):
        design = build_design([(2000, 100)])
        assert extrinsic_variance(design, AlgorithmTag.NON_PRIVATE, PrivacyBudget.total(1.0)) == 0.0


class TestBudgetRatios:
    def test_single_weight(self):
        assert budget_ratio_stratum_vs_population([20.0]) == 0.5

    def test_four_equal_weights(self):
        assert budget_ratio_stratum_vs_population([20.0] * 4) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            budget_ratio_stratum_vs_population([])

    def test_zero_proportions_give_two(self):
        assert budget_ratio_private_vs_public([20.0, 30.0], [0.0, 0.0]) == 2.0

    def test_unit_proportions_give_four(self):
        assert budget_ratio_private_vs_public([20.0, 30.0], [1.0, 1.0]) == 4.0

    @given(
        st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=200)
    def test_private_public_ratio_in_range(self, weights, data):
        props = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(weights),
                max_size=len(weights),
            )
        )
        r = budget_ratio_private_vs_public(weights, props)
        assert 2.0 <= r <= 4.0 + 1e-12

    def test_sampling_weights(self):
        design = build_design([(2000, 100), (1500, 75)])
        assert _design_facts(design).sampling_weights == (20.0, 20.0)


class TestWidthRatios:
    def test_lower_bounds_at_unit_n_rho(self):
        n, rho = 100, 0.01
        assert abs(width_ratio_lower_bound(n, rho, STR_PUB) - math.sqrt(3)) <= 1e-12
        assert abs(width_ratio_lower_bound(n, rho, POP_PUB) - math.sqrt(5)) <= 1e-12
        assert abs(
            width_ratio_lower_bound(n, rho, STR_PRIV) - math.sqrt(3 + 2 * math.sqrt(2))
        ) <= 1e-12

    def test_no_noise_limit(self):
        for tag in (STR_PUB, POP_PUB, STR_PRIV):
            twr = theoretical_width_ratio(2000, 152, 0.5, 1e12, tag)
            assert abs(twr - 1.0) <= 1e-9

    def test_frozen_values_at_table_regime(self):
        # N=2000, n=152, p=0.5, rho=1/152; cross-checked against the
        # simulated one-stratum width ratios (1.786 / 2.318 / 2.567)
        rho = 1.0 / 152
        twr = theoretical_width_ratio(2000, 152, 0.5, rho, STR_PUB)
        assert math.isclose(twr, 1.77860054915, rel_tol=1e-10)
        assert abs(twr - 1.786) < 0.01
        assert math.isclose(
            theoretical_width_ratio(2000, 152, 0.5, rho, POP_PUB), 2.30799476317, rel_tol=1e-10
        )
        assert math.isclose(
            theoretical_width_ratio(2000, 152, 0.5, rho, STR_PRIV), 2.5315113635, rel_tol=1e-10
        )

    @given(
        st.integers(min_value=3, max_value=10**6),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1e-6, max_value=10.0),
        st.sampled_from([STR_PUB, POP_PUB, STR_PRIV]),
    )
    @settings(max_examples=300)
    def test_ratio_dominates_bound(self, n, p, rho, tag):
        N = 100 * n
        twr = theoretical_width_ratio(N, n, p, rho, tag)
        assert twr >= width_ratio_lower_bound(n, rho, tag) - 1e-12
        assert twr >= 1.0

    def test_decreasing_in_rho(self):
        rhos = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        for tag in (STR_PUB, POP_PUB, STR_PRIV):
            vals = [theoretical_width_ratio(2000, 100, 0.4, r, tag) for r in rhos]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bound_attained_in_large_population_limit(self):
        # attaining p is 1/2 for public-sizes noise, sqrt(2)-1 for private sizes
        N, n, rho = 10**9, 100, 0.01
        for tag, p_star in (
            (STR_PUB, 0.5),
            (POP_PUB, 0.5),
            (STR_PRIV, math.sqrt(2) - 1.0),
        ):
            twr = theoretical_width_ratio(N, n, p_star, rho, tag)
            bound = width_ratio_lower_bound(n, rho, tag)
            assert abs(twr - bound) <= 1e-6

    def test_degenerate_p_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValidationError):
                theoretical_width_ratio(2000, 100, p, 0.01, STR_PUB)


class TestWidthRatioLimit:
    """The paper's asymptotic claim at one stratum: each mechanism's simulated mean width ratio tends to
    theoretical_width_ratio as n grows at fixed n rho (N = 20 n, p = 0.3, even split, no clip).

    The gap stays positive and a few SE wide at n = 2560, since a mean of ratios is not a ratio of standard
    deviations, so the test gates on its decay, about O(1/n): each 4x step in n must cut every absolute gap
    by 2x or more, and the n = 40 gap must be 10x the n = 2560 gap or more.  At 10 000 repetitions the
    smallest step and end-to-end factors read 3.04 and 46 at base seed 5, and 3.00 and 39 at base seed 6.
    """

    SIZES = (40, 160, 640, 2560)

    def test_mean_width_ratio_approaches_theory(self):
        for n_rho in (1.0, 0.25):
            gaps = {tag: [] for tag in (STR_PUB, POP_PUB, STR_PRIV)}
            for n in self.SIZES:
                config = ExperimentConfig(
                    alpha=0.1, stratum_size=20 * n, rate=0.05, proportion=0.3, rho=n_rho / n, split=0.5,
                    repetitions=10_000, base_seed=5,
                )
                summary = run_experiment(config)
                assert summary.sample_sizes == (n,)
                for tag, result in summary.by_algorithm:
                    if tag in gaps:
                        theory = theoretical_width_ratio(20 * n, n, summary.true_proportion, summary.rho, tag)
                        gaps[tag].append(abs(result.mean_width_ratio - theory))
            for tag, gap in gaps.items():
                assert all(a >= 2.0 * b for a, b in zip(gap, gap[1:])), (n_rho, tag, gap)
                assert gap[0] >= 10.0 * gap[-1], (n_rho, tag, gap)


class TestReciprocalMoments:
    def test_sigma_to_zero_limits(self):
        for k in (0, 1, 2, 3):
            series = reciprocal_normal_moments(50.0, 1e-8, k)
            assert math.isclose(series.mean, 1.0 / 50.0, rel_tol=1e-12)
            assert math.isclose(series.second_moment, 1.0 / 2500.0, rel_tol=1e-12)

    def test_frozen_k2_values(self):
        series = reciprocal_normal_moments(100.0, 2.0, 2)
        assert math.isclose(series.mean, 0.0100040048, rel_tol=1e-14)
        assert math.isclose(series.second_moment, 1.0012024e-4, rel_tol=1e-14)
        assert math.isclose(series.error_order, (2.0 / 100.0) ** 6, rel_tol=1e-14)

    def test_against_quadrature_oracle(self):
        mu, sigma, k = 100.0, 5.0, 2
        series = reciprocal_normal_moments(mu, sigma, k)
        q_mean, q_second = conditional_reciprocal_moments_quadrature(mu, sigma)
        bound = 10.0 * (sigma / mu) ** (2 * k + 2)
        assert abs(series.mean - q_mean) <= bound
        assert abs(series.second_moment - q_second) <= bound

    def test_monotone_refinement(self):
        # fixed (mu, sigma) with sigma/mu < 0.2: error shrinks as k = 0..4
        gen = derive_stream(71, [0]).generator()
        for _ in range(10):
            mu = float(gen.uniform(200.0, 500.0))
            ratio = float(gen.uniform(0.02, 0.18))
            sigma = ratio * mu
            q_mean, q_second = conditional_reciprocal_moments_quadrature(mu, sigma)
            prev_mean = prev_second = math.inf
            for k in range(5):
                series = reciprocal_normal_moments(mu, sigma, k)
                err_mean = abs(series.mean - q_mean)
                err_second = abs(series.second_moment - q_second)
                bound = 10.0 * ratio ** (2 * k + 2)
                assert err_mean <= min(prev_mean, bound)
                assert err_second <= min(prev_second, bound)
                prev_mean, prev_second = err_mean, err_second

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            reciprocal_normal_moments(0.9, 1.0, 2)
        with pytest.raises(ValidationError):
            reciprocal_normal_moments(10.0, 0.0, 2)
        with pytest.raises(ValidationError):
            conditional_reciprocal_moments_quadrature(1.0, 1.0)


class TestQuadratureOracle:
    def test_sigma_to_zero_limit(self):
        for mu in (2.0, 10.0, 101.7):
            mean, second = conditional_reciprocal_moments_quadrature(mu, mu * 1e-7)
            assert abs(mean - 1.0 / mu) <= 1e-10
            assert abs(second - 1.0 / mu**2) <= 1e-10


class TestTruncatedEvenMoment:
    def test_untruncated_limits(self):
        sigma = 1.7
        assert math.isclose(truncated_even_moment(0.0, sigma, 100 * sigma, 1), sigma**2, rel_tol=1e-10)
        assert math.isclose(
            truncated_even_moment(0.0, sigma, 100 * sigma, 2), 3 * sigma**4, rel_tol=1e-10
        )

    def test_frozen_five_sigma_value(self):
        # closed form: 1 - (2a/sqrt(2 pi)) e^{-a^2/2} / erf(a/sqrt 2) at a=5
        v = truncated_even_moment(0.0, 1.0, 5.0, 1)
        assert math.isclose(v, 0.9999851327963293, abs_tol=1e-12)

    def test_boundary_term_scale(self):
        # |quadrature - sigma^{2k}(2k-1)!!| = O(e^{-a^2/2sigma^2} a^{2k-1})
        sigma = 1.0
        for a, k in ((5.0, 1), (5.0, 2), (6.0, 1)):
            v = truncated_even_moment(0.0, sigma, a, k)
            leading = sigma ** (2 * k) * math.prod(range(2 * k - 1, 0, -2))
            bound = 10.0 * math.exp(-(a**2) / (2 * sigma**2)) * a ** (2 * k - 1)
            assert abs(v - leading) <= bound

    def test_mean_location_irrelevant(self):
        assert truncated_even_moment(0.0, 1.0, 4.0, 1) == truncated_even_moment(37.0, 1.0, 4.0, 1)


class TestRatioEstimatorMoments:
    def test_no_denominator_noise_limit(self):
        mean, _ = ratio_estimator_k2_moments(0.4, 100, 2000, 0.05, 1e12)
        assert math.isclose(mean, 0.4, rel_tol=1e-12)

    def test_frozen_bias_term(self):
        p, n, rho2 = 0.5, 152, 1.0 / 304
        x = 1.0 / (2 * n * n * rho2)
        assert math.isclose(p * x, 3.289473684210526e-3, rel_tol=1e-12)
        mean, _ = ratio_estimator_k2_moments(p, n, 2000, 1.0 / 304, rho2)
        # leading bias dominates; the k=2 refinement adds 3 p x^2
        assert math.isclose(mean - p, p * x + 3 * p * x * x, rel_tol=1e-12)

    def test_variance_against_monte_carlo(self):
        # 1e6 draws of (c + e1)/(n + e2) conditioned on the symmetric size event
        p, n, N = 0.5, 100, 2000
        rho1 = rho2 = 0.05
        gen = derive_stream(81, [0]).generator()
        reps = 10**6
        c = gen.hypergeometric(N // 2, N // 2, n, size=reps)
        c_noisy = c + gen.normal(0.0, math.sqrt(1 / (2 * rho1)), size=reps)
        n_noisy = n + gen.normal(0.0, math.sqrt(1 / (2 * rho2)), size=reps)
        keep = (n_noisy >= 1.0) & (n_noisy <= 2 * n - 1)
        ratios = c_noisy[keep] / n_noisy[keep]
        _, approx_var = ratio_estimator_k2_moments(p, n, N, rho1, rho2)
        mc_var = float(np.var(ratios))
        assert abs(mc_var - approx_var) <= 0.05 * approx_var

    @pytest.mark.parametrize("p", [0.5, 0.0])
    def test_past_the_expansion_range_blames_rho2(self, p):
        # x = 1/(2 n^2 rho2) = 125, where even - odd^2 is far below 0 and the variance would be about -5.5e8.
        with pytest.raises(ValidationError, match=r"^rho2 0\.001 is too small for n = 2: x = 1/\(2 n\^2 rho2\) = 125 "):
            ratio_estimator_k2_moments(p, 2, 2000, 0.1, 0.001)

    def test_up_to_the_root_the_variance_is_nonnegative(self):
        # x = 0.739 is just below the root of 9x^3 + 6x^2 - 8x - 1; 0.74 is just past it.
        for n in (2, 10, 152):
            assert ratio_estimator_k2_moments(1.0, n, 2000, 1e12, 1.0 / (2 * n * n * 0.739))[1] >= 0.0
            with pytest.raises(ValidationError, match="^rho2 "):
                ratio_estimator_k2_moments(1.0, n, 2000, 1e12, 1.0 / (2 * n * n * 0.74))

    def test_cv_helper(self):
        assert math.isclose(denominator_cv(100, 0.05), math.sqrt(10.0) / 100, rel_tol=1e-15)


class TestWidthRatioReport:
    def test_single_stratum_report(self):
        design = build_design([(2000, 152)])
        report = width_ratio_report(design, PrivacyBudget.total(1.0 / 152), (0.5,))
        assert len(report.width_ratios) == 3
        assert len(report.lower_bounds) == 3
        assert report.ratio_stratum_vs_population == 0.5
        twr = dict(report.width_ratios)
        assert math.isclose(twr[STR_PUB], 1.77860054915, rel_tol=1e-9)

    def test_multi_stratum_report_omits_twr(self):
        design = build_design([(2000, 100), (1500, 75)])
        report = width_ratio_report(design, PrivacyBudget.total(0.01), (0.4, 0.6))
        assert report.width_ratios == ()
        assert report.ratio_private_vs_public is not None

    @pytest.mark.parametrize("sizes,p", [((100, 100), 0.5), ((2000, 152), 0.0), ((2000, 152), 1.0)])
    def test_zero_sampling_variance_omits_twr(self, sizes, p):
        # A census or a 0/1 proportion has Var(p_hat) = 0, so no width ratio.
        report = width_ratio_report(build_design([sizes]), PrivacyBudget.total(0.01), (p,))
        assert report.width_ratios == () and report.lower_bounds == ()
        assert len(report.extrinsic_variances) == 3
        assert all(math.isfinite(v) for _, v in report.extrinsic_variances)

    def test_report_without_proportions(self):
        design = build_design([(2000, 100)])
        report = width_ratio_report(design, PrivacyBudget.total(0.01))
        assert report.ratio_private_vs_public is None
        tags = [tag for tag, _ in report.extrinsic_variances]
        assert STR_PRIV not in tags
