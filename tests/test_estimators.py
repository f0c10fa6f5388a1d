import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratci import (
    StratumCounts,
    ValidationError,
    build_design,
    derive_stream,
    exact_stratum_variance,
    non_private_ci,
    sample_proportions,
    wald_interval,
)
from stratci.core import ordered_sum
from stratci.estimators import _wald_block

import oracles


class TestProportions:
    def test_single_stratum_ratio(self):
        design = build_design([(2000, 100)])
        p, per = sample_proportions(design, StratumCounts((50,)))
        assert p == 0.5
        assert per == (0.5,)

    def test_symmetric_two_strata(self):
        design = build_design([(1000, 100), (1000, 100)])
        assert oracles.weights(design) == (0.5, 0.5)
        p, _ = sample_proportions(design, StratumCounts((40, 60)))
        assert p == 0.5

    def test_weighted_two_strata(self):
        # w=(0.75,0.25), p_h=(0.3,0.2) -> 0.275
        design = build_design([(3000, 100), (1000, 50)])
        assert oracles.weights(design) == (0.75, 0.25)
        p, per = sample_proportions(design, StratumCounts((30, 10)))
        assert per == (0.3, 0.2)
        assert math.isclose(p, 0.275, rel_tol=1e-15)

    def test_mismatched_lengths(self):
        design = build_design([(2000, 100)])
        with pytest.raises(ValidationError):
            sample_proportions(design, StratumCounts((10, 20)))

    def test_aggregation_identities(self):
        design = build_design([(1500, 60), (1800, 90), (2000, 150)])
        counts = StratumCounts((10, 45, 75))
        p, per = sample_proportions(design, counts)
        ci = non_private_ci(design, counts, 0.1)
        w = oracles.weights(design)
        assert p == ci.point_estimate == ordered_sum(x * q for x, q in zip(w, per))
        assert ci.variance_estimate == ordered_sum(
            x**2 * v for x, v in zip(w, oracles.non_private_estimate(design, counts).stratum_variances)
        )

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(
        st.integers(2, 10**6).flatmap(lambda N: st.tuples(st.just(N), st.integers(2, min(N, 5000)), st.floats(0.0, 1.0))),
        min_size=1, max_size=50,
    ))
    def test_matches_per_stratum_functions(self, rows):
        # The estimate reads its per-stratum factors from the design; it must
        # give the bits of c_h / n_h and of the oracle's per-stratum variances,
        # the same on a Design as on a plain list, and the same on the second call.
        design = build_design([(N, n) for N, n, _ in rows])
        counts = StratumCounts(tuple(round(u * n) for _, n, u in rows))
        per_stratum = tuple(c / s.sample_size for s, c in zip(design, counts.counts))
        variances = oracles.non_private_estimate(design, counts).stratum_variances
        w = oracles.weights(design)
        point = ordered_sum(x * p for x, p in zip(w, per_stratum))
        for layout in (design, design, list(design)):
            assert repr(sample_proportions(layout, counts)) == repr((point, per_stratum))
            ci = non_private_ci(layout, counts, 0.1)
            assert repr(ci.point_estimate) == repr(point)
            assert repr(ci.variance_estimate) == repr(ordered_sum(x**2 * v for x, v in zip(w, variances)))


class TestBlockBaseline:
    """The block baseline must give non_private_ci's bits, column by column."""

    # (N_h, n_h): census strata (n_h = N_h, fpc 0) among sampled ones.
    _STRATUM = st.one_of(
        st.integers(2, 5000).map(lambda N: (N, N)),
        st.integers(2, 10**6).flatmap(lambda N: st.tuples(st.just(N), st.integers(2, min(N, 5000)))),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(_STRATUM, min_size=1, max_size=50),
        width=st.one_of(st.just(1), st.integers(1, 300)),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(1e-12, 0.999, exclude_min=True, exclude_max=True),
        clip=st.booleans(),
    )
    def test_matches_scalar_ci(self, sizes, width, seed, alpha, clip):
        design = build_design(sizes)
        n = np.array([[s.sample_size] for s in design])
        # Counts of 0 and of n_h are each about a quarter of the draws.
        rng = np.random.default_rng(seed)
        counts = np.where(rng.random((len(design), width)) < 0.5, n * rng.integers(0, 2, (len(design), width)),
                          rng.integers(0, n + 1, (len(design), width)))
        (lower, upper, point), _ = _wald_block(design, np.ascontiguousarray(counts, dtype=np.int64), alpha, clip)
        expected = []
        for column in counts.T.tolist():
            ci = non_private_ci(design, StratumCounts(tuple(column)), alpha)
            ci = ci.clip_to_unit_interval() if clip else ci
            expected.append((ci.lower, ci.upper, ci.point_estimate))
        assert repr(list(zip(lower.tolist(), upper.tolist(), point.tolist()))) == repr(expected)

    @pytest.mark.parametrize("alpha", [0.0, 1e-17])
    def test_rejected_alpha_keeps_scalar_message(self, alpha):
        design = build_design([(2000, 100), (500, 500)])
        with pytest.raises(ValidationError) as scalar:
            non_private_ci(design, StratumCounts((50, 7)), alpha)
        with pytest.raises(ValidationError) as block:
            _wald_block(design, np.array([[50], [7]]), alpha, False)
        assert str(block.value) == str(scalar.value)

    @pytest.mark.parametrize("count", [-1, 101])
    def test_count_outside_sample_rejected(self, count):
        # No drawn count is; a census stratum (fpc 0) would otherwise hide it in the variance.
        design = build_design([(2000, 100), (500, 500)])
        with pytest.raises(ValidationError, match=r"each count must lie in \[0, n_h\]"):
            _wald_block(design, np.array([[50, count], [7, 7]]), 0.1, False)


def _stratum_variance(design, count):
    """V_hat of a one-stratum design (w = 1): its stratum's variance estimate at p_hat = count / n."""
    return non_private_ci(design, StratumCounts((count,)), 0.1).variance_estimate


class TestStratumVariance:
    def test_zero_at_boundaries(self):
        design = build_design([(2000, 100)])
        assert _stratum_variance(design, 0) == 0.0
        assert _stratum_variance(design, 100) == 0.0

    def test_census_kills_variance(self):
        design = build_design([(100, 100)])
        assert _stratum_variance(design, 50) == 0.0

    def test_frozen_value(self):
        design = build_design([(2000, 100)])
        v = _stratum_variance(design, 50)
        assert math.isclose(v, 0.95 * 0.25 / 99, rel_tol=1e-15)
        assert math.isclose(v, 2.398989898989899e-3, rel_tol=1e-12)

    def test_zero_iff_degenerate(self):
        design = build_design([(2000, 100)])
        for count in (10, 50, 90):
            assert _stratum_variance(design, count) > 0.0

    def test_estimator_vs_exact_form_differ(self):
        # the estimator divides by N and n-1; the exact design variance by
        # N-1 and n -- keeping them separate avoids the classic FPC mix-up
        design = build_design([(2000, 100)])
        est = _stratum_variance(design, 50)
        exact = exact_stratum_variance(design[0], 0.5)
        assert est != exact
        assert math.isclose(exact, (1900 / 1999) * 0.25 / 100, rel_tol=1e-15)


class TestWaldInterval:
    def test_zero_variance_degenerate(self):
        ci = wald_interval(0.5, 0.0, 0.1)
        assert (ci.lower, ci.upper) == (0.5, 0.5)

    def test_frozen_interval(self):
        # endpoints computed with a 40-digit quantile oracle
        ci = wald_interval(0.5, 0.95 * 0.25 / 99, 0.1)
        assert math.isclose(ci.lower, 0.41943591732258635, abs_tol=1e-12)
        assert math.isclose(ci.upper, 0.58056408267741364, abs_tol=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            wald_interval(0.5, -1e-12, 0.1)

    @pytest.mark.parametrize("estimate,variance", [
        (0.5, math.inf), (0.5, math.nan), (math.inf, 0.1), (math.nan, 0.1), (-math.inf, math.inf),
    ])
    def test_non_finite_rejected_without_nan_in_message(self, estimate, variance):
        with pytest.raises(ValidationError, match="not finite") as info:
            wald_interval(estimate, variance, 0.1)
        assert "nan" not in str(info.value).lower() and "inf" not in str(info.value).lower()


class TestUnbiasedness:
    def test_mc_unbiased_point_and_variance(self):
        # 1e5 simulated samples from a fixed two-stratum population
        reps = 10**5
        populations = [(1500, 600), (2500, 1500)]  # (N_h, K_h)
        sizes = [75, 125]
        design = build_design(list(zip((N for N, _ in populations), sizes)))
        true_p = sum(K for _, K in populations) / sum(N for N, _ in populations)

        gen = derive_stream(21, [0]).generator()
        ngood = np.array([K for _, K in populations])
        nbad = np.array([N - K for N, K in populations])
        counts = gen.hypergeometric(ngood, nbad, np.array(sizes), size=(reps, 2))

        p_hats = np.empty(reps)
        var_hats = np.empty(reps)
        for r in range(reps):
            ci = non_private_ci(design, StratumCounts((int(counts[r, 0]), int(counts[r, 1]))), 0.1)
            p_hats[r] = ci.point_estimate
            var_hats[r] = ci.variance_estimate

        exact_var = sum(
            w**2 * exact_stratum_variance(s, K / N)
            for w, s, (N, K) in zip(oracles.weights(design), design, populations)
        )
        # mean of p_hat vs true p at 4 sigma
        se_p = math.sqrt(exact_var / reps)
        assert abs(float(np.mean(p_hats)) - true_p) <= 4 * se_p
        # mean of var_hat vs exact design variance at 4 sigma
        se_v = float(np.std(var_hats, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(var_hats)) - exact_var) <= 4 * se_v

    def test_non_private_ci_tag(self):
        design = build_design([(2000, 100)])
        ci = non_private_ci(design, StratumCounts((50,)), 0.1)
        assert ci.algorithm.value == "nonprivate"
        assert ci.budget_spent is None
        assert ci.noise_variances == ()
