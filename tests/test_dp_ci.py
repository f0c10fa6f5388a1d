import itertools
import math
import random
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stratci import (
    AlgorithmTag,
    ClipFlags,
    InfeasibleError,
    PrivacyBudget,
    RatioApproximationWarning,
    StratumCounts,
    StratumDesign,
    ValidationError,
    build_design,
    build_design_with_weights,
    derive_stream,
    difference_ci,
    exact_stratum_variance,
    non_private_ci,
    non_private_estimate,
    normal_quantile,
    population_noise_public_sizes,
    release,
    sensitivities,
    stratum_noise_private_sizes,
    stratum_noise_public_sizes,
    wald_interval,
)
from stratci import dp_ci, estimators
from stratci.core import _CLIP_FLAGS, memoised
from stratci.randomness import gaussian
from test_cli import _release_repr

import oracles

DESIGN = build_design([(2000, 100)])
COUNTS = StratumCounts((50,))
HUGE = PrivacyBudget.total(1e12)


def _quiet_priv(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RatioApproximationWarning)
        return stratum_noise_private_sizes(*args, **kwargs)


class TestNoNoiseLimits:
    def test_stratum_noise_recovers_nonprivate(self):
        baseline = non_private_ci(DESIGN, COUNTS, 0.1)
        ci, _ = stratum_noise_public_sizes(derive_stream(1, [0]), DESIGN, COUNTS, HUGE, 0.1)
        assert abs(ci.lower - baseline.lower) <= 1e-5
        assert abs(ci.upper - baseline.upper) <= 1e-5

    def test_population_noise_recovers_nonprivate(self):
        baseline = non_private_ci(DESIGN, COUNTS, 0.1)
        ci, _ = population_noise_public_sizes(derive_stream(1, [0]), DESIGN, COUNTS, HUGE, 0.1)
        assert abs(ci.lower - baseline.lower) <= 1e-6
        assert abs(ci.upper - baseline.upper) <= 1e-6

    def test_private_sizes_recovers_exact_variance_form(self):
        # the private-sizes variance converges to the N-1-denominator design
        # variance at the observed proportion, not to the n-1 estimator
        p_hat = 0.5
        variance = sum(
            s.weight**2 * exact_stratum_variance(s, p_hat) for s in DESIGN
        )
        baseline = wald_interval(p_hat, variance, 0.1)
        ci, releases = _quiet_priv(derive_stream(1, [0]), DESIGN, COUNTS, HUGE, 0.1)
        assert not any(r.noisy_size_floored for r in releases)
        assert abs(ci.lower - baseline.lower) <= 1e-5
        assert abs(ci.upper - baseline.upper) <= 1e-5


class TestStratumNoisePublicSizes:
    def test_bias_correction_identity_monte_carlo(self):
        # E[p~(1-p~) + s2] = p^(1-p^) over the injected noise
        p_hat, n, rho = 0.3, 100, 0.01
        s2 = 1.0 / (2.0 * rho * n * n)
        noise = gaussian(derive_stream(31, [0]), 0.0, s2, size=10**6)
        p_tilde = p_hat + noise
        vals = p_tilde * (1.0 - p_tilde) + s2
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - 0.21) <= 4 * se

    def test_variance_uses_clipped_proportion(self):
        # proportions are clipped before the variance formula consumes them
        design = build_design([(50, 10)])
        counts = StratumCounts((10,))
        budget = PrivacyBudget.total(1e-4)
        seed = next(
            s
            for s in range(100)
            if stratum_noise_public_sizes(
                derive_stream(s, [0]), design, counts, budget, 0.1
            )[1][0].proportion > 1.5
        )
        ci, releases = stratum_noise_public_sizes(
            derive_stream(seed, [0]), design, counts, budget, 0.1, clip_proportions=True
        )
        release = releases[0]
        assert release.proportion == 1.0
        assert release.proportion_clipped
        assert ci.clipped.proportion_clipped
        s2 = release.proportion_noise_variance
        expected_v = (40 / 50) * (1.0 * 0.0 + s2) / 9 + s2
        assert math.isclose(release.variance, expected_v, rel_tol=1e-12)

    def test_negative_stratum_variance_floored(self):
        # unclipped proportions can push p~(1-p~) negative enough to sink V~
        design = build_design([(10, 2)])
        counts = StratumCounts((2,))
        budget = PrivacyBudget.total(1e-4)
        seed = next(
            s
            for s in range(200)
            if stratum_noise_public_sizes(
                derive_stream(s, [0]), design, counts, budget, 0.1
            )[1][0].variance_floored
        )
        ci, releases = stratum_noise_public_sizes(
            derive_stream(seed, [0]), design, counts, budget, 0.1
        )
        assert releases[0].variance == 0.0
        assert ci.clipped.variance_floored

    def test_budget_spent_is_full_rho(self):
        budget = PrivacyBudget.total(0.01)
        ci, _ = stratum_noise_public_sizes(derive_stream(2, [0]), DESIGN, COUNTS, budget, 0.1)
        assert ci.budget_spent is budget
        assert ci.budget_spent.rho == 0.01

    def test_recorded_noise_variance(self):
        rho = 0.02
        ci, releases = stratum_noise_public_sizes(
            derive_stream(2, [0]), DESIGN, COUNTS, PrivacyBudget.total(rho), 0.1
        )
        delta = 1.0 / 100
        assert releases[0].proportion_noise_variance == delta * delta / (2 * rho)
        assert dict(ci.noise_variances)["stratum_proportion[0]"] == delta * delta / (2 * rho)


class TestPopulationNoisePublicSizes:
    def test_extrinsic_variance_of_point_estimate(self):
        # with the sample fixed, output variance is exactly Delta_p^2/(2 rho1)
        budget = PrivacyBudget.total(0.01)
        reps = 10**5
        vals = np.fromiter(
            (
                population_noise_public_sizes(
                    derive_stream(41, [i]), DESIGN, COUNTS, budget, 0.1
                )[0].point_estimate
                for i in range(reps)
            ),
            dtype=float,
            count=reps,
        )
        expected = (0.01) ** 2 / (2 * budget.rho1)
        rel_se = math.sqrt(2.0 / reps)
        assert abs(float(np.var(vals)) - expected) <= 4 * rel_se * expected

    def test_variance_floored_flag(self):
        # large rho1 keeps the additive bias term small while rho2 leaves the
        # variance release noisy enough to go negative
        budget = PrivacyBudget(1.0, 1e-9)
        seed = next(
            s
            for s in range(200)
            if population_noise_public_sizes(
                derive_stream(s, [0]), DESIGN, COUNTS, budget, 0.1
            )[0].clipped.variance_floored
        )
        ci, _ = population_noise_public_sizes(derive_stream(seed, [0]), DESIGN, COUNTS, budget, 0.1)
        assert ci.variance_estimate == 0.0
        assert ci.width == 0.0

    def test_requires_positive_split(self):
        with pytest.raises(ValidationError):
            population_noise_public_sizes(
                derive_stream(0, [0]), DESIGN, COUNTS, PrivacyBudget(0.01, 0.0), 0.1
            )

    def test_budget_spent_sums_split(self):
        budget = PrivacyBudget.total(0.01, split_fraction=0.3)
        ci, _ = population_noise_public_sizes(derive_stream(2, [0]), DESIGN, COUNTS, budget, 0.1)
        assert ci.budget_spent.rho1 + ci.budget_spent.rho2 == 0.01


class TestStratumNoisePrivateSizes:
    def test_output_variance_matches_second_order_approximation(self):
        # resampled counts plus both noises; target is the order-2 variance
        N, n, p = 2000, 100, 0.5
        design = build_design([(N, n)])
        budget = PrivacyBudget(0.05, 0.05)
        reps = 10**5
        gen = derive_stream(51, [0]).generator()
        counts = gen.hypergeometric(N // 2, N // 2, n, size=reps)
        vals = np.empty(reps)
        for i in range(reps):
            ci, _ = _quiet_priv(
                derive_stream(51, [1, i]), design, StratumCounts((int(counts[i]),)),
                budget, 0.1,
            )
            vals[i] = ci.point_estimate
        expected = (
            exact_stratum_variance(design[0], p)
            + 1.0 / (2 * 0.05 * n * n)
            + p * p / (2 * 0.05 * n * n)
        )
        assert abs(float(np.var(vals)) - expected) <= 0.05 * expected

    def test_noisy_size_floor(self):
        budget = PrivacyBudget(0.05, 1e-6)  # sd of size noise ~707
        seed = next(
            s
            for s in range(100)
            if _quiet_priv(derive_stream(s, [0]), DESIGN, COUNTS, budget, 0.1)[1][0].noisy_size_floored
        )
        _, releases = _quiet_priv(derive_stream(seed, [0]), DESIGN, COUNTS, budget, 0.1)
        assert releases[0].noisy_size == 2.0

    def test_fpc_floored_when_noisy_size_exceeds_population(self):
        design = build_design([(30, 20)])
        counts = StratumCounts((10,))
        budget = PrivacyBudget(0.05, 1e-4)
        seed = next(
            s
            for s in range(200)
            if _quiet_priv(derive_stream(s, [0]), design, counts, budget, 0.1)[1][0].fpc_floored
        )
        _, releases = _quiet_priv(derive_stream(seed, [0]), design, counts, budget, 0.1)
        r = releases[0]
        assert r.noisy_size > 30
        # additive noise terms survive the floored finite-population factor
        expected = r.count_noise_variance / r.noisy_size**2 + (
            r.proportion**2 * r.size_noise_variance / r.noisy_size**2
        )
        assert math.isclose(r.variance, expected, rel_tol=1e-12)

    def test_cv_warning(self):
        with pytest.warns(RatioApproximationWarning):
            stratum_noise_private_sizes(
                derive_stream(0, [0]), DESIGN, COUNTS, PrivacyBudget(0.05, 1e-6), 0.1
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stratum_noise_private_sizes(
                derive_stream(0, [0]), DESIGN, COUNTS, PrivacyBudget(0.05, 0.05), 0.1
            )

    def test_cv_warning_names_the_caller(self):
        # Through release and by a direct call, the warning points at this file.
        budget = PrivacyBudget(0.05, 1e-6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            release(AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES, derive_stream(0, [0]), DESIGN, COUNTS, budget, 0.1)
            stratum_noise_private_sizes(derive_stream(0, [0]), DESIGN, COUNTS, budget, 0.1)
        assert [w.category for w in caught] == [RatioApproximationWarning] * 2
        assert [w.filename for w in caught] == [__file__] * 2

    def test_recorded_noise_variances(self):
        budget = PrivacyBudget(0.03, 0.07)
        ci, releases = _quiet_priv(derive_stream(7, [0]), DESIGN, COUNTS, budget, 0.1)
        assert releases[0].count_noise_variance == 1.0 / (2 * 0.03)
        assert releases[0].size_noise_variance == 1.0 / (2 * 0.07)
        recorded = dict(ci.noise_variances)
        assert recorded["stratum_count[0]"] == 1.0 / (2 * 0.03)
        assert recorded["stratum_size[0]"] == 1.0 / (2 * 0.07)

    def test_consistency_in_sample_size(self):
        # mean absolute error shrinks along n = 100, 400, 1600, 6400
        budget = PrivacyBudget(0.05, 0.05)
        errors = []
        for n in (100, 400, 1600, 6400):
            N = 10 * n
            design = build_design([(N, n)])
            gen = derive_stream(61, [n]).generator()
            counts = gen.hypergeometric(N // 2, N // 2, n, size=1000)
            errs = np.empty(1000)
            for i in range(1000):
                ci, _ = _quiet_priv(
                    derive_stream(61, [n, i]), design, StratumCounts((int(counts[i]),)),
                    budget, 0.1,
                )
                errs[i] = abs(ci.point_estimate - 0.5)
            errors.append(float(np.mean(errs)))
        assert errors[0] > errors[1] > errors[2] > errors[3]


class TestPostProcessingSafety:
    def test_clipping_never_changes_budget_or_noise(self):
        budget = PrivacyBudget.total(1e-4)
        design = build_design([(50, 10)])
        counts = StratumCounts((10,))
        stream = derive_stream(3, [0])
        plain, _ = stratum_noise_public_sizes(stream, design, counts, budget, 0.1)
        clipped, _ = stratum_noise_public_sizes(
            stream, design, counts, budget, 0.1,
            clip_proportions=True, clip_interval=True,
        )
        assert clipped.budget_spent == plain.budget_spent
        assert clipped.noise_variances == plain.noise_variances

    def test_interval_clip_bounds(self):
        budget = PrivacyBudget.total(1e-4)
        design = build_design([(50, 10)])
        counts = StratumCounts((10,))
        for s in range(20):
            ci, _ = stratum_noise_public_sizes(
                derive_stream(s, [0]), design, counts, budget, 0.1,
                clip_proportions=True, clip_interval=True,
            )
            assert 0.0 <= ci.lower <= ci.upper <= 1.0


class TestDifferenceCi:
    def test_identical_inputs_symmetric(self):
        a = wald_interval(0.4, 1e-4, 0.1)
        diff = difference_ci(a, a, 0.1)
        assert diff.point_estimate == 0.0
        assert math.isclose(diff.width, math.sqrt(2) * a.width, rel_tol=1e-12)
        assert diff.algorithm is AlgorithmTag.DIFFERENCE

    def test_frozen_example(self):
        a = wald_interval(0.49, 1e-4, 0.1)
        b = wald_interval(0.30, 1e-4, 0.1)
        diff = difference_ci(a, b, 0.1)
        assert math.isclose(diff.point_estimate, 0.19, rel_tol=1e-15)
        # half-width 1.6448536... * sqrt(2e-4), from the 40-digit oracle
        assert math.isclose(diff.upper - diff.point_estimate, 0.023261743073533483, abs_tol=1e-12)

    def test_budget_reported_per_dataset(self):
        a = wald_interval(0.4, 1e-4, 0.1, budget=PrivacyBudget.total(0.01))
        b = wald_interval(0.3, 1e-4, 0.1, budget=PrivacyBudget.total(0.02))
        diff = difference_ci(a, b, 0.1)
        # disjoint populations compose in parallel: no summed budget is claimed
        assert diff.budget_spent is None
        assert a.budget_spent.rho == 0.01
        assert b.budget_spent.rho == 0.02


class TestRelease:
    MECHANISMS = {
        AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES: stratum_noise_public_sizes,
        AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES: population_noise_public_sizes,
        AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES: stratum_noise_private_sizes,
    }

    def test_every_private_tag_matches_its_mechanism(self):
        design = build_design([(1500, 60), (2500, 100), (800, 40)])
        counts = StratumCounts((0, 1, 0))
        budget = PrivacyBudget.total(0.05, 0.3)
        private = {t for t in AlgorithmTag} - {AlgorithmTag.NON_PRIVATE, AlgorithmTag.DIFFERENCE}
        assert set(self.MECHANISMS) == private
        for tag, mechanism in self.MECHANISMS.items():
            for clips in ({}, {"clip_proportions": True}, {"clip_interval": True}):
                via = release(tag, derive_stream(5, [1]), design, counts, budget, 0.1, **clips)
                direct = mechanism(derive_stream(5, [1]), design, counts, budget, 0.1, **clips)
                assert repr(via) == repr(direct)
                assert via[0].algorithm is tag

    @pytest.mark.parametrize("tag", [AlgorithmTag.NON_PRIVATE, AlgorithmTag.DIFFERENCE])
    def test_non_mechanism_tags_rejected(self, tag):
        with pytest.raises(ValidationError):
            release(tag, derive_stream(0, [0]), DESIGN, COUNTS, HUGE, 0.1)

    def test_mechanism_looked_up_at_call_time(self, monkeypatch):
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return stratum_noise_public_sizes(*args, **kwargs)

        monkeypatch.setattr(dp_ci, "stratum_noise_public_sizes", wrapper)
        release(AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES, derive_stream(0, [0]), DESIGN, COUNTS, HUGE, 0.1)
        assert len(calls) == 1


@st.composite
def _designs(draw):
    """A design of up to 50 strata with 2 <= n_h <= N_h, and counts 0 <= c_h <= n_h.

    One design in four is an all-census design (every n_h = N_h).
    """
    census = draw(st.integers(0, 3)) == 0
    rows = []
    for _ in range(draw(st.integers(1, 50))):
        if census:
            N = n = draw(st.integers(2, 5000))
        else:
            N = draw(st.integers(2, 10**6))
            n = draw(st.integers(2, min(N, 5000)))
        rows.append((N, n, draw(st.integers(0, n))))
    return build_design([(N, n) for N, n, _ in rows]), StratumCounts(tuple(c for _, _, c in rows))


def _expected_noise_variances(tag, design, budget):
    """The zCDP Gaussian scale Delta^2/(2 rho) of each recorded noise component."""
    if tag is AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES:
        return tuple(
            (f"stratum_proportion[{h}]", (1.0 / s.sample_size) * (1.0 / s.sample_size) / (2.0 * budget.rho))
            for h, s in enumerate(design)
        )
    if tag is AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES:
        sens = sensitivities(design)
        return (
            ("population_proportion", sens.proportion * sens.proportion / (2.0 * budget.rho1)),
            ("variance_estimate", sens.variance * sens.variance / (2.0 * budget.rho2)),
        )
    return tuple(
        item
        for h in range(len(design))
        for item in (
            (f"stratum_count[{h}]", 1.0 / (2.0 * budget.rho1)),
            (f"stratum_size[{h}]", 1.0 / (2.0 * budget.rho2)),
        )
    )


class TestReleaseProperties:
    """Every release ends in a typed error or a finite, well-formed interval."""

    @settings(max_examples=150, deadline=None)
    @given(
        tag=st.sampled_from(list(TestRelease.MECHANISMS)),
        design_counts=_designs(),
        rho=st.floats(-300.0, 12.0).map(lambda e: 10.0**e),
        split=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        clip_proportions=st.booleans(),
        clip_interval=st.booleans(),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_release(self, tag, design_counts, rho, split, clip_proportions, clip_interval, seed):
        design, counts = design_counts
        clips = {"clip_proportions": clip_proportions, "clip_interval": clip_interval}

        def run(mechanism, *args):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RatioApproximationWarning)
                try:
                    return mechanism(*args, derive_stream(seed, [1]), design, counts, budget, 0.1, **clips)
                except (ValidationError, InfeasibleError) as exc:
                    return exc

        try:
            budget = PrivacyBudget.total(rho, split)
        except ValidationError:
            return
        out = run(release, tag)
        # Reruns, and the direct call, give the same interval or the same error.
        assert repr(run(release, tag)) == repr(out)
        assert repr(run(TestRelease.MECHANISMS[tag])) == repr(out)
        if isinstance(out, Exception):
            return
        ci, _ = out
        assert all(math.isfinite(x) for x in (ci.lower, ci.point_estimate, ci.upper, ci.variance_estimate))
        assert ci.lower <= ci.point_estimate <= ci.upper
        assert ci.noise_variances == _expected_noise_variances(tag, design, budget)
        if not ci.clipped.interval_clipped:
            width = 2.0 * (normal_quantile(1.0 - 0.1 / 2.0) * ci.variance_estimate**0.5)
            rounding = math.ulp(ci.upper) + math.ulp(ci.lower) + math.ulp(width)
            assert abs((ci.upper - ci.lower) - width) <= rounding


@st.composite
def _reference_cases(draw):
    """A release case for :class:`TestReferenceRelease`.

    Up to 50 strata, drawn from a seeded generator (drawing each stratum
    through Hypothesis made the test four times slower): census strata
    (n_h = N_h, where the fpc floor fires on any upward size noise), strata a
    few units larger than their sample, and large ones; sizes of 2-4 often,
    where the noisy-size floor fires.  One design in four is all census.
    Counts are 0 or n_h as often as in between.  The total rho is log-uniform
    over 1e-310 to 1.7e308, or over 1e-4 to 10 where every floor and clip
    fires, or one of those two ends: at the top 2 rho can overflow and the
    releases are exact, at the bottom they overflow.  The split lies in
    [0.01, 0.99].
    """
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    census = draw(st.integers(0, 3)) == 0
    rows = []
    for _ in range(draw(st.integers(1, 50))):
        n = rng.randint(2, 4) if rng.random() < 0.5 else rng.randint(2, 5000)
        N = n + (0 if census else rng.choice((0, 0, 1, 3, 10**6)))
        c = rng.choice((0, n)) if rng.random() < 0.5 else rng.randint(0, n)
        rows.append((N, n, c))
    design = build_design([(N, n) for N, n, _ in rows])
    counts = StratumCounts(tuple(c for _, _, c in rows))
    rho = draw(
        st.floats(-310.0, math.log10(1.7e308)).map(lambda e: 10.0**e)
        | st.floats(-4.0, 1.0).map(lambda e: 10.0**e)
        | st.sampled_from((1e-310, 1.7e308))
    )
    rho1 = rho * draw(st.floats(0.01, 0.99))
    return design, counts, PrivacyBudget(rho1, rho - rho1)


def _outcome(mechanism, *args, **kwargs):
    """(repr of the result or of the raised error, the warnings as (category, text, filename))."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(mechanism(*args, **kwargs))
        except (ValidationError, InfeasibleError) as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, [(w.category, str(w.message), w.filename) for w in caught]


class TestReferenceRelease:
    """Each one-pass mechanism gives the bits, errors and warnings of the mechanisms as first written."""

    @settings(max_examples=1000, deadline=None)
    @given(
        case=_reference_cases(),
        alpha=st.floats(1e-12, 0.999, exclude_min=True),
        clip_proportions=st.booleans(),
        clip_interval=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_release_matches_reference(self, case, alpha, clip_proportions, clip_interval, seed):
        design, counts, budget = case
        clips = {"clip_proportions": clip_proportions, "clip_interval": clip_interval}
        for tag, direct in TestRelease.MECHANISMS.items():
            args = (derive_stream(seed, [3]), design, counts, budget, alpha)
            expected = _outcome(oracles.reference_release, tag, *args, **clips)
            assert _outcome(release, tag, *args, **clips) == expected
            direct_expected = _outcome(getattr(oracles, direct.__name__), *args, **clips)
            assert _outcome(direct, *args, **clips) == direct_expected

    def test_cases_reach_every_branch(self):
        # Fixed cases in which every flag, the ratio warning, both overflow
        # errors and the exact top-end release occur, so that the property
        # above cannot pass on cases that miss them.
        small = build_design([(2, 2), (3, 2), (4, 3), (2000, 4), (10, 10)] * 4)
        counts = StratumCounts((0, 2, 3, 1, 10) * 4)
        budgets = [PrivacyBudget(r / 2.0, r / 2.0) for r in (1e-310, 1e-3, 0.05, 1.0)]
        budgets += [PrivacyBudget(1.6e308, 1e307), PrivacyBudget(1e307, 1.6e308)]  # 2 rho overflows
        seen = set()
        for budget, seed in [(b, k) for b in budgets for k in range(6)]:
            for tag in TestRelease.MECHANISMS:
                for clip_proportions in (False, True):
                    args = (derive_stream(seed, [4]), small, counts, budget, 0.1)
                    clips = {"clip_proportions": clip_proportions, "clip_interval": True}
                    expected = _outcome(oracles.reference_release, tag, *args, **clips)
                    assert _outcome(release, tag, *args, **clips) == expected
                    out, caught = expected
                    seen |= {category.__name__ for category, *_ in caught}
                    if out.startswith("ValidationError"):
                        seen.add(f"{tag.value}{out.split(':', 2)[1]}")
                        continue
                    ci, releases = oracles.reference_release(tag, *args, **clips)
                    seen |= {f for f in vars(ci.clipped) if getattr(ci.clipped, f)}
                    seen |= {f for r in releases or () for f in r._fields[7:] if getattr(r, f)}
                    if any(v == 0.0 for _, v in ci.noise_variances):
                        seen.add(f"{tag.value} exact")
        assert seen >= {
            "proportion_clipped", "interval_clipped", "variance_floored", "noisy_size_floored", "fpc_floored",
            "RatioApproximationWarning", "str-pub exact", "pop-pub exact", "str-priv exact",
            "str-pub rho 1.00000000000005e-310 is too small", "str-priv rho 5e-311 is too small",
        }


_BAD_FLOATS = (math.nan, math.inf, -math.inf)


def _finish_points():
    """Points inside, below and above [0, 1], the edges and -0.0, and the non-finite ones."""
    return (
        st.floats(0.0, 1.0) | st.floats(-1e3, 0.0) | st.floats(1.0, 1e3) | st.floats(allow_nan=False)
        | st.sampled_from((-0.0, 0.0, 1.0, -5e-324, 1.0 + 2**-52, -1.7e308, 1.7e308, *_BAD_FLOATS))
    )


def _finish_variances():
    """Zero, small and huge variances up to the largest float, negative ones and the non-finite ones."""
    return (
        st.floats(0.0, 1e-2) | st.floats(0.0, allow_infinity=False) | st.floats(-1e3, 0.0)
        | st.sampled_from((0.0, -0.0, 5e-324, 1e300, sys.float_info.max, -5e-324, *_BAD_FLOATS))
    )


def _finish_alphas():
    """Valid alphas, and ones at or beyond 0 and 1, below about 1.1e-16, and NaN."""
    return st.floats(1e-12, 0.999) | st.sampled_from((0.0, -0.1, 1.0, 1.5, 1e-17, 1.1e-16, 5e-324, math.nan))


class TestFinish:
    """A mechanism's one-step finish is ``wald_interval(...)``, then ``clip_to_unit_interval()`` if asked."""

    def test_flags_table_holds_every_value(self):
        assert _CLIP_FLAGS == {bits: ClipFlags(*bits) for bits in itertools.product((False, True), repeat=4)}
        assert len(set(_CLIP_FLAGS.values())) == 16

    @settings(max_examples=2000, deadline=None)
    @given(
        tag=st.sampled_from(list(TestRelease.MECHANISMS)),
        budget=st.floats(1e-6, 10.0).map(PrivacyBudget.total),
        alpha=_finish_alphas(),
        clip_interval=st.booleans(),
        point=_finish_points(),
        variance=_finish_variances(),
        bits=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        noise_variances=st.lists(st.tuples(st.sampled_from(("a[0]", "b[1]")), st.floats(0.0)), max_size=3).map(tuple),
    )
    def test_finish_matches_wald_then_clip(
        self, tag, budget, alpha, clip_interval, point, variance, bits, noise_variances
    ):
        # The repr of the result shows every float's bits, the flags, algorithm,
        # budget and noise variances; an error shows its class and text.
        proportion_clipped, variance_floored, noisy_size_floored = bits
        args = (tag, budget, alpha, clip_interval, point, variance)
        flags = ClipFlags(proportion_clipped, False, variance_floored, noisy_size_floored)
        out = _outcome(dp_ci._interval, *args, *bits, noise_variances)
        assert out == _outcome(oracles._interval, *args, flags, noise_variances)
        if out[0].startswith("ValidationError"):
            return
        ci = dp_ci._interval(*args, *bits, noise_variances)
        assert ci.clipped is _CLIP_FLAGS[tuple(vars(ci.clipped).values())]
        # The clip as first written, min(max(x, 0), 1) on each value, against the unclipped bounds.
        plain = wald_interval(point, variance, alpha)
        old = tuple(min(max(x, 0.0), 1.0) for x in (plain.lower, plain.upper, plain.point_estimate))
        moved = old != (plain.lower, plain.upper, plain.point_estimate)
        want = old if clip_interval else (plain.lower, plain.upper, plain.point_estimate)
        assert repr((ci.lower, ci.upper, ci.point_estimate)) == repr(want)
        assert ci.clipped.interval_clipped is (clip_interval and moved)
        assert repr(ci.variance_estimate) == repr(variance)


    def test_fixed_cases_reach_every_branch(self):
        # Cases in which each error (alpha before finiteness before the sign),
        # each clip and an unmoved -0.0 occur, so that the property cannot pass
        # on examples that miss them.
        cases = [
            (0.0, math.nan, -1.0), (1.0, 0.5, 0.1), (1e-17, 0.5, 0.1), (0.1, math.inf, -1.0),
            (0.1, 0.5, math.nan), (0.1, 0.5, -1e-300), (0.1, 0.5, 1e-4), (0.1, 0.01, 0.01),
            (0.1, 0.99, 0.01), (0.1, -0.2, 0.0), (0.1, 1.5, 0.0), (0.1, -0.0, 0.0),
            (1e-12, 1.7e308, sys.float_info.max),
        ]
        seen = set()
        for (alpha, point, variance), clip_interval in itertools.product(cases, (False, True)):
            args = (AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES, HUGE, alpha, clip_interval, point, variance)
            out = _outcome(dp_ci._interval, *args, True, False, True, ())
            assert out == _outcome(oracles._interval, *args, ClipFlags(True, False, False, True), ())
            if out[0].startswith("ValidationError"):
                seen.add(out[0])
                continue
            ci = dp_ci._interval(*args, True, False, True, ())
            if ci.clipped.interval_clipped:
                seen.add(f"clipped {'below' if point < 0.0 or ci.lower == 0.0 else 'above'}")
            if math.copysign(1.0, ci.lower) < 0.0 and ci.lower == 0.0:
                seen.add("-0.0 kept")
        assert seen == {
            "ValidationError: alpha must lie in (0, 1), got 0.0",
            "ValidationError: alpha must lie in (0, 1), got 1.0",
            "ValidationError: alpha 1e-17 is too small: 1 - alpha/2 rounds to 1 when alpha is at most about 1.1e-16",
            "ValidationError: the point or variance estimate is not finite; the privacy budget rho may be too small",
            "ValidationError: variance must be nonnegative, got -1e-300",
            "clipped below", "clipped above", "-0.0 kept",
        }

class TestDesignFacts:
    """Design facts are computed once per :class:`Design` and kept on it; any
    other sequence is computed afresh, and reusing a fact moves no bit."""

    DESIGN = [(1500, 60), (2500, 100), (800, 40)]
    COUNTS = StratumCounts((20, 45, 0))
    BUDGET = PrivacyBudget.total(0.05, 0.3)

    @staticmethod
    def _release(tag, design, counts, budget, seed=3, **clips):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioApproximationWarning)
            try:
                return release(tag, derive_stream(seed, [1]), design, counts, budget, 0.1, **clips)
            except (ValidationError, InfeasibleError) as exc:
                return exc

    @pytest.mark.parametrize("tag", list(TestRelease.MECHANISMS))
    def test_mutated_list_design_gives_new_bits(self, tag):
        design = list(build_design(self.DESIGN))
        before = self._release(tag, design, self.COUNTS, self.BUDGET)
        # Same weights, other sample sizes: the weight check still passes.
        design[1] = StratumDesign(2500, 90, design[1].weight)
        after = self._release(tag, design, self.COUNTS, self.BUDGET)
        assert repr(after) == repr(self._release(tag, tuple(design), self.COUNTS, self.BUDGET))
        assert repr(after) != repr(before)

    def test_threads_match_sequential(self):
        # The two designs share one counts object, so a fact of one sample
        # filed under the other design would show.  The threads release on
        # both designs under two budgets in opposite turns, so each design's
        # kept budget facts pass back and forth between the threads.
        designs = [build_design([(1500, 60), (2500, 100)]), build_design([(900, 45), (3000, 150)])]
        budgets = [self.BUDGET, PrivacyBudget.total(self.BUDGET.rho, 0.6)]
        counts = StratumCounts((20, 45))
        tags = list(TestRelease.MECHANISMS)

        def releases(k):
            return [
                repr(release(
                    tags[i % 3], derive_stream(i, [1]), designs[(i // 3 + k) % 2], counts, budgets[(i + k) % 2], 0.1
                ))
                for i in range(1000)
            ]

        got = [None, None]
        start = threading.Barrier(2, timeout=60)

        def work(k):
            start.wait()
            got[k] = releases(k)

        interval = sys.getswitchinterval()
        # The warning filters are process-wide, so they are set here, not in the threads.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioApproximationWarning)
            expected = [releases(0), releases(1)]
            sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
            try:
                threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(
        tag=st.sampled_from(list(TestRelease.MECHANISMS)),
        design_counts=_designs(),
        rho=st.floats(-300.0, 12.0).map(lambda e: 10.0**e),
        split=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        clip_proportions=st.booleans(),
        clip_interval=st.booleans(),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_hit_and_miss_agree(self, tag, design_counts, rho, split, clip_proportions, clip_interval, seed):
        design, counts = design_counts
        try:
            budget = PrivacyBudget.total(rho, split)
        except ValidationError:
            return
        clips = {"clip_proportions": clip_proportions, "clip_interval": clip_interval}

        def parts(design, counts):
            out = self._release(tag, design, counts, budget, seed, **clips)
            return repr(out) if isinstance(out, Exception) else _release_repr(*out)

        non_private_ci(design, counts, 0.1)  # leaves the design's weight check behind
        first, hit = parts(design, counts), parts(design, counts)
        miss = parts(tuple(design), StratumCounts(counts.counts))
        assert first == hit == miss

    @settings(max_examples=150, deadline=None)
    @given(
        tag=st.sampled_from(list(TestRelease.MECHANISMS)),
        design_counts=_designs(),
        rho=st.floats(-8.0, 1.0).map(lambda e: 10.0**e),
        splits=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=2),
        clip_proportions=st.booleans(),
        clip_interval=st.booleans(),
        seed=st.integers(-(2**70), 2**70),
    )
    def test_budget_constants_follow_the_budget(
        self, tag, design_counts, rho, splits, clip_proportions, clip_interval, seed
    ):
        # Budget b has a's total rho at another split; the third budget equals
        # a in value but is a new object.  Released in turn on one design,
        # each must give the bits of the same strata as a plain tuple.
        design, counts = design_counts
        try:
            a, b = (PrivacyBudget.total(rho, split) for split in splits)
        except ValidationError:
            return
        assume((a.rho1, a.rho2) != (b.rho1, b.rho2))
        clips = {"clip_proportions": clip_proportions, "clip_interval": clip_interval}

        def parts(design, budget):
            out = self._release(tag, design, counts, budget, seed, **clips)
            return repr(out) if isinstance(out, Exception) else _release_repr(*out)

        for budget in (a, b, PrivacyBudget(a.rho1, a.rho2), a):
            assert parts(design, budget) == parts(tuple(design), budget)

    @pytest.mark.parametrize("tag", list(TestRelease.MECHANISMS))
    def test_failure_is_not_kept(self, tag):
        design = build_design(self.DESIGN)
        too_many = StratumCounts((20, 101, 0))
        for _ in range(2):
            with pytest.raises(ValidationError, match="exceeds sample size 100"):
                release(tag, derive_stream(0, [0]), design, too_many, self.BUDGET, 0.1)
        light = (StratumDesign(2000, 100, 0.5),)
        for _ in range(2):
            with pytest.raises(ValidationError, match="weights sum"):
                release(tag, derive_stream(0, [0]), light, StratumCounts((50,)), self.BUDGET, 0.1)
        for _ in range(2):
            with pytest.raises(ValidationError, match="at least one stratum"):
                sensitivities(())

    def test_ratio_warning_on_every_call(self):
        design, budget = build_design(self.DESIGN), PrivacyBudget(0.05, 1e-6)
        tag = AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES
        text = (
            f"noisy-size coefficient of variation {dp_ci.denominator_cv(40, 1e-6):.3g} is at or above "
            "0.1; the ratio's normal approximation may be poor"
        )
        lines = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for seed in range(3):
                lines.append(sys._getframe().f_lineno + 1)
                release(tag, derive_stream(seed, [1]), design, self.COUNTS, budget, 0.1)
                lines.append(sys._getframe().f_lineno + 1)
                stratum_noise_private_sizes(derive_stream(seed, [1]), design, self.COUNTS, budget, 0.1)
        assert [w.category for w in caught] == [RatioApproximationWarning] * 6
        assert [str(w.message) for w in caught] == [text] * 6
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line) for line in lines]

    @pytest.mark.parametrize(
        "tag", [AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES, AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES]
    )
    def test_split_error_on_every_call(self, tag):
        design = build_design(self.DESIGN)
        message = f"{tag.value} needs a budget split with rho1 > 0 and rho2 > 0, got rho1 = 1.0, rho2 = 0.0"
        for _ in range(2):
            with pytest.raises(ValidationError) as caught:
                release(tag, derive_stream(0, [0]), design, self.COUNTS, PrivacyBudget(1.0, 0.0), 0.1)
            assert str(caught.value) == message

    def test_design_keeps_one_budget_per_fact(self):
        design = build_design(self.DESIGN)
        budgets = [PrivacyBudget.total(0.001 * (k + 1), 0.3) for k in range(1000)]

        def release_all(budget):
            for tag in TestRelease.MECHANISMS:
                self._release(tag, design, self.COUNTS, budget)

        release_all(budgets[0])
        kept = set(vars(design))
        for budget in budgets[1:]:
            release_all(budget)
        assert set(vars(design)) == kept
        # Three facts of a budget, each the one pair of the last budget's values.
        last = (budgets[-1].rho1, budgets[-1].rho2)
        pairs = [fact for fact in vars(design).values() if isinstance(fact, tuple) and fact[:1] == (last,)]
        assert len(pairs) == len(TestRelease.MECHANISMS) and all(len(pair) == 2 for pair in pairs)

    # Every per-design fact the package keeps, computed from a design.
    FACTS = (
        sensitivities,
        lambda design: memoised(estimators._design_facts, design),
    )

    def test_design_keeps_each_fact_for_every_thread(self):
        # Four threads race to compute each fact of fresh designs first; every
        # one of them must get the object the design keeps.
        designs = [build_design(self.DESIGN) for _ in range(1000)]
        got = [[] for _ in range(4)]
        start = threading.Barrier(len(got), timeout=60)

        def work(k):
            start.wait()
            got[k] = [fact(design) for design in designs for fact in self.FACTS]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        kept = [fact(design) for design in designs for fact in self.FACTS]
        assert all(len(mine) == len(kept) and all(a is b for a, b in zip(mine, kept)) for mine in got)

    def test_other_sequences_recompute(self):
        design = build_design(self.DESIGN)
        for other in (tuple(design), list(design)):
            for fact in self.FACTS:
                assert fact(other) is not fact(other)
                assert fact(other) == fact(design)

    def test_build_design_is_its_strata_tuple(self):
        for design in (build_design(self.DESIGN), build_design_with_weights(self.DESIGN, (0.5, 0.25, 0.25))):
            strata = tuple(design)
            assert isinstance(design, tuple)
            assert design == strata and hash(design) == hash(strata) and repr(design) == repr(strata)
            assert design[1:] == strata[1:] and type(design[1:]) is tuple
