import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratci import (
    AlgorithmTag,
    PrivacyBudget,
    RatioApproximationWarning,
    StratumCounts,
    ValidationError,
    build_design,
    derive_stream,
    gaussian_mechanism,
    release,
    sensitivities,
)
from stratci.core import _design_facts
from stratci.dp_ci import MECHANISMS

import oracles
from oracles import non_private_estimate


class TestGaussianMechanism:
    def test_noise_variance_arithmetic(self):
        out = gaussian_mechanism(derive_stream(0, [0]), 0.5, 0.01, 0.005)
        assert out.noise_variance == 0.01**2 / (2 * 0.005)
        assert out.noise_variance == 0.01

    def test_huge_budget_recovers_truth(self):
        out = gaussian_mechanism(derive_stream(3, [0]), 0.5, 0.01, 1e12)
        assert abs(out.value - 0.5) <= 1e-7

    def test_invalid_parameters(self):
        s = derive_stream(0, [0])
        with pytest.raises(ValidationError):
            gaussian_mechanism(s, 0.5, 0.0, 1.0)
        with pytest.raises(ValidationError):
            gaussian_mechanism(s, 0.5, -0.1, 1.0)
        with pytest.raises(ValidationError):
            gaussian_mechanism(s, 0.5, 1.0, 0.0)

    def test_output_variance_monte_carlo(self):
        # Var(output - true) should be sensitivity^2/(2 rho) = 1.0
        n = 10**6
        vals = np.fromiter(
            (
                gaussian_mechanism(derive_stream(17, [i]), 2.0, 1.0, 0.5).value
                for i in range(n)
            ),
            dtype=float,
            count=n,
        )
        assert abs(float(np.var(vals)) - 1.0) <= 0.02

    def test_scale_equivalence_matched_seed(self):
        # scaling sensitivity by k and rho by k^2 leaves the noise law fixed;
        # with a matched stream the draw is identical
        s = derive_stream(5, [0])
        base = gaussian_mechanism(s, 0.0, 0.01, 0.5)
        doubled = gaussian_mechanism(s, 0.0, 0.02, 2.0)
        assert base.value == doubled.value
        tripled = gaussian_mechanism(s, 0.0, 0.03, 4.5)
        assert math.isclose(base.value, tripled.value, rel_tol=1e-12)


class TestSensitivities:
    def test_single_stratum(self):
        report = sensitivities(build_design([(2000, 100)]))
        assert report.proportion == 0.01

    def test_max_over_strata(self):
        design = build_design([(1000, 50), (1000, 100)])
        assert oracles.weights(design) == (0.5, 0.5)
        report = sensitivities(design)
        assert report.proportion == max(0.5 / 50, 0.5 / 100) == 0.01

    def test_frozen_variance_sensitivity(self):
        design = build_design([(2000, 100)])
        report = sensitivities(design)
        C = 0.95 / 99
        (constant,) = _design_facts(design).constants
        assert math.isclose(constant, C, rel_tol=1e-15)
        assert math.isclose(constant, 9.59595959595959e-3, rel_tol=1e-12)
        assert math.isclose(report.variance, (C / 100) * 0.99, rel_tol=1e-15)
        assert math.isclose(report.variance, 9.5e-5, rel_tol=1e-12)

    def test_permutation_invariance(self):
        a = build_design([(1500, 60), (2000, 150), (1800, 90)])
        b = build_design([(1800, 90), (1500, 60), (2000, 150)])
        ra, rb = sensitivities(a), sensitivities(b)
        assert ra.proportion == rb.proportion
        assert ra.variance == rb.variance
        assert sorted(_design_facts(a).constants) == sorted(_design_facts(b).constants)

    @given(st.lists(st.tuples(st.integers(100, 5000), st.integers(2, 90)), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_doubling_populations_preserves_delta_p(self, sizes):
        sizes = [(N, min(n, N)) for N, n in sizes]
        base = sensitivities(build_design(sizes))
        doubled = sensitivities(build_design([(2 * N, n) for N, n in sizes]))
        # weights are scale-free in N, so the proportion sensitivity is unchanged
        assert math.isclose(base.proportion, doubled.proportion, rel_tol=1e-12)


# Each enumerated change is a difference of two rounded estimates, so a
# change that equals a bound in exact arithmetic can come out a few ulps
# above or below it (the least significant bits of a release are not exact;
# Mironov, CCS 2012).  A relative slack of 1e-12 covers that rounding, some
# thousand times over, and nothing a wrong bound would show.
_SLACK = 1e-12


@st.composite
def _small_designs(draw):
    """One to three strata with n_h <= 12; about a third of them censuses (n_h = N_h)."""
    strata = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 12))
        strata.append((draw(st.one_of(st.just(n), st.integers(n, 60))), n))
    return build_design(strata)


def _largest_changes(design):
    """The largest change of p_hat and of V_hat over every count vector and substitute-one neighbour."""
    estimates = {
        counts: non_private_estimate(design, StratumCounts(counts))
        for counts in itertools.product(*(range(s.sample_size + 1) for s in design))
    }
    # Substituting one record in stratum h moves c_h by one; the pair
    # (c, c + e_h) stands for both directions.
    largest_p = largest_v = 0.0
    for counts, estimate in estimates.items():
        for h, stratum in enumerate(design):
            if counts[h] < stratum.sample_size:
                neighbour = estimates[counts[:h] + (counts[h] + 1,) + counts[h + 1:]]
                largest_p = max(largest_p, abs(neighbour.proportion - estimate.proportion))
                largest_v = max(largest_v, abs(neighbour.variance - estimate.variance))
    return largest_p, largest_v


class TestSensitivityByEnumeration:
    """Every count vector and every substitute-one neighbour of it, against sensitivities()."""

    @settings(max_examples=60, deadline=None)
    @given(design=_small_designs())
    def test_bounds_hold_and_are_attained(self, design):
        report = sensitivities(design)
        largest_p, largest_v = _largest_changes(design)
        assert report.proportion * (1 - _SLACK) <= largest_p <= report.proportion * (1 + _SLACK)
        assert report.variance * (1 - _SLACK) <= largest_v <= report.variance * (1 + _SLACK)

    def test_census_strata_add_no_variance_sensitivity(self):
        design = build_design([(5, 5), (40, 12), (7, 7)])
        report, constants = sensitivities(design), _design_facts(design).constants
        assert constants[0] == constants[2] == 0.0
        assert report.variance == (constants[1] / 12) * (1 - 1 / 12)


def _zcdp_cost(change: float, noise_variance: float) -> float:
    """The zCDP cost Delta^2 / (2 sigma^2) of one Gaussian release (Bun & Steinke, TCC 2016, Prop. 1.6)."""
    return change * change / (2.0 * noise_variance)


class TestZcdpLedger:
    """Each mechanism's recorded noise variances, with the enumerated changes of one adjacent dataset, cost budget_spent.

    The releases one adjacent change touches compose (zCDP adds), so their
    costs Delta^2 / (2 sigma^2) must add up to what the result records as
    spent: no more, or the guarantee is overstated, and no less, or budget
    is left unused.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        design=_small_designs(),
        rho=st.floats(1e-6, 10.0),
        split=st.floats(0.05, 0.95),
    )
    # Both of pop-pub's branches, whatever Hypothesis draws.
    @example(design=build_design([(5, 5), (7, 7)]), rho=0.5, split=0.5)
    @example(design=build_design([(5, 5), (40, 12), (7, 7)]), rho=1e-3, split=0.25)
    def test_touched_releases_spend_the_budget(self, design, rho, split):
        budget = PrivacyBudget.total(rho, split)
        counts = StratumCounts((0,) * len(design))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RatioApproximationWarning)
            results = {
                tag: release(tag, derive_stream(0, [0]), design, counts, budget, 0.1)[0] for tag in MECHANISMS
            }
        for ci in results.values():
            assert ci.budget_spent == budget

        def close(cost, spent):
            # sigma^2 is computed as Delta^2 / (2 rho) and each enumerated
            # Delta is a difference of rounded quotients, so a cost that is
            # exact in real arithmetic is off by a few ulps (see _SLACK).
            assert abs(cost - spent) <= _SLACK * spent

        # str-pub: substituting one record in stratum h moves that stratum's proportion only.
        noise = dict(results[AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES].noise_variances)
        assert len(noise) == len(design)
        for h, s in enumerate(design):
            n = s.sample_size
            change = max(abs((c + 1) / n - c / n) for c in range(n))
            close(_zcdp_cost(change, noise[f"stratum_proportion[{h}]"]), budget.rho)

        # pop-pub: one substitution moves both the proportion and the variance estimate.
        noise = dict(results[AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES].noise_variances)
        change_p, change_v = _largest_changes(design)
        cost = _zcdp_cost(change_p, noise["population_proportion"])
        if change_v == 0.0:
            # Every stratum is a census: the variance estimate is 0 whatever
            # the data, released exactly (sigma^2 = 0) at no cost, so the
            # releases spend rho1 of the rho1 + rho2 recorded.
            assert all(s.population_size == s.sample_size for s in design)
            assert noise["variance_estimate"] == 0.0
            close(cost, budget.rho1)
        else:
            close(cost + _zcdp_cost(change_v, noise["variance_estimate"]), budget.rho)

        # str-priv: adding or removing one record in stratum h moves its size by one and its count by one or none.
        noise = dict(results[AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES].noise_variances)
        assert len(noise) == 2 * len(design)
        for h, s in enumerate(design):
            n = s.sample_size
            moves = [
                (dc, dn)
                for c in range(n + 1)
                for dc, dn in ((1, 1), (0, 1), (-1, -1), (0, -1))
                if 0 <= c + dc <= n + dn
            ]
            change_c = max(abs(dc) for dc, _ in moves)
            change_n = max(abs(dn) for _, dn in moves)
            cost = _zcdp_cost(change_c, noise[f"stratum_count[{h}]"]) + _zcdp_cost(change_n, noise[f"stratum_size[{h}]"])
            close(cost, budget.rho)
