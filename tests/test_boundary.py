"""The library boundary: every numeric scalar argument of a public name is checked.

A public callable given a bad number, or an extreme one inside its domain
(5e-324, 1e300, 10**300), ends in a ``ValidationError``, an
``InfeasibleError`` or a result whose floats are all finite; never in a bare
``TypeError``, ``OverflowError`` or ``ZeroDivisionError``, a NaN or an
unchecked value.  The domains live in one checker, ``core._check_number``.
"""

import dataclasses
import inspect
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratci
from stratci import (
    AlgorithmTag,
    CiResult,
    ExperimentConfig,
    InfeasibleError,
    Population,
    PrivacyBudget,
    RandomStream,
    StratumCounts,
    StratumDesign,
    Uniform,
    ValidationError,
    budget_ratio_private_vs_public,
    budget_ratio_stratum_vs_population,
    build_design,
    denominator_cv,
    derive_stream,
    difference_ci,
    draw_sample,
    exact_stratum_variance,
    extrinsic_variance,
    gaussian_mechanism,
    non_private_ci,
    normal_cdf,
    normal_quantile,
    population_noise_public_sizes,
    qq_data,
    ratio_estimator_k2_moments,
    reciprocal_normal_moments,
    release,
    rho_sweep,
    stratum_noise_private_sizes,
    stratum_noise_public_sizes,
    theoretical_width_ratio,
    wald_interval,
    width_ratio_lower_bound,
    width_ratio_report,
)
from stratci.core import _check_number

NON_PRIVATE = AlgorithmTag.NON_PRIVATE
STR_PUB = AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES
STR_PRIV = AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES
# Values outside most domains, then extreme values inside many: each must end typed or finite.
BAD = (None, math.nan, math.inf, -math.inf, 0, -1, True, 10**400, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, 10**300)
ONE = build_design([(2000, 152)])
COUNTS = StratumCounts([70])
BUDGET = PrivacyBudget.total(0.01)
CI_A = CiResult(0.5, 0.01, 0.4, 0.6, 0.1, NON_PRIVATE)
CI_B = CiResult(0.3, 0.02, 0.2, 0.4, 0.1, NON_PRIVATE)
TINY = ExperimentConfig(strata=2, stratum_size=400, rate=0.1, repetitions=3, base_seed=5)


def _mechanism(function):
    return lambda alpha=0.1: function(derive_stream(3, [0]), ONE, COUNTS, BUDGET, alpha)


# Per public callable that takes a numeric scalar, a call whose keyword arguments are those scalars,
# each defaulting to a valid value.  A number inside an argument list (a rate, an index, a proportion,
# a weight) counts as a scalar of its own.
CASES = {
    "CiResult": lambda point=0.5, variance=0.01, lower=0.4, upper=0.6, alpha=0.1: CiResult(
        point, variance, lower, upper, alpha, NON_PRIVATE
    ),
    "ExperimentConfig": lambda alpha=0.1, strata=2, stratum_size=400, rate=0.1, proportion=0.5, rho=0.01,
    split=0.5, repetitions=3, base_seed=5, min_sample_size=None: ExperimentConfig(
        alpha=alpha, strata=strata, stratum_size=stratum_size, rate=rate, proportion=proportion, rho=rho,
        split=split, repetitions=repetitions, base_seed=base_seed, min_sample_size=min_sample_size,
    ),
    "Population": lambda size=100, positive=30: Population((size,), (positive,)),
    "PrivacyBudget": lambda rho1=0.01, rho2=0.01: PrivacyBudget(rho1, rho2),
    "PrivacyBudget.total": lambda rho=0.01, split_fraction=0.5: PrivacyBudget.total(rho, split_fraction),
    "RandomStream": lambda base_seed=7, stream_id=3: RandomStream(base_seed, stream_id),
    "StratumCounts": lambda count=3: StratumCounts([count]),
    "StratumDesign": lambda population_size=2000, sample_size=152: StratumDesign(population_size, sample_size),
    "Uniform": lambda low=0.2, high=0.8: Uniform(low, high),
    "budget_ratio_private_vs_public": lambda weight=2.0, p=0.3: budget_ratio_private_vs_public([weight], [p]),
    "budget_ratio_stratum_vs_population": lambda weight=2.0: budget_ratio_stratum_vs_population([weight]),
    "build_design": lambda population_size=2000, sample_size=152: build_design([(population_size, sample_size)]),
    "denominator_cv": lambda sample_size=100, rho2=0.05: denominator_cv(sample_size, rho2),
    "derive_stream": lambda base_seed=7, index=1: derive_stream(base_seed, [index]),
    "difference_ci": lambda alpha=0.1: difference_ci(CI_A, CI_B, alpha),
    "draw_sample": lambda rate=0.1: draw_sample(derive_stream(1, [0]), Population((2000,), (1000,)), [rate]),
    "exact_stratum_variance": lambda p_h=0.3: exact_stratum_variance(StratumDesign(10, 2), p_h),
    "extrinsic_variance": lambda p=0.3: extrinsic_variance(ONE, STR_PRIV, BUDGET, [p]),
    "gaussian_mechanism": lambda true_value=0.5, sensitivity=1.0, rho=0.1: gaussian_mechanism(
        derive_stream(2, [0]), true_value, sensitivity, rho
    ),
    "non_private_ci": lambda alpha=0.1: non_private_ci(ONE, COUNTS, alpha),
    "normal_cdf": lambda x=0.3: normal_cdf(x),
    "normal_quantile": lambda q=0.3: normal_quantile(q),
    "population_noise_public_sizes": _mechanism(population_noise_public_sizes),
    "qq_data": lambda grid_size=9: qq_data(TINY, grid_size),
    "ratio_estimator_k2_moments": lambda p=0.5, n=100, population_size=2000, rho1=0.1, rho2=0.1: (
        ratio_estimator_k2_moments(p, n, population_size, rho1, rho2)
    ),
    "reciprocal_normal_moments": lambda mu=10.0, sigma=1.0, k=2: reciprocal_normal_moments(mu, sigma, k),
    "release": lambda alpha=0.1: release(STR_PUB, derive_stream(3, [0]), ONE, COUNTS, BUDGET, alpha),
    "rho_sweep": lambda rho=0.01: rho_sweep(TINY, [rho]),
    "stratum_noise_private_sizes": _mechanism(stratum_noise_private_sizes),
    "stratum_noise_public_sizes": _mechanism(stratum_noise_public_sizes),
    "theoretical_width_ratio": lambda population_size=2000, sample_size=152, p=0.5, rho=0.01: (
        theoretical_width_ratio(population_size, sample_size, p, rho, STR_PUB)
    ),
    "wald_interval": lambda estimate=0.5, variance=0.01, alpha=0.1: wald_interval(estimate, variance, alpha),
    "width_ratio_lower_bound": lambda sample_size=100, rho=0.01: (
        width_ratio_lower_bound(sample_size, rho, STR_PUB)
    ),
    "width_ratio_report": lambda p=0.3: width_ratio_report(ONE, BUDGET, [p]),
}

# Every other public name, with the reason it has no case.
OUTPUT_ONLY = "an output-only record that the library builds from checked values"
NO_NUMBER = "takes no numeric scalar"
EXCLUDED = {
    "AlgorithmSummary": OUTPUT_ONLY,
    "ExperimentSummary": OUTPUT_ONLY,
    "MechanismOutput": OUTPUT_ONLY,
    "PrivateStratumRelease": OUTPUT_ONLY,
    "ReciprocalMomentSeries": OUTPUT_ONLY,
    "SensitivityReport": OUTPUT_ONLY,
    "WidthRatioReport": OUTPUT_ONLY,
    "AlgorithmTag": NO_NUMBER,
    "ClipFlags": NO_NUMBER,
    "generate_population": NO_NUMBER,
    "run_experiment": NO_NUMBER,
    "sample_proportions": NO_NUMBER,
    "sensitivities": NO_NUMBER,
    "CV_NORMAL_APPROX_THRESHOLD": "a constant, not a callable",
    "InfeasibleError": "an exception type",
    "RatioApproximationWarning": "a warning type",
    "ValidationError": "an exception type",
}
SLOTS = [(name, slot) for name, call in CASES.items() for slot in inspect.signature(call).parameters]


def _floats(value):
    """Every float in a result, through tuples, lists, dicts and dataclasses."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))


def _typed_or_finite(name: str, slot: str, value) -> None:
    try:
        result = CASES[name](**{slot: value})
    except (ValidationError, InfeasibleError):
        return
    bad = [x for x in _floats(result) if not math.isfinite(x)]
    assert not bad, f"{name}({slot}={value!r}) returned non-finite floats {bad}"


def test_every_public_name_has_a_case_or_a_reason():
    covered = {name.split(".")[0] for name in CASES}
    assert covered.isdisjoint(EXCLUDED)
    assert covered | set(EXCLUDED) == set(stratci.__all__)


def test_every_default_is_valid():
    for name, call in CASES.items():
        assert all(math.isfinite(x) for x in _floats(call())), name


@given(st.sampled_from(SLOTS), st.sampled_from(BAD))
@settings(max_examples=2000, deadline=None)
@example(("denominator_cv", "sample_size"), 0)
@example(("denominator_cv", "rho2"), -1)
@example(("denominator_cv", "rho2"), math.nan)
@example(("width_ratio_lower_bound", "sample_size"), 0)
@example(("width_ratio_lower_bound", "sample_size"), -1)
@example(("theoretical_width_ratio", "sample_size"), 0)
@example(("PrivacyBudget", "rho1"), 10**400)
@example(("PrivacyBudget.total", "rho"), 10**400)
@example(("wald_interval", "estimate"), None)
@example(("wald_interval", "estimate"), 10**400)
@example(("non_private_ci", "alpha"), None)
@example(("release", "alpha"), None)
@example(("difference_ci", "alpha"), None)
@example(("normal_cdf", "x"), None)
@example(("normal_cdf", "x"), 10**400)
@example(("normal_quantile", "q"), None)
@example(("derive_stream", "base_seed"), math.nan)
@example(("derive_stream", "base_seed"), math.inf)
@example(("derive_stream", "base_seed"), None)
@example(("ExperimentConfig", "alpha"), None)
@example(("ExperimentConfig", "rate"), None)
@example(("ExperimentConfig", "proportion"), None)
@example(("ExperimentConfig", "split"), None)
@example(("ExperimentConfig", "stratum_size"), None)
@example(("Uniform", "low"), None)
@example(("qq_data", "grid_size"), None)
@example(("reciprocal_normal_moments", "mu"), None)
@example(("reciprocal_normal_moments", "k"), -0.0)
@example(("draw_sample", "rate"), None)
@example(("draw_sample", "rate"), 10**400)
@example(("budget_ratio_private_vs_public", "p"), math.nan)
@example(("budget_ratio_stratum_vs_population", "weight"), 0)
@example(("extrinsic_variance", "p"), None)
@example(("CiResult", "lower"), -math.inf)
@example(("RandomStream", "base_seed"), math.nan)
@example(("budget_ratio_private_vs_public", "weight"), 5e-324)
@example(("budget_ratio_private_vs_public", "weight"), 1e-300)
@example(("budget_ratio_private_vs_public", "weight"), 1e300)
@example(("budget_ratio_private_vs_public", "weight"), 1.7e308)
@example(("budget_ratio_private_vs_public", "weight"), 10**300)
@example(("budget_ratio_stratum_vs_population", "weight"), 5e-324)
@example(("budget_ratio_stratum_vs_population", "weight"), 1e-300)
@example(("budget_ratio_stratum_vs_population", "weight"), 1e300)
@example(("budget_ratio_stratum_vs_population", "weight"), 1.7e308)
@example(("budget_ratio_stratum_vs_population", "weight"), 10**300)
@example(("reciprocal_normal_moments", "mu"), 10**300)
@example(("reciprocal_normal_moments", "sigma"), 1e300)
@example(("reciprocal_normal_moments", "sigma"), 1.7e308)
@example(("reciprocal_normal_moments", "sigma"), 10**300)
@example(("ratio_estimator_k2_moments", "rho1"), 5e-324)
@example(("ratio_estimator_k2_moments", "rho2"), 5e-324)
@example(("ratio_estimator_k2_moments", "rho2"), 1e-300)
@example(("denominator_cv", "rho2"), 5e-324)
@example(("draw_sample", "rate"), 1.7e308)
@example(("gaussian_mechanism", "sensitivity"), 10**300)
def test_bad_scalar_is_typed_or_finite(slot, value):
    """One numeric argument replaced by a bad or extreme value: a typed error or a finite result."""
    _typed_or_finite(*slot, value)


# Unchecked before: each of these was accepted, or failed later or with the wrong cause.  A bool or an
# infinite budget that a call accepts can still give a finite result, so the property above passes them.
@pytest.mark.parametrize("call", [
    lambda: PrivacyBudget(True, 0.01),
    lambda: ExperimentConfig(proportion=True),
    lambda: reciprocal_normal_moments(10.0, 1.0, True),
    lambda: draw_sample(derive_stream(1, [0]), Population((2000,), (1000,)), [True]),
    lambda: derive_stream(1.5, [0]),
    lambda: derive_stream(1, [0.5]),
    lambda: RandomStream(1.5, 0),
    lambda: qq_data(TINY, 2.5),
    lambda: reciprocal_normal_moments(10.0, 1.0, 1.5),
    lambda: reciprocal_normal_moments(10.0, 1.0, 150),
    lambda: ExperimentConfig(rho=10**400),
    lambda: exact_stratum_variance(StratumDesign(10, 2), 2.0),
    lambda: exact_stratum_variance(StratumDesign(10, 2), math.nan),
    lambda: ratio_estimator_k2_moments(2.0, 100, 2000, 0.1, 0.1),
    lambda: ratio_estimator_k2_moments(math.nan, 100, 2000, 0.1, 0.1),
    lambda: budget_ratio_private_vs_public([1.0], [math.nan]),
    lambda: budget_ratio_stratum_vs_population([0.0]),
    lambda: extrinsic_variance(ONE, STR_PRIV, BUDGET, [None]),
    lambda: gaussian_mechanism(derive_stream(2, [0]), 0.5, 1.0, math.inf),
    lambda: theoretical_width_ratio(2000, 152, 0.5, math.inf, STR_PUB),
    lambda: width_ratio_lower_bound(100, math.inf, STR_PUB),
    lambda: denominator_cv(100, math.inf),
], ids=[
    "budget-bool", "config-proportion-bool", "k-bool", "rate-bool",
    "seed-1.5", "index-0.5", "stream-seed-1.5", "grid-2.5", "k-1.5", "k-150", "config-rho-1e400",
    "variance-p-2", "variance-p-nan", "k2-p-2", "k2-p-nan", "private-ratio-nan", "population-ratio-zero",
    "extrinsic-none", "mechanism-rho-inf", "width-ratio-rho-inf", "bound-rho-inf", "cv-rho-inf",
])
def test_out_of_domain_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


class TestWidthRatioSizes:
    """A closed form's (population_size, sample_size) pair is checked as a design checks it."""

    @pytest.mark.parametrize("N,n,text", [
        (2000, -5, "sample_size must be at least 2, got -5"),
        (2000, 1, "sample_size must be at least 2, got 1"),
        (math.inf, 100, "stratum sizes must be integers"),
        (math.nan, 100, "stratum sizes must be integers"),
    ])
    def test_theoretical_width_ratio_blames_the_sizes(self, N, n, text):
        with pytest.raises(ValidationError) as info:
            theoretical_width_ratio(N, n, 0.5, 0.01, STR_PUB)
        assert str(info.value) == text

    @pytest.mark.parametrize("N,n,text", [
        (50, 100, "sample_size 100 exceeds population_size 50"),
        (1, 100, "sample_size 100 exceeds population_size 1"),
    ])
    def test_ratio_estimator_moments_check_the_design(self, N, n, text):
        with pytest.raises(ValidationError) as info:
            ratio_estimator_k2_moments(0.5, n, N, 0.1, 0.1)
        assert str(info.value) == text


def test_nan_true_value_is_blamed_not_rho():
    with pytest.raises(ValidationError) as info:
        gaussian_mechanism(derive_stream(2, [0]), math.nan, 1.0, 0.1)
    assert str(info.value) == "true_value must lie in (-inf, inf), got nan"


class TestCheckNumber:
    """The checker's domain rules and texts."""

    def test_default_text(self):
        with pytest.raises(ValidationError) as info:
            _check_number("alpha", 1.5, "(0, 1)")
        assert str(info.value) == "alpha must lie in (0, 1), got 1.5"

    @pytest.mark.parametrize("value", [None, "0.5", math.nan, True, False, 10**400, -10**400, 1 + 2j])
    def test_not_a_number_in_range(self, value):
        with pytest.raises(ValidationError):
            _check_number("x", value, "[-inf, inf]")

    @pytest.mark.parametrize("interval,inside,outside", [
        ("(0, 1)", [1e-300, 0.5, 1 - 2**-53], [0.0, -0.0, 1.0, math.inf]),
        ("[0, 1]", [0.0, -0.0, 1.0, 0, 1], [-1e-300, 1.0 + 2**-52]),
        ("(0, inf)", [5e-324, 1e308, 10**300], [0.0, math.inf]),
        ("[-inf, inf]", [-math.inf, math.inf, 0.0], []),
    ])
    def test_bounds(self, interval, inside, outside):
        for value in inside:
            _check_number("x", value, interval)
        for value in outside:
            with pytest.raises(ValidationError):
                _check_number("x", value, interval)

    def test_integers_compare_exactly(self):
        _check_number("seed", 10**400, integer=True)
        _check_number("seed", 2**64 + 1, "[0, inf)", integer=True)
        with pytest.raises(ValidationError, match=r"^k must lie in \[0, 149\], got 150$"):
            _check_number("k", 150, "[0, 149]", integer=True)

    @pytest.mark.parametrize("value", [1.0, 1.5, True, None, math.nan, "1"])
    def test_integers_only(self, value):
        with pytest.raises(ValidationError, match="^n must be an integer, got "):
            _check_number("n", value, integer=True)

    def test_message_fields(self):
        with pytest.raises(ValidationError) as info:
            _check_number("p", -1, "[0, 1]", message="{name} = {value!r} is outside {interval}")
        assert str(info.value) == "p = -1 is outside [0, 1]"
