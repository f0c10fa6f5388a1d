"""Closed-form comparison toolkit.

Extrinsic variances (the variance privacy noise adds on top of sampling
variance), budget ratios between mechanisms, theoretical width ratios with
their lower bounds, and the conditional-moment machinery for the reciprocal
of a normal variable that underpins the private-sizes variance estimate.
Each mechanism's closed forms are its row of :data:`stratci.dp_ci.MECHANISMS`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    AlgorithmTag, PrivacyBudget, StratumDesign, ValidationError, _check_number, _design_facts, memoised, ordered_sum,
)
from .dp_ci import MECHANISMS, mechanism
from .estimators import exact_stratum_variance


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class ReciprocalMomentSeries(NamedTuple):
    """Truncated expansions of the conditional reciprocal-normal moments."""

    mean: float
    second_moment: float
    error_order: float  # size of the first omitted order, (sigma/mu)^(2k+2)


def reciprocal_normal_moments(mu: float, sigma: float, k: int) -> ReciprocalMomentSeries:
    """Order-k expansions of E(1/X | S) and E(1/X^2 | S), S = {1 <= X <= 2mu-1}.

    mean  = (1/mu)   * sum_{j=0..k} (2j-1)!! (sigma/mu)^(2j)
    second = (1/mu^2) * sum_{j=0..k} (2j+1)!! (sigma/mu)^(2j)

    with remainder O((sigma/mu)^(2k+2)); the j = 0 mean term is 1/mu by the
    (-1)!! = 1 convention.
    """
    _check_number("mu", mu, "(1, inf)")
    _check_number("sigma", sigma, "(0, inf)")
    _check_number("k", k, "[0, 149]", integer=True)  # (2k + 1)!! converts to a float up to k = 149
    mu = float(mu)  # an int mu's square may pass the float range
    try:
        r2 = (sigma / mu) ** 2
    except OverflowError:
        r2 = math.inf
    mean = 0.0
    second = 0.0
    r2j = 1.0
    for j in range(k + 1):
        mean += double_factorial(2 * j - 1) * r2j
        second += double_factorial(2 * j + 1) * r2j
        r2j *= r2
    series = ReciprocalMomentSeries(mean / mu, second / (mu * mu), r2j)
    if not all(map(math.isfinite, series)):
        raise ValidationError(f"sigma {sigma!r} is too large for mu {mu!r}: the order-{k} series is not finite")
    return series


# The root of 9x^3 + 6x^2 - 8x - 1: past it the order-2 spread even - odd^2 = x + 8x^2 - 6x^3 - 9x^4 is negative.
_K2_X_MAX = 0.7391935697695519


def ratio_estimator_k2_moments(
    p: float, n: int, population_size: int, rho1: float, rho2: float
) -> tuple[float, float]:
    """Order-2 conditional mean and variance of the noisy-count/noisy-size ratio.

    For c drawn without replacement at true proportion p, c_tilde = c +
    N(0, 1/(2 rho1)), n_tilde = n + N(0, 1/(2 rho2)), conditioned on the
    symmetric event {1 <= n_tilde <= 2n - 1}:

    mean     = p * sum_{j=0..2} (2j-1)!! x^j,       x = 1 / (2 n^2 rho2)
    variance = Var(p_hat) * sum (2j+1)!! x^j
               + p^2 * (sum (2j+1)!! x^j - (sum (2j-1)!! x^j)^2)
               + (1/(2 rho1 n^2)) * sum (2j+1)!! x^j

    The leading bias p x = p / (2 n^2 rho2) is the term the private-sizes
    mechanism leaves uncorrected (it vanishes under rho2 >> 1/n).
    """
    _check_number("p", p, "[0, 1]")
    _check_number("rho1", rho1, "(0, inf)")
    _check_number("rho2", rho2, "(0, inf)")
    var_phat = exact_stratum_variance(StratumDesign(population_size, n), p)
    x = 1.0 / (2.0 * n * n * rho2)
    if not x <= _K2_X_MAX:
        raise ValidationError(
            f"rho2 {rho2!r} is too small for n = {n}: x = 1/(2 n^2 rho2) = {x:.4g} is past {_K2_X_MAX:.4f}, "
            "where the order-2 variance turns negative"
        )
    odd = ordered_sum(double_factorial(2 * j - 1) * x**j for j in range(3))   # 1 + x + 3x^2
    even = ordered_sum(double_factorial(2 * j + 1) * x**j for j in range(3))  # 1 + 3x + 15x^2
    mean = p * odd
    variance = (
        var_phat * even
        + p * p * (even - odd * odd)
        + (1.0 / (2.0 * rho1 * n * n)) * even
    )
    if not math.isfinite(variance):
        raise ValidationError(f"rho1 {rho1!r} is too small for n = {n}: the order-2 variance is not finite")
    return mean, variance


def _finite(value: float, algorithm: AlgorithmTag, what: str, cause: str, *inputs) -> float:
    """``value``, once finite; else the error that blames ``cause.format(*inputs)``, formatted only then."""
    if not math.isfinite(value):
        raise ValidationError(f"{cause.format(*inputs)}: the {algorithm.value} {what.replace('_', ' ')} is not finite")
    return value


def _stratum_term(term: str, design, algorithm, budget, stratum_proportions) -> float:
    if algorithm is AlgorithmTag.NON_PRIVATE:
        return 0.0
    row = mechanism(algorithm, budget)
    if row.needs_proportions:
        what = f"{algorithm.value} {term.replace('_', ' ')}"
        if stratum_proportions is None or len(stratum_proportions) != len(design):
            raise ValidationError(f"the {what} needs one proportion per stratum")
        for p in stratum_proportions:
            _check_number(what, p, "[0, 1]", message="the {name} needs proportions in [0, 1], got {value}")
    cause = row.extrinsic_blame if term == "extrinsic_variance" else row.shift_blame
    return _finite(getattr(row, term)(design, budget, stratum_proportions), algorithm, term, cause, budget)


def extrinsic_variance(
    design: Sequence[StratumDesign],
    algorithm: AlgorithmTag,
    budget: PrivacyBudget,
    stratum_proportions: Sequence[float] | None = None,
) -> float:
    """Variance added by privacy noise on top of the sampling variance.

    Stratum noise, public sizes:   (1/(2 rho))  * sum_h w_h^2 / n_h^2
    Population noise:              (1/(2 rho1)) * max_h w_h^2 / n_h^2
    Stratum noise, private sizes:  (1/(2 rho1)) * sum_h w_h^2 / n_h^2
                                 + (1/(2 rho2)) * sum_h w_h^2 p_h^2 / n_h^2
    """
    return _stratum_term("extrinsic_variance", design, algorithm, budget, stratum_proportions)


def mean_shift(
    design: Sequence[StratumDesign],
    algorithm: AlgorithmTag,
    budget: PrivacyBudget,
    stratum_proportions: Sequence[float] | None = None,
) -> float:
    """Leading bias of the released point estimate over the true proportion.

    sum_h w_h p_h / (2 rho2 n_h^2) for stratum noise with private sizes, the
    noisy-size ratio's second-order term; zero for the other mechanisms.
    """
    return _stratum_term("mean_shift", design, algorithm, budget, stratum_proportions)


def _squares(weights: Sequence[float]) -> list[float]:
    """Each weight squared, over the largest square if four times their sum could leave the normal float range."""
    sq = [u * u for u in weights]
    if not sys.float_info.min <= max(sq) <= sys.float_info.max / (4 * len(sq)):  # the budget ratios are scale-free
        top = max(weights)
        sq = [(u / top) ** 2 for u in weights]
    return sq


def budget_ratio_stratum_vs_population(sampling_weights: Sequence[float]) -> float:
    """Extrinsic-variance ratio of stratum-level to population-level noise.

    sum u_h^2 / (2 max u_h^2) at the default even split; below 1 means
    stratum-level noise is cheaper, which stops holding once there are
    enough strata.
    """
    if not sampling_weights:
        raise ValidationError("at least one sampling weight is required")
    for u in sampling_weights:
        _check_number("sampling weight", u, "(0, inf)")
    sq = _squares(sampling_weights)
    return ordered_sum(sq) / (2.0 * max(sq))


def budget_ratio_private_vs_public(
    sampling_weights: Sequence[float], stratum_proportions: Sequence[float]
) -> float:
    """Extrinsic-variance ratio of private-sizes to public-sizes stratum noise.

    2 sum u_h^2 (1 + p_h^2) / sum u_h^2 at the even split; always in (2, 4],
    the factor-2 floor being the price of protecting sizes.
    """
    if not sampling_weights:
        raise ValidationError("at least one sampling weight is required")
    if len(sampling_weights) != len(stratum_proportions):
        raise ValidationError("weights and proportions must have equal length")
    for u, p in zip(sampling_weights, stratum_proportions):
        _check_number("sampling weight", u, "(0, inf)")
        _check_number("proportion", p, "[0, 1]")
    sq = _squares(sampling_weights)
    return 2.0 * ordered_sum(s * (1.0 + p * p) for s, p in zip(sq, stratum_proportions)) / ordered_sum(sq)


def theoretical_width_ratio(
    population_size: int, sample_size: int, p: float, rho: float, algorithm: AlgorithmTag
) -> float:
    """sqrt(Var(p_tilde)/Var(p_hat)) for a one-stratum design at even split.

    sqrt(1 + ((N-1)/(N-n)) * factor / (p (1-p) n rho)) with factor 1/2, 1,
    or 1 + p^2 depending on where noise enters.
    """
    StratumDesign(population_size, sample_size)
    _check_number("p", p, "(0, 1)")
    _check_number("rho", rho, "(0, inf)")
    if algorithm is AlgorithmTag.NON_PRIVATE:
        return 1.0
    row = mechanism(algorithm)
    if sample_size >= population_size:
        raise ValidationError("width ratio requires sample_size < population_size")
    N, n = population_size, sample_size
    denominator = p * (1.0 - p) * n * rho
    ratio = ((N - 1) / (N - n)) * row.p_factor(p) / denominator if denominator > 0.0 else math.inf
    at_best_p = ((N - 1) / (N - n)) * row.bound_factor / (n * rho)  # if not finite, rho is to blame, not p
    cause = "rho {0!r} is too small" if math.isinf(at_best_p) else "p {1!r} is too close to 0 or 1 for rho {0!r}"
    return _finite(math.sqrt(1.0 + ratio), algorithm, "width ratio", cause, rho, p)


def width_ratio_lower_bound(sample_size: int, rho: float, algorithm: AlgorithmTag) -> float:
    """Lower bound on the theoretical width ratio over all N and p.

    sqrt(1 + 2/(n rho)), sqrt(1 + 4/(n rho)), sqrt(1 + 2(1+sqrt 2)/(n rho)).
    Attained as N -> infinity at p = 1/2 for the public-sizes mechanisms and
    at p = sqrt(2) - 1 for the private-sizes one.
    """
    _check_number("sample_size", sample_size, "[1, 1e308]", integer=True)
    _check_number("rho", rho, "(0, inf)")
    if algorithm is AlgorithmTag.NON_PRIVATE:
        return 1.0
    row = mechanism(algorithm)
    bound = math.sqrt(1.0 + row.bound_factor / (sample_size * rho))
    return _finite(bound, algorithm, "width-ratio bound", "rho {0!r} is too small", rho)


@dataclass(frozen=True)
class WidthRatioReport:
    """Side-by-side width/variance comparison for one design.

    ``width_ratios`` and ``lower_bounds`` are populated only for one-stratum
    designs, where the closed forms apply, and only where the sampling
    variance they divide by is positive: not for a census (n = N) and not at
    a proportion of 0 or 1.  Both budget ratios are taken over the sampling
    weights u_h = N_h / n_h.
    """

    extrinsic_variances: tuple[tuple[AlgorithmTag, float], ...]
    width_ratios: tuple[tuple[AlgorithmTag, float], ...]
    lower_bounds: tuple[tuple[AlgorithmTag, float], ...]
    ratio_stratum_vs_population: float
    ratio_private_vs_public: float | None


def width_ratio_report(
    design: Sequence[StratumDesign],
    budget: PrivacyBudget,
    stratum_proportions: Sequence[float] | None = None,
) -> WidthRatioReport:
    """Assemble the comparison quantities for a design in one pass."""
    u = memoised(_design_facts, design).sampling_weights  # u_h = N_h / n_h
    vex = [
        (tag, extrinsic_variance(design, tag, budget, stratum_proportions))
        for tag, row in MECHANISMS.items()
        if stratum_proportions is not None or not row.needs_proportions
    ]
    twr: list[tuple[AlgorithmTag, float]] = []
    bounds: list[tuple[AlgorithmTag, float]] = []
    if len(design) == 1 and stratum_proportions is not None:
        (stratum,), (p,) = design, stratum_proportions
        N, n = stratum.population_size, stratum.sample_size
        if n < N and 0.0 < p < 1.0:  # Var(p_hat) > 0, so the width ratio is defined
            for tag in MECHANISMS:
                twr.append((tag, theoretical_width_ratio(N, n, p, budget.rho, tag)))
                bounds.append((tag, width_ratio_lower_bound(n, budget.rho, tag)))
    ratio_priv = (
        budget_ratio_private_vs_public(u, stratum_proportions)
        if stratum_proportions is not None
        else None
    )
    return WidthRatioReport(
        extrinsic_variances=tuple(vex),
        width_ratios=tuple(twr),
        lower_bounds=tuple(bounds),
        ratio_stratum_vs_population=budget_ratio_stratum_vs_population(u),
        ratio_private_vs_public=ratio_priv,
    )
