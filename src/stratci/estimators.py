"""Non-private design-based estimation: stratified proportion and Wald CI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, mul, truediv
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    AlgorithmTag,
    CiResult,
    ClipFlags,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    check_paired,
    memoised,
    normal_quantile,
    ordered_sum,
)


@dataclass(frozen=True)
class NonPrivateEstimate:
    """Point and variance estimates, per stratum and aggregated.

    By construction ``proportion == ordered_sum(w_h * stratum_proportions[h])``
    and ``variance == ordered_sum(w_h**2 * stratum_variances[h])`` exactly.
    """

    proportion: float
    stratum_proportions: tuple[float, ...]
    variance: float
    stratum_variances: tuple[float, ...]


def sample_proportions(
    design: Sequence[StratumDesign], counts: StratumCounts
) -> tuple[float, tuple[float, ...]]:
    """Return (p_hat, per-stratum p_hat_h) with p_hat_h = c_h / n_h."""
    est = non_private_estimate(design, counts)
    return est.proportion, est.stratum_proportions


def stratum_variance_estimate(stratum: StratumDesign, p_hat_h: float) -> float:
    """Unbiased within-stratum variance estimate (divides by n_h - 1).

    ((N_h - n_h) / N_h) * p_hat_h (1 - p_hat_h) / (n_h - 1).
    """
    N, n = stratum.population_size, stratum.sample_size
    return ((N - n) / N) * p_hat_h * (1.0 - p_hat_h) / (n - 1)


def exact_stratum_variance(stratum: StratumDesign, p_h: float) -> float:
    """Exact design variance of p_hat_h at true proportion p_h (divides by n_h).

    ((N_h - n_h) / (N_h - 1)) * p_h (1 - p_h) / n_h.  Distinct from
    :func:`stratum_variance_estimate`: this is the sampling-theory variance,
    not its plug-in estimator; the two use different finite-population
    corrections.
    """
    N, n = stratum.population_size, stratum.sample_size
    if N == 1:
        return 0.0
    return ((N - n) / (N - 1)) * p_h * (1.0 - p_h) / n


class _DesignFacts(NamedTuple):
    """Per stratum, what the estimators and the private mechanisms read of a design."""

    sizes: tuple[int, ...]                    # n_h
    weights: tuple[float, ...]                # w_h
    squared_weights: tuple[float, ...]        # w_h**2
    fpcs: tuple[float, ...]                   # (N_h - n_h)/N_h
    deltas: tuple[float, ...]                 # 1/n_h, the sensitivity of p_hat_h
    float_sizes: tuple[float, ...]            # float(n_h)
    populations: tuple[tuple[int, int], ...]  # (N_h, N_h - 1)


def _design_facts(design: Sequence[StratumDesign]) -> _DesignFacts:
    """The facts of every stratum, in one pass; keep them with ``memoised(_design_facts, design)``."""
    return _DesignFacts(*zip(*[
        (n, w, w**2, (N - n) / N, 1.0 / n, float(n), (N, N - 1))
        for N, n, w in map(attrgetter("population_size", "sample_size", "weight"), design)
    ]))


def _wald_block(design: Sequence[StratumDesign], counts: np.ndarray, alpha: float, clip_interval: bool):
    """The bits of :func:`non_private_ci`, clipped if ``clip_interval``, per column of an (H x R) count block.

    Returns (lower, upper, point) arrays.  Strata add row by row from
    zeros, as :func:`ordered_sum` adds for every R.
    """
    z = _wald_quantile(alpha)
    facts = memoised(_design_facts, design)
    if ((counts < 0) | (counts > np.array(facts.sizes)[:, None])).any():
        raise ValidationError("each count must lie in [0, n_h]")
    point, variance = np.zeros(counts.shape[1]), np.zeros(counts.shape[1])
    for c, n, w, w2, fpc in zip(counts, *facts[:4]):
        p = c / n
        point += w * p
        variance += w2 * (fpc * p * (1.0 - p) / (n - 1))
    half_width = np.array([z * v**0.5 for v in variance.tolist()])
    lower, upper = point - half_width, point + half_width
    if clip_interval:
        return tuple(np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x)) for x in (lower, upper, point))
    return lower, upper, point


def non_private_estimate(
    design: Sequence[StratumDesign], counts: StratumCounts
) -> NonPrivateEstimate:
    """Full non-private estimate: proportions plus variance estimates.

    Each stratum variance equals :func:`stratum_variance_estimate` at p_hat_h,
    bit for bit.
    """
    check_paired(design, counts)
    sizes, weights, squared_weights, fpcs, *_ = memoised(_design_facts, design)
    per_stratum = tuple(map(truediv, counts.counts, sizes))
    stratum_vars = tuple([fpc * p * (1.0 - p) / (n - 1) for fpc, p, n in zip(fpcs, per_stratum, sizes)])
    return NonPrivateEstimate(
        ordered_sum(map(mul, weights, per_stratum)),
        per_stratum,
        ordered_sum(map(mul, squared_weights, stratum_vars)),
        stratum_vars,
    )


def _wald_quantile(alpha: float) -> float:
    """z_{1-alpha/2}, once alpha lies in (0, 1) and 1 - alpha/2 is below 1."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    q = 1.0 - alpha / 2.0
    if not q < 1.0:
        raise ValidationError(
            f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1 when alpha is at most about 1.1e-16"
        )
    return normal_quantile(q)


def _wald_bounds(estimate: float, variance: float, alpha: float) -> tuple[float, float]:
    """estimate -/+ z_{1-alpha/2} sqrt(variance), checking alpha, then finiteness, then the variance's sign."""
    z = _wald_quantile(alpha)
    if not (math.isfinite(estimate) and math.isfinite(variance)):
        raise ValidationError(
            "the point or variance estimate is not finite; the privacy budget rho may be too small"
        )
    if variance < 0.0:
        raise ValidationError(f"variance must be nonnegative, got {variance}")
    half_width = z * variance**0.5
    return estimate - half_width, estimate + half_width


def wald_interval(
    estimate: float,
    variance: float,
    alpha: float,
    *,
    algorithm: AlgorithmTag = AlgorithmTag.NON_PRIVATE,
    budget: PrivacyBudget | None = None,
    clipped: ClipFlags = ClipFlags(),
    noise_variances: tuple[tuple[str, float], ...] = (),
) -> CiResult:
    """estimate +/- z_{1-alpha/2} * sqrt(variance) as a CiResult."""
    lower, upper = _wald_bounds(estimate, variance, alpha)
    return CiResult(estimate, variance, lower, upper, alpha, algorithm, budget, clipped, noise_variances)


def non_private_ci(
    design: Sequence[StratumDesign], counts: StratumCounts, alpha: float
) -> CiResult:
    """Classic stratified Wald interval from observed counts."""
    est = non_private_estimate(design, counts)
    return wald_interval(est.proportion, est.variance, alpha)
