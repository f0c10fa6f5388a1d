"""Non-private design-based estimation: stratified proportion and Wald CI."""

from __future__ import annotations

import math
from operator import truediv
from typing import Sequence

import numpy as np

from .core import (
    AlgorithmTag,
    CiResult,
    Design,
    StratumCounts,
    StratumDesign,
    ValidationError,
    _BlockCounts,
    _DesignFacts,
    _design_facts,
    check_paired,
    memoised,
    normal_quantile,
)


def sample_proportions(
    design: Sequence[StratumDesign], counts: StratumCounts
) -> tuple[float, tuple[float, ...]]:
    """Return (p_hat, per-stratum p_hat_h) with p_hat_h = c_h / n_h."""
    check_paired(design, counts)
    facts = memoised(_design_facts, design)
    return _stratified(counts.counts, facts)[0], tuple(map(truediv, counts.counts, facts.sizes))


def exact_stratum_variance(stratum: StratumDesign, p_h: float) -> float:
    """Exact design variance of p_hat_h at true proportion p_h (divides by n_h).

    ((N_h - n_h) / (N_h - 1)) * p_h (1 - p_h) / n_h.  Distinct from the
    plug-in estimate ((N_h - n_h) / N_h) * p_hat_h (1 - p_hat_h) / (n_h - 1)
    that :func:`_stratified` adds: this is the sampling-theory variance, and
    the two use different finite-population corrections.
    """
    N, n = stratum.population_size, stratum.sample_size
    return ((N - n) / (N - 1)) * p_h * (1.0 - p_h) / n


def _stratified(counts, facts: _DesignFacts):
    """(p_hat, V_hat): w_h p_h and w_h**2 fpc_h p_h (1 - p_h)/(n_h - 1), p_h = c_h/n_h, added from 0.0 stratum by stratum.

    ``counts`` is one count per stratum, or the rows of an (H x R) block: ``0.0 + row`` has ``np.zeros(R) + row``'s bits.
    """
    point = variance = 0.0
    for c, n, w, w2, fpc in zip(counts, *facts[:4]):
        p = c / n
        point += w * p
        variance += w2 * (fpc * p * (1.0 - p) / (n - 1))
    return point, variance


def _wald_block(design: Sequence[StratumDesign], counts: np.ndarray, alpha: float, clip_interval: bool):
    """The bits of :func:`non_private_ci`, clipped if ``clip_interval``, per column of an (H x R) count block.

    Returns (lower, upper, point) arrays, from :func:`_stratified` over the block's rows, and per column
    its int counts: on a :class:`Design`, a ``core._BlockCounts`` carrying the design, checked here, and
    the unclipped (p_hat, V_hat); on any other sequence, a plain ``StratumCounts``.
    """
    if counts.dtype.kind not in "iu" or counts.ndim != 2 or len(counts) != len(design):
        raise ValidationError("a count block must be an integer array with one row per stratum")
    z = _wald_quantile(alpha)
    facts = memoised(_design_facts, design)
    if ((counts < 0) | (counts > np.array(facts.sizes)[:, None])).any():
        raise ValidationError("each count must lie in [0, n_h]")
    point, variance = _stratified(counts, facts)
    variances = variance.tolist()
    half_width = np.array([z * v**0.5 for v in variances])
    bounds = point - half_width, point + half_width, point
    if clip_interval:
        bounds = tuple(np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x)) for x in bounds)
    columns = map(tuple, counts.T.tolist())
    if type(design) is not Design:  # a list may change before the release, which must check its counts then
        return bounds, list(map(StratumCounts, columns))
    return bounds, list(map(_BlockCounts, columns, [design] * len(variances), zip(point.tolist(), variances)))


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
) -> CiResult:
    """estimate +/- z_{1-alpha/2} * sqrt(variance) as a CiResult."""
    return CiResult(estimate, variance, *_wald_bounds(estimate, variance, alpha), alpha, algorithm)


def non_private_ci(
    design: Sequence[StratumDesign], counts: StratumCounts, alpha: float
) -> CiResult:
    """Classic stratified Wald interval from observed counts."""
    check_paired(design, counts)
    return wald_interval(*_stratified(counts.counts, memoised(_design_facts, design)), alpha)
