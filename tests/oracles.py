"""Oracles the tests check the package against.

The quadrature routines (they need scipy) are the independent oracle the
truncated reciprocal-moment series in ``stratci.analysis`` is checked
against, built before the series and kept free of any series code.  They
live with the tests because nothing at run time calls them, which keeps
scipy a test-only dependency.

:func:`reference_release` is the release path as first written, before each
private mechanism became one pass over its strata.  :func:`design_facts` and
:func:`sensitivity_report` derive the per-stratum design facts as each reader
did before ``core._design_facts`` held them all.

:func:`hypergeometric_trace` is numpy's ``random_hypergeometric`` for the
strata the lane-parallel count kernel draws, transcribed line by line from
numpy's C into scalar Python over numpy's own Philox words, recording which
branches each draw reached, so that the tests can show what they covered.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np
from operator import mul, truediv
from typing import NamedTuple, Sequence

from stratci import _ziggurat
from stratci.core import (
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
from stratci.dp_ci import (
    CV_NORMAL_APPROX_THRESHOLD,
    MECHANISMS,
    NOISY_SIZE_FLOOR,
    PrivateStratumRelease,
    RatioApproximationWarning,
    denominator_cv,
    mechanism,
)
from stratci.mechanisms import SensitivityReport
from stratci.randomness import RandomStream, child_normals

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Standard-normal mass beyond 40 sigma is ~1e-349, far below every tolerance
# used here, so integration limits are clamped there.
_T_CLAMP = 40.0


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


def conditional_reciprocal_moments_quadrature(mu: float, sigma: float) -> tuple[float, float]:
    """E(1/X | S) and E(1/X^2 | S) for X ~ N(mu, sigma^2), S = {1 <= X <= 2mu-1}.

    Adaptive Gauss-Kronrod quadrature of the truncated-normal integrands in
    standardized coordinates, normalized by the truncated mass.  Requested
    relative tolerance 1e-13 (hence absolute error well below 1e-12 on these
    sub-unit values).
    """
    if not mu > 1.0:
        raise ValidationError(f"mu must exceed 1, got {mu}")
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    from scipy.integrate import quad

    lim = min((mu - 1.0) / sigma, _T_CLAMP)
    mass = math.erf(lim / _SQRT2)
    mean_num, _ = quad(
        lambda t: _phi(t) / (mu + sigma * t), -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    second_num, _ = quad(
        lambda t: _phi(t) / (mu + sigma * t) ** 2, -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return mean_num / mass, second_num / mass


def truncated_even_moment(mu: float, sigma: float, half_width: float, order: int) -> float:
    """E[(X - mu)^(2k) | mu - a <= X <= mu + a] by quadrature.

    Equals sigma^(2k) (2k-1)!! up to a boundary term of size
    O(exp(-a^2 / (2 sigma^2)) a^(2k-1)).
    """
    if not half_width > 0.0:
        raise ValidationError(f"half_width must be positive, got {half_width}")
    if order < 1:
        raise ValidationError(f"order must be a positive integer, got {order}")
    from scipy.integrate import quad

    lim = min(half_width / sigma, _T_CLAMP)
    mass = math.erf(lim / _SQRT2)
    k2 = 2 * order
    num, _ = quad(
        lambda t: (sigma * t) ** k2 * _phi(t), -lim, lim,
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return num / mass


# --- The mechanisms as first written --------------------------------------
#
# The release bodies of ``stratci.dp_ci``, ``mechanisms.gaussian_releases``
# and the package's non-private estimate as they stood before each mechanism
# became one pass over its strata, copied verbatim with their fact helpers.
# ``reference_release`` calls them as ``dp_ci.release`` calls the package's
# own; a property test requires the same interval, releases, errors and
# warnings from both, bit for bit.


def gaussian_releases(
    normals: Sequence[float],
    true_values: Sequence[float],
    sensitivities: Sequence[float],
    rhos: Sequence[float],
) -> tuple[list[float], list[float]]:
    """Release each true_value + N(0, sensitivity^2 / (2 rho)); returns (values, noise variances).

    Value i scales the standard normal ``normals[i]``, which must be a fresh
    draw of a stream no other release reads (the first draw of its own
    stream, from ``randomness.standard_normals`` or ``child_normals``), and
    has its own sensitivity and rho.  Each release satisfies rho-zCDP for a
    sensitivity-``sensitivity`` query under the adjacency the sensitivity was
    computed for.  A zero noise variance releases the true value exactly.
    """
    values, noise_variances = [], []
    for x, sensitivity, rho, z in zip(true_values, sensitivities, rhos, normals):
        if not sensitivity > 0.0:
            raise ValidationError(f"sensitivity must be positive, got {sensitivity}")
        if not rho > 0.0:
            raise ValidationError(f"rho must be positive, got {rho}")
        v = sensitivity * sensitivity / (2.0 * rho)
        value = x if v == 0.0 else x + v**0.5 * z
        if not math.isfinite(value):  # the variance overflowed
            raise ValidationError(f"rho {rho!r} is too small: the noisy release is not finite")
        values.append(value)
        noise_variances.append(v)
    return values, noise_variances


def weights(design: Sequence[StratumDesign]) -> tuple[float, ...]:
    """Per stratum W_h = N_h / N, as ``build_design`` once stored it: N is the int sum of the N_k."""
    total = sum(s.population_size for s in design)
    return tuple(s.population_size / total for s in design)


def _estimate_facts(design: Sequence[StratumDesign]) -> tuple[tuple, ...]:
    """Per stratum n_h, w_h, w_h**2 and (N_h - n_h)/N_h."""
    w = weights(design)
    return (
        tuple(s.sample_size for s in design),
        w,
        tuple(x**2 for x in w),
        tuple((s.population_size - s.sample_size) / s.population_size for s in design),
    )


def design_facts(design: Sequence[StratumDesign]) -> dict[str, tuple]:
    """Per stratum, each field of ``core._DesignFacts``, by name, from the expression that field replaced."""
    w = weights(design)
    return {
        "sizes": tuple(s.sample_size for s in design),
        "weights": w,
        "squared_weights": tuple(x**2 for x in w),
        "fpcs": tuple((s.population_size - s.sample_size) / s.population_size for s in design),
        "deltas": tuple(1.0 / s.sample_size for s in design),
        "float_sizes": tuple(float(s.sample_size) for s in design),
        "populations": tuple((s.population_size, s.population_size - 1) for s in design),
        "shares": tuple(x / s.sample_size for x, s in zip(w, design)),
        "sampling_weights": tuple(s.population_size / s.sample_size for s in design),
        "constants": tuple(
            x**2 * ((s.population_size - s.sample_size) / s.population_size) / (s.sample_size - 1)
            for x, s in zip(w, design)
        ),
    }


def sensitivity_report(design: Sequence[StratumDesign]) -> SensitivityReport:
    """``mechanisms.sensitivities`` as first written, in a pass of its own over the strata."""
    delta_p = max(x / s.sample_size for x, s in zip(weights(design), design))
    constants = design_facts(design)["constants"]
    delta_v = max((C / s.sample_size) * (1.0 - 1.0 / s.sample_size) for C, s in zip(constants, design))
    return SensitivityReport(delta_p, delta_v)


class NonPrivateEstimate(NamedTuple):
    """Point and variance estimates, per stratum and aggregated."""

    proportion: float
    stratum_proportions: tuple[float, ...]
    variance: float
    stratum_variances: tuple[float, ...]


def non_private_estimate(
    design: Sequence[StratumDesign], counts: StratumCounts
) -> NonPrivateEstimate:
    """Full non-private estimate: proportions plus variance estimates.

    Each stratum variance is the unbiased ((N_h - n_h) / N_h) p_hat_h (1 - p_hat_h) / (n_h - 1).
    """
    check_paired(design, counts)
    sizes, weights, squared_weights, fpcs = memoised(_estimate_facts, design)
    per_stratum = tuple(map(truediv, counts.counts, sizes))
    stratum_vars = tuple([fpc * p * (1.0 - p) / (n - 1) for fpc, p, n in zip(fpcs, per_stratum, sizes)])
    return NonPrivateEstimate(
        ordered_sum(map(mul, weights, per_stratum)),
        per_stratum,
        ordered_sum(map(mul, squared_weights, stratum_vars)),
        stratum_vars,
    )


def _clip_unit(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def _floor_zero(v: float) -> tuple[float, bool]:
    return (0.0, True) if v < 0.0 else (v, False)


def _interval(
    algorithm: AlgorithmTag, budget: PrivacyBudget, alpha: float, clip_interval: bool,
    point: float, variance: float, flags: ClipFlags, noise_variances: tuple[tuple[str, float], ...],
) -> CiResult:
    """point -/+ z_{1-alpha/2} sqrt(variance), each value clipped onto [0, 1] when ``clip_interval`` is set.

    Checks alpha, then finiteness, then the variance's sign; the clip's flag is set only when a bound moved.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ValidationError(
            f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1 when alpha is at most about 1.1e-16"
        )
    if not (math.isfinite(point) and math.isfinite(variance)):
        raise ValidationError("the point or variance estimate is not finite; the privacy budget rho may be too small")
    if variance < 0.0:
        raise ValidationError(f"variance must be nonnegative, got {variance}")
    half_width = normal_quantile(1.0 - alpha / 2.0) * variance**0.5
    lower, upper = point - half_width, point + half_width
    if clip_interval:
        (lower, lower_moved), (upper, upper_moved), (point, _) = map(_clip_unit, (lower, upper, point))
        if lower_moved or upper_moved:
            flags = dataclasses.replace(flags, interval_clipped=True)
    return CiResult(point, variance, lower, upper, alpha, algorithm, budget, flags, noise_variances)


def _weights(design: Sequence[StratumDesign]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per stratum w_h and w_h**2."""
    w = weights(design)
    return w, tuple(x**2 for x in w)


def _stratum_interval(
    algorithm: AlgorithmTag, budget: PrivacyBudget, alpha: float, clip_interval: bool,
    design: Sequence[StratumDesign], releases: list[PrivateStratumRelease],
    noise_variances: tuple[tuple[str, float], ...],
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...]]:
    """The interval of the weighted per-stratum releases; a flag is set if any stratum set it."""
    proportion, variance, *_, proportion_clipped, variance_floored, noisy_size_floored, _ = zip(*releases)
    weights, squared_weights = memoised(_weights, design)
    ci = _interval(
        algorithm, budget, alpha, clip_interval,
        ordered_sum(map(mul, weights, proportion)),
        ordered_sum(map(mul, squared_weights, variance)),
        ClipFlags(any(proportion_clipped), False, any(variance_floored), any(noisy_size_floored)),
        noise_variances,
    )
    return ci, tuple(releases)


def _public_sizes_facts(design: Sequence[StratumDesign]) -> tuple[tuple, ...]:
    """Per stratum: n_h, the proportion's sensitivity 1/n_h, (N_h - n_h)/N_h and the noise label."""
    return (
        tuple(s.sample_size for s in design),
        tuple(1.0 / s.sample_size for s in design),
        tuple((s.population_size - s.sample_size) / s.population_size for s in design),
        tuple(f"stratum_proportion[{h}]" for h in range(len(design))),
    )


def stratum_noise_public_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...]]:
    """Stratum-level noise with public sample sizes.

    Per stratum: p_tilde_h = p_hat_h + N(0, 1/(2 rho n_h^2)), then the
    bias-corrected variance estimate

        V_tilde_h = ((N_h - n_h)/N_h) (p_tilde_h (1 - p_tilde_h) + s2) / (n_h - 1) + s2

    with s2 the injected noise variance; adding s2 back inside undoes the
    downward bias E[p_tilde(1-p_tilde)] = p_hat(1-p_hat) - s2.  Proportions
    are clipped onto [0, 1] before the variance computation when requested.
    Spends the full (unsplit) budget.
    """
    check_paired(design, counts)
    sizes, deltas, fpcs, labels = memoised(_public_sizes_facts, design)
    # Stratum h draws its noise from stream child(h).
    noisy, variances = gaussian_releases(
        child_normals(stream, *MECHANISMS[AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES].noise_shape(len(sizes))),
        [c / n for c, n in zip(counts.counts, sizes)],
        deltas,
        [budget.rho] * len(sizes),
    )
    releases = []
    for n, fpc, value, s2 in zip(sizes, fpcs, noisy, variances):
        p_tilde, was_clipped = _clip_unit(value) if clip_proportions else (value, False)
        v_raw = fpc * (p_tilde * (1.0 - p_tilde) + s2) / (n - 1) + s2
        v_tilde, floored = _floor_zero(v_raw)
        releases.append(PrivateStratumRelease(p_tilde, v_tilde, s2, None, None, None, None, was_clipped, floored))
    return _stratum_interval(
        AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES, budget, alpha, clip_interval,
        design, releases, tuple(zip(labels, variances)),
    )


def population_noise_public_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
) -> tuple[CiResult, None]:
    """Population-level noise with public sample sizes.

    p_tilde = p_hat + N(0, Dp^2/(2 rho1)); the variance estimate adds the
    known extrinsic term Dp^2/(2 rho1) and is itself released through a
    second Gaussian mechanism at sensitivity DV with budget rho2, or exactly
    when every stratum is a census and DV is 0.  A noisy variance driven
    negative is floored at zero (flagged), yielding a degenerate zero-width
    interval rather than a failure.  No per-stratum quantity is released, so
    the second element is always None.
    """
    est = non_private_estimate(design, counts)  # checks that counts pair with design
    row = mechanism(AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES, budget)  # checks the budget split
    sens = sensitivity_report(design)
    # The proportion draws its noise from stream child(0), the variance from child(1).
    z_p, z_v = child_normals(stream, *row.noise_shape(len(design)))
    (p_noisy,), (p_noise_variance,) = gaussian_releases(
        (z_p,), (est.proportion,), (sens.proportion,), (budget.rho1,)
    )
    p_tilde, was_clipped = _clip_unit(p_noisy) if clip_proportions else (p_noisy, False)
    variance = est.variance + p_noise_variance
    if sens.variance == 0.0:
        # Every stratum is a census: the variance estimate is 0 whatever the
        # data, a sensitivity-0 query that is 0-zCDP, so it is released exactly.
        v_noisy, v_noise_variance = variance, 0.0
    else:
        (v_noisy,), (v_noise_variance,) = gaussian_releases(
            (z_v,), (variance,), (sens.variance,), (budget.rho2,)
        )
    v_tilde, floored = _floor_zero(v_noisy)
    ci = _interval(
        AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES, budget, alpha, clip_interval, p_tilde, v_tilde,
        ClipFlags(proportion_clipped=was_clipped, variance_floored=floored),
        (("population_proportion", p_noise_variance), ("variance_estimate", v_noise_variance)),
    )
    return ci, None


def _private_sizes_facts(design: Sequence[StratumDesign]) -> tuple:
    """The smallest n_h; per stratum float(n_h), (N_h, N_h - 1), and the count and size noise labels."""
    return (
        min(s.sample_size for s in design),
        tuple(float(s.sample_size) for s in design),
        tuple((s.population_size, s.population_size - 1) for s in design),
        tuple(label for h in range(len(design)) for label in (f"stratum_count[{h}]", f"stratum_size[{h}]")),
    )


def stratum_noise_private_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...]]:
    """Stratum-level noise protecting both counts and sample sizes.

    Per stratum: c_tilde = c + N(0, 1/(2 rho1)); n_tilde = max(n + N(0,
    1/(2 rho2)), 2); p_tilde = c_tilde / n_tilde, and

        V_tilde_h = ((N_h - n_tilde)/(N_h - 1)) p_tilde (1-p_tilde) / n_tilde
                    + 1/(2 rho1 n_tilde^2) + p_tilde^2 / (2 rho2 n_tilde^2),

    the second-order moment expansion of the ratio-of-normals variance.  The
    finite-population factor is floored at zero if the noisy size exceeds the
    stratum population; the two additive noise terms are kept.  Warns when the
    denominator's coefficient of variation strains the normal approximation.
    """
    check_paired(design, counts)
    row = mechanism(AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES, budget)  # checks the budget split
    smallest, sizes, populations, labels = memoised(_private_sizes_facts, design)
    worst_cv = denominator_cv(smallest, budget.rho2)
    if worst_cv >= CV_NORMAL_APPROX_THRESHOLD:
        warnings.warn(
            f"noisy-size coefficient of variation {worst_cv:.3g} is at or above "
            f"{CV_NORMAL_APPROX_THRESHOLD}; the ratio's normal approximation may be poor",
            RatioApproximationWarning,
            # Name the line that called release, or this mechanism when called directly.
            stacklevel=3 if sys._getframe(1).f_globals is globals() else 2,
        )
    # Stratum h releases its count from stream child(h, 0), its size from child(h, 1).
    true_values = []
    for c, n in zip(counts.counts, sizes):
        true_values += (float(c), n)
    noisy, variances = gaussian_releases(
        child_normals(stream, *row.noise_shape(len(sizes))), true_values, [1.0] * len(true_values),
        [budget.rho1, budget.rho2] * len(sizes),
    )
    releases = []
    for (N, N_less_1), c_noisy, n_noisy, count_variance, size_variance in zip(
        populations, noisy[::2], noisy[1::2], variances[::2], variances[1::2]
    ):
        size_floored = n_noisy < NOISY_SIZE_FLOOR
        n_tilde = NOISY_SIZE_FLOOR if size_floored else n_noisy
        ratio = c_noisy / n_tilde
        p_tilde, was_clipped = _clip_unit(ratio) if clip_proportions else (ratio, False)
        fpc, fpc_floored = _floor_zero((N - n_tilde) / N_less_1)
        nsq = n_tilde * n_tilde
        v_raw = (
            fpc * p_tilde * (1.0 - p_tilde) / n_tilde
            + count_variance / nsq
            + p_tilde * p_tilde * size_variance / nsq
        )
        v_tilde, floored = _floor_zero(v_raw)
        releases.append(PrivateStratumRelease(
            p_tilde, v_tilde, None, c_noisy, n_tilde, count_variance, size_variance,
            was_clipped, floored, size_floored, fpc_floored,
        ))
    return _stratum_interval(
        AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES, budget, alpha, clip_interval,
        design, releases, tuple(zip(labels, variances)),
    )


def reference_release(
    algorithm: AlgorithmTag,
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...] | None]:
    """What ``dp_ci.release`` returned, raised and warned before the one-pass mechanisms."""
    return globals()[mechanism(algorithm).function](
        stream, design, counts, budget, alpha,
        clip_proportions=clip_proportions, clip_interval=clip_interval,
    )


_LOGFACT = np.frombuffer(_ziggurat.LOGFACT, dtype="<f8").tolist()


def logfactorial(k: int) -> float:
    """numpy's ``logfactorial``, as written in C."""
    const_halfln2pi = 0.9189385332046728
    if k < len(_LOGFACT):
        return _LOGFACT[k]
    return (k + 0.5) * math.log(k) - k + (const_halfln2pi + (1.0 / k) * (1 / 12.0 - 1 / (360.0 * k * k)))


def hrua_setup(good: int, bad: int, sample: int) -> dict:
    """The variables ``hypergeometric_hrua`` sets before its loop, by their C names."""
    popsize = good + bad
    computed_sample = min(sample, popsize - sample)
    mingoodbad = min(good, bad)
    maxgoodbad = max(good, bad)
    p = mingoodbad / popsize
    q = maxgoodbad / popsize
    mu = computed_sample * p
    a = mu + 0.5
    var = float(popsize - computed_sample) * computed_sample * p * q / (popsize - 1)
    c = math.sqrt(var + 0.5)
    h = 1.7155277699214135 * c + 0.8989161620588988
    m = math.floor(float(computed_sample + 1) * (mingoodbad + 1) / (popsize + 2))
    g = (logfactorial(m) + logfactorial(mingoodbad - m) + logfactorial(computed_sample - m)
         + logfactorial(maxgoodbad - computed_sample + m))
    b = min(min(computed_sample, mingoodbad) + 1, math.floor(a + 16 * c))
    return dict(computed_sample=computed_sample, mingoodbad=mingoodbad, maxgoodbad=maxgoodbad, a=a, h=h, m=m, g=g, b=b)


def hrua_t(setup: dict, K: int) -> float:
    """T = g - gp of a try that landed on K."""
    cs, lo, hi = setup["computed_sample"], setup["mingoodbad"], setup["maxgoodbad"]
    gp = logfactorial(K) + logfactorial(lo - K) + logfactorial(cs - K) + logfactorial(hi - cs + K)
    return setup["g"] - gp


def hypergeometric_trace(
    base_seed: int, stream_id: int, population_sizes, positive_counts, sample_sizes
) -> tuple[tuple[int, ...], set[str]]:
    """The counts ``hypergeometric_counts`` draws from stream (base_seed, stream_id), and the branches reached.

    Every stratum must be a census (n = N, which draws nothing) or in
    numpy's ratio-of-uniforms regime (10 <= n <= N - 10).  The branch names
    are "census", "K in {0, N}", "range", "fast accept", "fast reject",
    "log test", "stirling", "good > bad" and "cs < sample".
    """
    bitgen = np.random.Philox(key=np.array([base_seed & (2**64 - 1), stream_id], dtype=np.uint64))
    reached = set()

    def next_double() -> float:
        return (int(bitgen.random_raw()) >> 11) * (1.0 / 9007199254740992.0)

    counts = []
    for popsize, good, sample in zip(population_sizes, positive_counts, sample_sizes):
        if sample == popsize:
            reached.add("census")
            counts.append(good)
            continue
        assert 10 <= sample <= popsize - 10
        bad = popsize - good
        if good in (0, popsize):
            reached.add("K in {0, N}")
        setup = hrua_setup(good, bad, sample)
        a, h, b, computed_sample = setup["a"], setup["h"], setup["b"], setup["computed_sample"]
        m, lo, hi = setup["m"], setup["mingoodbad"], setup["maxgoodbad"]
        if max(m, lo - m, computed_sample - m, hi - computed_sample + m) >= len(_LOGFACT):
            reached.add("stirling")  # in g, which every draw reads
        while True:
            U = next_double()
            V = next_double()
            X = a + h * (V - 0.5) / U
            if X < 0.0 or X >= b:
                reached.add("range")
                continue
            K = math.floor(X)
            T = hrua_t(setup, K)
            if U * (4.0 - U) - 3.0 <= T:
                reached.add("fast accept")
                break
            if U * (U - T) >= 1:
                reached.add("fast reject")
                continue
            reached.add("log test")
            if 2.0 * math.log(U) <= T:
                break
        if good > bad:
            reached.add("good > bad")
            K = computed_sample - K
        if computed_sample < sample:
            reached.add("cs < sample")
            K = good - K
        counts.append(K)
    return tuple(counts), reached
