"""Differentially private confidence intervals for stratified proportions.

Three mechanisms are provided, differing in where noise enters and in which
design facts stay public:

* :func:`stratum_noise_public_sizes` — Gaussian noise on each stratum
  proportion; sample sizes public; single (unsplit) budget.  Satisfies
  rho-zCDP under substitute-one-within-a-stratum adjacency.
* :func:`population_noise_public_sizes` — noise on the aggregate proportion
  and on its variance estimate; budget split rho = rho1 + rho2.  Same
  adjacency.
* :func:`stratum_noise_private_sizes` — noise on each stratum's count and
  sample size; budget split rho = rho1 + rho2.  Satisfies rho-zCDP under
  remove/add-one adjacency, protecting the sizes themselves.

All three share one signature and return ``(CiResult, per-stratum releases
or None)``; :func:`release` calls one, with its records, by its tag.  The
releases are None for the population-level mechanism, and for a mechanism
called with ``per_stratum=False``, which builds no per-stratum record and
leaves the interval's bits, flags and errors as they are: the simulation
harness scores only the interval, and ``stratci ci`` prints the records.
:data:`MECHANISMS` holds one row per mechanism: its release function, its
repetition stream slot, its budget rule and its closed forms.

Each invocation owns a single stream and derives per-stratum substreams by
stratum index, so results do not depend on iteration order and repetitions
can run concurrently.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

from .core import (
    _CLIP_FLAGS,
    AlgorithmTag,
    CiResult,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    _clipped_to_unit,
    _design_facts,
    check_paired,
    memoised,
    ordered_sum,
)
from .estimators import _stratified, _wald_bounds, wald_interval
from .mechanisms import _noise_scale, _not_finite, gaussian_releases, sensitivities
from .randomness import RandomStream, child_normals

NOISY_SIZE_FLOOR = 2.0
CV_NORMAL_APPROX_THRESHOLD = 0.1


class RatioApproximationWarning(UserWarning):
    """Denominator noise is large enough to strain the normal approximation."""


class PrivateStratumRelease(NamedTuple):
    """Per-stratum private quantities released by the stratum-level mechanisms.

    ``noisy_count``/``noisy_size`` and their noise variances are populated
    only by the private-sizes mechanism.  ``variance`` is floored at zero, and
    ``fpc_floored`` marks a negative finite-population factor (noisy size
    exceeding the stratum population) that was zeroed.
    """

    proportion: float
    variance: float
    proportion_noise_variance: float | None = None
    noisy_count: float | None = None
    noisy_size: float | None = None
    count_noise_variance: float | None = None
    size_noise_variance: float | None = None
    proportion_clipped: bool = False
    variance_floored: bool = False
    noisy_size_floored: bool = False
    fpc_floored: bool = False


# A release from a tuple of all eleven fields: the constructor's argument
# handling costs more than the rest of a stratum's arithmetic.
_release = partial(tuple.__new__, PrivateStratumRelease)


def denominator_cv(sample_size: int, rho2: float) -> float:
    """Coefficient of variation of the noisy size n + N(0, 1/(2 rho2)).

    Values at or above :data:`CV_NORMAL_APPROX_THRESHOLD` mean the normal
    approximation for the count/size ratio is unreliable (rule of thumb).
    """
    return math.sqrt(1.0 / (2.0 * rho2)) / sample_size


@lru_cache(maxsize=64)
def _labels(strata: int, *names: str) -> tuple[str, ...]:
    """The noise labels ``f"{name}[{h}]"``, stratum by stratum and name by name within a stratum."""
    return tuple(f"{name}[{h}]" for h in range(strata) for name in names)


def _interval(
    algorithm: AlgorithmTag, budget: PrivacyBudget, alpha: float, clip_interval: bool, point: float,
    variance: float, proportion_clipped: bool, variance_floored: bool, noisy_size_floored: bool,
    noise_variances: tuple[tuple[str, float], ...],
) -> CiResult:
    """The bits and flags of ``wald_interval(...)``, then ``.clip_to_unit_interval()`` if asked, in one result."""
    lower, upper = _wald_bounds(point, variance, alpha)
    clipped = _clipped_to_unit(lower, upper, point) if clip_interval else None
    if clipped is not None:
        lower, upper, point = clipped
    flags = _CLIP_FLAGS[proportion_clipped, clipped is not None, variance_floored, noisy_size_floored]
    return CiResult(point, variance, lower, upper, alpha, algorithm, budget, flags, noise_variances)


def stratum_noise_public_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
    per_stratum: bool = True,
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...] | None]:
    """Stratum-level noise with public sample sizes.

    Per stratum: p_tilde_h = p_hat_h + N(0, 1/(2 rho n_h^2)), then the
    bias-corrected variance estimate

        V_tilde_h = ((N_h - n_h)/N_h) (p_tilde_h (1 - p_tilde_h) + s2) / (n_h - 1) + s2

    with s2 the injected noise variance; adding s2 back inside undoes the
    downward bias E[p_tilde(1-p_tilde)] = p_hat(1-p_hat) - s2.  Proportions
    are clipped onto [0, 1] before the variance computation when requested.
    Spends the full (unsplit) budget.  Returns the per-stratum releases, or
    None with ``per_stratum=False``.
    """
    check_paired(design, counts)
    facts = memoised(_design_facts, design)
    scales, noise_variances = memoised(_public_sizes_constants, design, budget)
    # Stratum h draws its noise from stream child(h).
    normals = child_normals(stream, *_public_sizes_shape(len(scales)))
    releases = [] if per_stratum else None
    point = variance = 0.0  # added stratum by stratum, as ordered_sum adds
    any_clipped = any_floored = False
    for c, n, (s2, sd), fpc, w, w2, z in zip(
        counts.counts, facts.sizes, scales, facts.fpcs, facts.weights, facts.squared_weights, normals
    ):
        value = c / n if s2 == 0.0 else c / n + sd * z
        if not math.isfinite(value):
            raise _not_finite(budget.rho)
        was_clipped = not 0.0 <= value <= 1.0 if clip_proportions else False
        p_tilde = (0.0 if value < 0.0 else 1.0) if was_clipped else value
        v_tilde = fpc * (p_tilde * (1.0 - p_tilde) + s2) / (n - 1) + s2
        floored = v_tilde < 0.0
        if floored:
            v_tilde = 0.0
        any_clipped |= was_clipped
        any_floored |= floored
        if per_stratum:
            releases.append(_release((
                p_tilde, v_tilde, s2, None, None, None, None, was_clipped, floored, False, False,
            )))
        point += w * p_tilde
        variance += w2 * v_tilde
    ci = _interval(
        _PUBLIC_SIZES, budget, alpha, clip_interval, point, variance, any_clipped, any_floored, False, noise_variances,
    )
    return ci, (tuple(releases) if per_stratum else None)


def _public_sizes_constants(design: Sequence[StratumDesign], budget: PrivacyBudget):
    """Per stratum the noise variance s2_h = (1/n_h)^2/(2 rho) and its square root, and the labelled s2_h."""
    rho = budget.rho
    scales = tuple([_noise_scale(delta, rho) for delta in memoised(_design_facts, design).deltas])
    return scales, tuple(zip(_labels(len(scales), "stratum_proportion"), [s2 for s2, _ in scales]))


def population_noise_public_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
    per_stratum: bool = True,
) -> tuple[CiResult, None]:
    """Population-level noise with public sample sizes.

    p_tilde = p_hat + N(0, Dp^2/(2 rho1)); the variance estimate adds the
    known extrinsic term Dp^2/(2 rho1) and is itself released through a
    second Gaussian mechanism at sensitivity DV with budget rho2, or exactly
    when every stratum is a census and DV is 0.  A noisy variance driven
    negative is floored at zero (flagged), yielding a degenerate zero-width
    interval rather than a failure.  No per-stratum quantity is released, so
    the second element is always None, whatever ``per_stratum`` says.
    Counts that ``_wald_block`` checked on this very design bring their (p_hat, V_hat), which it releases.
    """
    carried = check_paired(design, counts)
    p_scale, v_scale, noise_variances = memoised(_population_constants, design, budget)
    point, variance = carried or _stratified(counts.counts, memoised(_design_facts, design))
    # The proportion draws its noise from stream child(0), the variance from child(1).
    z_p, z_v = child_normals(stream, *_population_shape(len(design)))
    (p_noisy,) = gaussian_releases((z_p,), (point,), p_scale, budget.rho1)
    was_clipped = not 0.0 <= p_noisy <= 1.0 if clip_proportions else False
    p_tilde = (0.0 if p_noisy < 0.0 else 1.0) if was_clipped else p_noisy
    (v_noisy,) = gaussian_releases((z_v,), (variance + p_scale[0],), v_scale, budget.rho2)
    floored = v_noisy < 0.0
    v_tilde = 0.0 if floored else v_noisy
    ci = _interval(
        _POPULATION, budget, alpha, clip_interval, p_tilde, v_tilde, was_clipped, floored, False, noise_variances,
    )
    return ci, None


def _population_constants(design: Sequence[StratumDesign], budget: PrivacyBudget):
    """pop-pub's proportion and variance noise scales, and its labelled noise variances."""
    mechanism(AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES, budget)  # checks the budget split
    sens = sensitivities(design)
    p_scale = _noise_scale(sens.proportion, budget.rho1)
    # Every stratum a census makes the variance estimate 0 whatever the data:
    # a sensitivity-0 query, 0-zCDP, released exactly.
    v_scale = (0.0, 0.0) if sens.variance == 0.0 else _noise_scale(sens.variance, budget.rho2)
    return p_scale, v_scale, (("population_proportion", p_scale[0]), ("variance_estimate", v_scale[0]))


def stratum_noise_private_sizes(
    stream: RandomStream,
    design: Sequence[StratumDesign],
    counts: StratumCounts,
    budget: PrivacyBudget,
    alpha: float,
    *,
    clip_proportions: bool = False,
    clip_interval: bool = False,
    per_stratum: bool = True,
) -> tuple[CiResult, tuple[PrivateStratumRelease, ...] | None]:
    """Stratum-level noise protecting both counts and sample sizes.

    Per stratum: c_tilde = c + N(0, 1/(2 rho1)); n_tilde = max(n + N(0,
    1/(2 rho2)), 2); p_tilde = c_tilde / n_tilde, and

        V_tilde_h = ((N_h - n_tilde)/(N_h - 1)) p_tilde (1-p_tilde) / n_tilde
                    + 1/(2 rho1 n_tilde^2) + p_tilde^2 / (2 rho2 n_tilde^2),

    the second-order moment expansion of the ratio-of-normals variance.  The
    finite-population factor is floored at zero if the noisy size exceeds the
    stratum population; the two additive noise terms are kept.  Warns when the
    denominator's coefficient of variation strains the normal approximation.
    Returns the per-stratum releases, or None with ``per_stratum=False``.
    """
    check_paired(design, counts)
    warning, count_scale, size_scale, noise_variances = memoised(_private_sizes_constants, design, budget)
    if warning:
        warnings.warn(
            warning, RatioApproximationWarning,
            # Name the line that called release, or this mechanism when called directly.
            stacklevel=3 if sys._getframe(1).f_globals is globals() else 2,
        )
    facts = memoised(_design_facts, design)
    # Stratum h releases its count from stream child(h, 0), its size from child(h, 1).
    normals = child_normals(stream, *_private_sizes_shape(len(facts.sizes)))
    # A release is not finite only when its noise variance overflowed, which
    # makes every release of that variance non-finite: checking every count
    # before any size raises the error the stratum-by-stratum order would.
    noisy_counts = gaussian_releases(normals[::2], counts.counts, count_scale, budget.rho1)
    noisy_sizes = gaussian_releases(normals[1::2], facts.float_sizes, size_scale, budget.rho2)
    count_variance, size_variance = count_scale[0], size_scale[0]
    releases = [] if per_stratum else None
    point = variance = 0.0  # added stratum by stratum, as ordered_sum adds
    any_clipped = any_floored = any_size_floored = False
    for (N, N_less_1), w, w2, c_noisy, n_noisy in zip(
        facts.populations, facts.weights, facts.squared_weights, noisy_counts, noisy_sizes
    ):
        size_floored = n_noisy < NOISY_SIZE_FLOOR
        n_tilde = NOISY_SIZE_FLOOR if size_floored else n_noisy
        ratio = c_noisy / n_tilde
        was_clipped = not 0.0 <= ratio <= 1.0 if clip_proportions else False
        p_tilde = (0.0 if ratio < 0.0 else 1.0) if was_clipped else ratio
        fpc = (N - n_tilde) / N_less_1
        fpc_floored = fpc < 0.0
        if fpc_floored:
            fpc = 0.0
        nsq = n_tilde * n_tilde
        v_tilde = (
            fpc * p_tilde * (1.0 - p_tilde) / n_tilde
            + count_variance / nsq
            + p_tilde * p_tilde * size_variance / nsq
        )
        floored = v_tilde < 0.0
        if floored:
            v_tilde = 0.0
        any_clipped |= was_clipped
        any_floored |= floored
        any_size_floored |= size_floored
        if per_stratum:
            releases.append(_release((
                p_tilde, v_tilde, None, c_noisy, n_tilde, count_variance, size_variance,
                was_clipped, floored, size_floored, fpc_floored,
            )))
        point += w * p_tilde
        variance += w2 * v_tilde
    ci = _interval(
        _PRIVATE_SIZES, budget, alpha, clip_interval, point, variance, any_clipped, any_floored, any_size_floored,
        noise_variances,
    )
    return ci, (tuple(releases) if per_stratum else None)


def _private_sizes_constants(design: Sequence[StratumDesign], budget: PrivacyBudget):
    """str-priv's ratio warning (None below the CV threshold), count and size noise scales and labelled variances."""
    mechanism(AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES, budget)  # checks the budget split
    sizes = memoised(_design_facts, design).sizes
    worst_cv = denominator_cv(min(sizes), budget.rho2)
    warning = None
    if worst_cv >= CV_NORMAL_APPROX_THRESHOLD:
        warning = (
            f"noisy-size coefficient of variation {worst_cv:.3g} is at or above "
            f"{CV_NORMAL_APPROX_THRESHOLD}; the ratio's normal approximation may be poor"
        )
    count_scale, size_scale = _noise_scale(1.0, budget.rho1), _noise_scale(1.0, budget.rho2)
    labels = _labels(len(sizes), "stratum_count", "stratum_size")
    return warning, count_scale, size_scale, tuple(zip(labels, [count_scale[0], size_scale[0]] * len(sizes)))


def _wn2(design: Sequence[StratumDesign]) -> list[float]:
    return [share**2 for share in memoised(_design_facts, design).shares]


def _private_sizes_extrinsic(design, budget, p_h) -> float:
    wn2 = _wn2(design)
    return ordered_sum(wn2) / (2.0 * budget.rho1) + ordered_sum(
        v * p * p for v, p in zip(wn2, p_h)
    ) / (2.0 * budget.rho2)


class Mechanism(NamedTuple):
    """One private mechanism: how it is released, and its closed forms.

    ``function`` names the release function, looked up by ``_release_function``
    on each :func:`release` call and once per harness run, so that a rebinding
    of that module-level name (a wrapper or a test double) made before the call
    or run reaches it.  A repetition feeds it from stream child ``1 + slot``,
    fixed per mechanism so that no config's choice of algorithms shifts
    another's noise, and calls it with ``per_stratum=False``: a run keeps only
    the interval.  ``noise_shape(H)`` is the (children, fan) of the
    ``randomness.child_normals`` call that draws its noise at H strata.
    ``splits_budget`` marks a need for rho1 > 0 and rho2 > 0.  The closed forms
    are those of ``analysis``: ``extrinsic_variance`` and ``mean_shift`` take
    (design, budget, per-stratum proportions), read only if
    ``needs_proportions``; ``p_factor(p)`` multiplies 1/(p(1-p) n rho) in the
    one-stratum width ratio at the even split, and ``bound_factor`` is its
    numerator minimized over p, fpc dropped.
    """

    function: str
    slot: int
    noise_shape: Callable[[int], tuple[int, int]]
    splits_budget: bool
    extrinsic_variance: Callable
    mean_shift: Callable
    p_factor: Callable[[float], float]
    bound_factor: float
    needs_proportions: bool = False


MECHANISMS = {
    AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES: Mechanism(
        "stratum_noise_public_sizes", 0, lambda H: (H, 1), False,
        lambda design, budget, p_h: ordered_sum(_wn2(design)) / (2.0 * budget.rho),
        lambda *_: 0.0, lambda p: 0.5, 2.0,
    ),
    AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES: Mechanism(
        "population_noise_public_sizes", 1, lambda H: (2, 1), True,
        lambda design, budget, p_h: max(_wn2(design)) / (2.0 * budget.rho1),
        lambda *_: 0.0, lambda p: 1.0, 4.0,
    ),
    AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES: Mechanism(
        "stratum_noise_private_sizes", 2, lambda H: (H, 2), True,
        _private_sizes_extrinsic,
        lambda design, budget, p_h: ordered_sum(
            w * p / (2.0 * budget.rho2 * n**2) for n, w, p in zip(*memoised(_design_facts, design)[:2], p_h)
        ),
        lambda p: 1.0 + p * p, 2.0 * (1.0 + math.sqrt(2.0)), needs_proportions=True,
    ),
}
# Each body's tag and noise shape, bound from its row once: a release then reads no
# member of AlgorithmTag, whose class attributes go through EnumType.__getattr__.
(_PUBLIC_SIZES, _public_sizes_shape), (_POPULATION, _population_shape), (_PRIVATE_SIZES, _private_sizes_shape) = [
    (tag, row.noise_shape) for tag, row in MECHANISMS.items()
]


def mechanism(algorithm: AlgorithmTag, budget: PrivacyBudget | None = None) -> Mechanism:
    """The row of ``algorithm``; given ``budget``, also checks its split rule."""
    row = MECHANISMS.get(algorithm)
    if row is None:
        raise ValidationError(f"{algorithm} is not a private release mechanism")
    if budget is not None and row.splits_budget and not (budget.rho1 > 0.0 and budget.rho2 > 0.0):
        raise ValidationError(
            f"{algorithm.value} needs a budget split with rho1 > 0 and rho2 > 0, "
            f"got rho1 = {budget.rho1}, rho2 = {budget.rho2}"
        )
    return row


def _release_function(algorithm: AlgorithmTag) -> Callable:
    """The release function of ``algorithm``'s row, as this module binds its name now."""
    return globals()[mechanism(algorithm).function]


def release(
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
    """Release an interval through the private mechanism ``algorithm`` names.

    Returns what that mechanism returns: the interval, and its per-stratum
    releases (None for the population-level mechanism).  Looked up anew per
    call.
    """
    return _release_function(algorithm)(
        stream, design, counts, budget, alpha, clip_proportions=clip_proportions, clip_interval=clip_interval,
    )


def difference_ci(result_a: CiResult, result_b: CiResult, alpha: float) -> CiResult:
    """Wald interval for the difference of two independently released proportions.

    point = a - b, variance = Va + Vb.  The inputs must come from disjoint
    populations; their budgets apply per dataset (parallel composition), so
    the difference result carries no summed budget of its own.
    """
    return wald_interval(
        result_a.point_estimate - result_b.point_estimate,
        result_a.variance_estimate + result_b.variance_estimate,
        alpha,
        algorithm=AlgorithmTag.DIFFERENCE,
    )
