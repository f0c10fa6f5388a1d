"""Shared domain types: stratified designs, privacy budgets, CI results.

All types here are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeVar

WEIGHT_SUM_TOL = 1e-12


def ordered_sum(values: Iterable[float]) -> float:
    """The float sum added left to right from 0.0, as every CPython adds it.

    CPython 3.12 made the built-in ``sum`` of floats compensated, so its bits
    depend on the interpreter; this gives the bits of ``sum`` up to 3.11.  It
    equals ``functools.reduce(operator.add, values, 0.0)``, and the loop is
    the faster of the two.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class ValidationError(ValueError):
    """An input violates a documented domain invariant."""


class InfeasibleError(ValueError):
    """A requested configuration cannot produce a valid sampling design."""


class AlgorithmTag(enum.Enum):
    """Identifies which estimator produced a confidence interval.

    Values double as the wire names used by the CLI.
    """

    NON_PRIVATE = "nonprivate"
    STRATUM_NOISE_PUBLIC_SIZES = "str-pub"
    POPULATION_NOISE_PUBLIC_SIZES = "pop-pub"
    STRATUM_NOISE_PRIVATE_SIZES = "str-priv"
    DIFFERENCE = "difference"


@dataclass(frozen=True)
class StratumDesign:
    """Public design facts for one stratum.

    ``weight`` is the stratum's share of the population, N_h / N.  Sample
    sizes below 2 are rejected because the within-stratum variance estimator
    divides by n_h - 1.
    """

    population_size: int
    sample_size: int
    weight: float

    def __post_init__(self) -> None:
        n, N = self.sample_size, self.population_size
        if not (isinstance(N, int) and isinstance(n, int)):
            raise ValidationError("stratum sizes must be integers")
        if N < 1:
            raise ValidationError(f"population_size must be positive, got {N}")
        if N > sys.float_info.max:
            raise ValidationError("population_size is too large to represent as a float")
        if n < 2:
            raise ValidationError(f"sample_size must be at least 2, got {n}")
        if n > N:
            raise ValidationError(f"sample_size {n} exceeds population_size {N}")
        if not (0.0 < self.weight <= 1.0) or not math.isfinite(self.weight):
            raise ValidationError(f"weight must lie in (0, 1], got {self.weight}")

    @property
    def sampling_weight(self) -> float:
        """Number of population units each sampled unit represents, N_h / n_h."""
        return self.population_size / self.sample_size


class Design(tuple):
    """A stratified design: a tuple of :class:`StratumDesign`, one per stratum.

    It indexes, iterates, slices and compares as the plain tuple of its
    strata.  Being immutable, it also keeps the facts :func:`memoised`
    computes from it, in its own ``__dict__``, for as long as it lives.
    """


def build_design(sizes: Sequence[tuple[int, int]]) -> Design:
    """Build a stratified design from (population_size, sample_size) pairs.

    Weights are computed exactly as N_h / sum(N_k).
    """
    if not sizes:
        raise ValidationError("design must contain at least one stratum")
    smallest = min(N for N, _ in sizes)
    if smallest < 1:  # so that 0 < N_h / total <= 1
        raise ValidationError(f"population_size must be positive, got {smallest}")
    total = sum(N for N, _ in sizes)
    return Design(StratumDesign(N, n, N / total) for N, n in sizes)


def build_design_with_weights(
    sizes: Sequence[tuple[int, int]], weights: Sequence[float]
) -> Design:
    """Build a design from explicit weights.

    The weights must sum to 1 within ``WEIGHT_SUM_TOL``; inconsistent weights
    are rejected rather than renormalized.
    """
    if len(sizes) != len(weights):
        raise ValidationError("sizes and weights must have equal length")
    total = ordered_sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
    return Design(StratumDesign(N, n, w) for (N, n), w in zip(sizes, weights))


_T = TypeVar("_T")


def memoised(compute: Callable[..., _T], design: Sequence[StratumDesign], budget: PrivacyBudget | None = None) -> _T:
    """``compute(design)``, or ``compute(design, budget)``, kept on a :class:`Design`.

    A fact of the design alone is kept for the design's life.  A fact of a
    budget too is kept for the budget's values (rho1, rho2) until a call with
    other values replaces it: one (values, fact) pair per function, so the
    facts a design keeps stay bounded, and a thread reads a whole pair or
    none.  Any other sequence, such as a hand-built tuple or a list, is
    computed afresh on each call, so mutating a list between calls is safe.
    A computation that raises keeps nothing, so it raises again next time.
    """
    if type(design) is not Design:
        return compute(design) if budget is None else compute(design, budget)
    facts = design.__dict__
    if budget is None:
        try:
            return facts[compute]
        except KeyError:
            # Two threads may both compute; each returns the value stored first.
            return facts.setdefault(compute, compute(design))
    key = (budget.rho1, budget.rho2)
    kept = facts.get(compute)
    if kept is None or kept[0] != key:
        kept = facts[compute] = (key, compute(design, budget))
    return kept[1]


@dataclass(frozen=True)
class StratumCounts:
    """Observed attribute-positive counts, one per stratum."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        for h, c in enumerate(self.counts):
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"count for stratum {h} must be a nonnegative integer, got {c}")


def check_paired(design: Sequence[StratumDesign], counts: StratumCounts) -> None:
    """Validate that counts pair with a coherent design.

    Requires equal length, 0 <= c_h <= n_h, and stratum weights summing to 1
    within ``WEIGHT_SUM_TOL``.  The weight sum is checked once per
    :class:`Design`; the counts are checked on every call.
    """
    if len(design) != len(counts.counts):
        raise ValidationError(
            f"design has {len(design)} strata but counts has {len(counts.counts)}"
        )
    sizes = memoised(_checked_sizes, design)
    if any(map(operator.gt, counts.counts, sizes)):
        for h, (c, n) in enumerate(zip(counts.counts, sizes)):
            if c > n:
                raise ValidationError(f"count {c} exceeds sample size {n} in stratum {h}")


def _checked_sizes(design: Sequence[StratumDesign]) -> tuple[int, ...]:
    """The sample sizes n_h, once the stratum weights are checked to sum to 1."""
    total_weight = ordered_sum(s.weight for s in design)
    if abs(total_weight - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"stratum weights sum to {total_weight!r}, expected 1")
    return tuple(s.sample_size for s in design)


@dataclass(frozen=True)
class PrivacyBudget:
    """A zCDP budget with an explicit two-way split.

    The total ``rho`` is defined as ``rho1 + rho2`` so the split sums to the
    total exactly.  Parts must be nonnegative and the total strictly positive.
    """

    rho1: float
    rho2: float

    def __post_init__(self) -> None:
        for name, part in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not math.isfinite(part) or part < 0.0:
                raise ValidationError(f"{name} must be a finite nonnegative real, got {part}")
        if self.rho1 + self.rho2 <= 0.0:
            raise ValidationError("total privacy budget must be positive")

    @property
    def rho(self) -> float:
        return self.rho1 + self.rho2

    @classmethod
    def total(cls, rho: float, split_fraction: float = 0.5) -> "PrivacyBudget":
        """Budget of total ``rho`` with ``rho1 = split_fraction * rho``."""
        if not math.isfinite(rho) or rho <= 0.0:
            raise ValidationError(f"rho must be a positive real, got {rho}")
        if not (0.0 <= split_fraction <= 1.0):
            raise ValidationError(f"split fraction must lie in [0, 1], got {split_fraction}")
        rho1 = rho * split_fraction
        rho2 = rho - rho1
        if 0.0 < split_fraction < 1.0 and not (rho1 > 0.0 and rho2 > 0.0):
            raise ValidationError(f"rho {rho!r} is too small to split at {split_fraction}: a part rounds to 0")
        return cls(rho1, rho2)


@dataclass(frozen=True)
class ClipFlags:
    """Which post-processing steps actually changed a released value."""

    proportion_clipped: bool = False
    interval_clipped: bool = False
    variance_floored: bool = False
    noisy_size_floored: bool = False


# Every ClipFlags value, keyed by its four bools in field order: a release reads its flags here.
_CLIP_FLAGS = {bits: ClipFlags(*bits) for bits in itertools.product((False, True), repeat=4)}


def _clipped_to_unit(lower: float, upper: float, point: float) -> tuple[float, float, float] | None:
    """(lower, upper, point) each clipped onto [0, 1], or None when none moves; lower <= point <= upper."""
    if 0.0 <= lower and upper <= 1.0:
        return None
    return tuple([0.0 if x < 0.0 else min(x, 1.0) for x in (lower, upper, point)])


@dataclass(frozen=True)
class CiResult:
    """A confidence interval plus the provenance needed to audit it.

    ``noise_variances`` records, per injected noise component, the exact
    variance used by the Gaussian mechanism; it is empty for non-private
    results.  Unless clipping intervened, the interval satisfies
    ``upper - lower == 2 * z_{1-alpha/2} * sqrt(variance_estimate)``.
    """

    point_estimate: float
    variance_estimate: float
    lower: float
    upper: float
    alpha: float
    algorithm: AlgorithmTag
    budget_spent: PrivacyBudget | None = None
    clipped: ClipFlags = field(default_factory=ClipFlags)
    noise_variances: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValidationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.variance_estimate < 0.0:
            raise ValidationError(f"variance_estimate must be nonnegative, got {self.variance_estimate}")
        if not (self.lower <= self.point_estimate <= self.upper):
            raise ValidationError(
                f"interval [{self.lower}, {self.upper}] does not bracket point "
                f"estimate {self.point_estimate}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def clip_to_unit_interval(self) -> "CiResult":
        """Post-process endpoints (and the point estimate) onto [0, 1].

        Data-independent, so the privacy guarantee and budget are unchanged.
        The flag is set only when a value actually moved.
        """
        clipped = _clipped_to_unit(self.lower, self.upper, self.point_estimate)
        if clipped is None:
            return self
        lower, upper, point = clipped
        flags = self.clipped
        return CiResult(
            point, self.variance_estimate, lower, upper, self.alpha, self.algorithm, self.budget_spent,
            _CLIP_FLAGS[flags.proportion_clipped, True, flags.variance_floored, flags.noisy_size_floored],
            self.noise_variances,
        )


# Rational approximation for the inverse standard-normal CDF (Acklam's
# algorithm), followed by one Halley refinement step against the erfc-based
# CDF.  The raw approximation has relative error below 1.15e-9; refinement
# brings it to a few ulp except in the extreme subnormal tails where the
# refinement factor exp(x^2/2) would overflow.

_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_P_LOW = 0.02425

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _acklam(q: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if q < _ACKLAM_P_LOW:
        r = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / (
            (((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0
        )
    if q > 1.0 - _ACKLAM_P_LOW:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / (
            (((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0
        )
    r = q - 0.5
    s = r * r
    return (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r / (
        ((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0
    )


def _refine(x: float, p: float) -> float:
    half_xsq = 0.5 * x * x
    if half_xsq < 700.0:  # exp would overflow beyond; raw Acklam is already ~1e-9
        err = normal_cdf(x) - p
        if err != 0.0:
            u = err * _SQRT_2PI * math.exp(half_xsq)
            x -= u / (1.0 + 0.5 * x * u)
    return x


@lru_cache(maxsize=256)
def normal_quantile(q: float) -> float:
    """Quantile of the standard normal distribution, Phi^{-1}(q).

    Upper-tail arguments are reflected to the lower tail (1 - q is exact for
    q >= 0.5), where the erfc-based CDF keeps full relative precision, so the
    result is accurate to a few ulp and normal_quantile(q) ==
    -normal_quantile(1 - q) exactly.
    """
    if not (0.0 < q < 1.0):
        raise ValidationError(f"quantile argument must lie in (0, 1), got {q}")
    if q > 0.5:
        p = 1.0 - q
        return -_refine(_acklam(p), p)
    return _refine(_acklam(q), q)
