"""Shared domain types: stratified designs, privacy budgets, CI results.

All types here are immutable after construction and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
import sys
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar


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


_BOUNDS: dict[str, tuple[float, float, bool, bool]] = {}  # per interval text: low, high, low open, high open


def _check_number(name: str, value, interval: str = "(-inf, inf)", integer: bool = False, message: str = "") -> None:
    """Raise :class:`ValidationError` unless ``value`` is a number, not a bool, in ``interval``, such as "[1, inf)".

    An ``integer`` is a ``numbers.Integral`` and compares exactly; a real converts to a float, so NaN and an int
    past the float range lie in no interval.  The text is ``message`` or "{name} must lie in {interval}, got {value}".
    """
    if integer and type(value) is not int and (type(value) is bool or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    x = value
    if not integer and type(value) is not float:
        try:
            real = type(value) is int or type(value) is not bool and isinstance(value, numbers.Real)
            x = float(value) if real else math.nan
        except OverflowError:
            x = math.nan
    if interval not in _BOUNDS:  # each call site passes a constant text, so this holds a few dozen entries
        low, high = interval[1:-1].split(", ")
        _BOUNDS[interval] = float(low), float(high), interval[0] == "(", interval[-1] == ")"
    low, high, low_open, high_open = _BOUNDS[interval]
    if not ((low < x if low_open else low <= x) and (x < high if high_open else x <= high)):
        text = message or "{name} must lie in {interval}, got {value}"
        raise ValidationError(text.format(name=name, interval=interval, value=value))


class AlgorithmTag(enum.Enum):
    """Identifies which estimator produced a confidence interval.

    Values double as the wire names used by the CLI.
    """

    NON_PRIVATE = "nonprivate"
    STRATUM_NOISE_PUBLIC_SIZES = "str-pub"
    POPULATION_NOISE_PUBLIC_SIZES = "pop-pub"
    STRATUM_NOISE_PRIVATE_SIZES = "str-priv"
    DIFFERENCE = "difference"


@dataclass(frozen=True, init=False)
class StratumDesign:
    """Public design facts for one stratum: its population and sample sizes.

    The stratum's weight N_h / N is a fact of the whole design, derived in
    :func:`_design_facts`.  Sample sizes below 2 are rejected because the
    within-stratum variance estimator divides by n_h - 1.  Its fields are
    stored in one write to the instance dict, as :class:`CiResult`'s are.
    """

    population_size: int
    sample_size: int

    def __init__(self, population_size: int, sample_size: int) -> None:
        n, N = sample_size, population_size
        if not (isinstance(N, int) and isinstance(n, int)) or isinstance(N, bool) or isinstance(n, bool):
            raise ValidationError("stratum sizes must be integers")
        if N < 1:
            raise ValidationError(f"population_size must be positive, got {N}")
        if N > sys.float_info.max:
            raise ValidationError("population_size is too large to represent as a float")
        if n < 2:
            raise ValidationError(f"sample_size must be at least 2, got {n}")
        if n > N:
            raise ValidationError(f"sample_size {n} exceeds population_size {N}")
        self.__dict__.update(population_size=N, sample_size=n)


class Design(tuple):
    """A stratified design: a tuple of :class:`StratumDesign`, one per stratum.

    It indexes, iterates, slices and compares as the plain tuple of its
    strata.  Being immutable, it also keeps the facts :func:`memoised`
    computes from it, in its own ``__dict__``, for as long as it lives.
    """


def build_design(sizes: Sequence[tuple[int, int]]) -> Design:
    """Build a stratified design from (population_size, sample_size) pairs."""
    if not sizes:
        raise ValidationError("design must contain at least one stratum")
    return Design(StratumDesign(N, n) for N, n in sizes)


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


@dataclass(frozen=True, init=False)
class StratumCounts:
    """Observed attribute-positive counts, one per stratum; a bool is not a count."""

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(counts)
        for h, c in enumerate(counts):
            # A plain int passes on its type alone; only other types pay for isinstance.
            if type(c) is not int and (type(c) is bool or not isinstance(c, int)) or c < 0:
                raise ValidationError(f"count for stratum {h} must be a nonnegative integer, got {c!r}")
        self.__dict__.update(counts=counts)


class _BlockCounts(StratumCounts):
    """One column of a count block, with the design it was checked against and its (p_hat, V_hat) there.

    Not a dataclass of its own: ``dataclasses.replace`` cannot build one, one equals only itself, and
    no field can be set, so a carrier holds only counts that its design checked.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, counts: tuple[int, ...], design: Sequence[StratumDesign], estimate: tuple[float, float]) -> None:
        self.__dict__.update(counts=counts, design=design, estimate=estimate)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def check_paired(design: Sequence[StratumDesign], counts: StratumCounts) -> tuple[float, float] | None:
    """Validate that counts pair with a design of at least one stratum.

    Requires equal length and 0 <= c_h <= n_h, checked on every call unless
    the counts' block checked them for this very :class:`Design`.  Returns
    the (p_hat, V_hat) that such counts carry, else None.
    """
    if type(counts) is _BlockCounts and counts.design is design:
        return counts.estimate
    if len(design) != len(counts.counts):
        raise ValidationError(
            f"design has {len(design)} strata but counts has {len(counts.counts)}"
        )
    sizes = memoised(_design_facts, design).sizes
    if any(map(operator.gt, counts.counts, sizes)):
        for h, (c, n) in enumerate(zip(counts.counts, sizes)):
            if c > n:
                raise ValidationError(f"count {c} exceeds sample size {n} in stratum {h}")
    return None


class _DesignFacts(NamedTuple):
    """Per stratum, every fact of a design that the estimators, mechanisms and closed forms read."""

    sizes: tuple[int, ...]                    # n_h
    weights: tuple[float, ...]                # w_h = N_h/N
    squared_weights: tuple[float, ...]        # w_h**2
    fpcs: tuple[float, ...]                   # (N_h - n_h)/N_h
    deltas: tuple[float, ...]                 # 1/n_h, the sensitivity of p_hat_h
    float_sizes: tuple[float, ...]            # float(n_h)
    populations: tuple[tuple[int, int], ...]  # (N_h, N_h - 1)
    shares: tuple[float, ...]                 # w_h/n_h, the sensitivity of p_hat to stratum h
    sampling_weights: tuple[float, ...]       # N_h/n_h
    constants: tuple[float, ...]              # C_h = w_h**2 fpc_h/(n_h - 1)


def _design_facts(design: Sequence[StratumDesign]) -> _DesignFacts:
    """Every stratum's facts, in one pass, of a design with a stratum; w_h is N_h over the int sum N, rounded once."""
    if not design:
        raise ValidationError("design must contain at least one stratum")
    total = sum([s.population_size for s in design])
    return _DesignFacts(*zip(*[
        (n, w, w**2, (N - n) / N, 1.0 / n, float(n), (N, N - 1), w / n, N / n, w**2 * ((N - n) / N) / (n - 1))
        for N, n in map(operator.attrgetter("population_size", "sample_size"), design) for w in (N / total,)
    ]))


@dataclass(frozen=True)
class PrivacyBudget:
    """A zCDP budget with an explicit two-way split.

    The total ``rho`` is defined as ``rho1 + rho2`` so the split sums to the
    total exactly.  Parts must be finite and nonnegative; their total, finite and positive.
    """

    rho1: float
    rho2: float
    _TEXT = "budget values must be real numbers, got {name} = {value!r}, outside {interval}"

    def __post_init__(self) -> None:
        for name in ("rho1", "rho2"):
            _check_number(name, getattr(self, name), "[0, inf)", message=self._TEXT)
        _check_number("the total rho1 + rho2", self.rho, "(0, inf)")

    @property
    def rho(self) -> float:
        return self.rho1 + self.rho2

    @classmethod
    def total(cls, rho: float, split_fraction: float = 0.5) -> "PrivacyBudget":
        """Budget of total ``rho`` with ``rho1 = split_fraction * rho``."""
        _check_number("rho", rho, "(0, inf)", message=cls._TEXT)
        _check_number("split fraction", split_fraction, "[0, 1]", message=cls._TEXT)
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


@dataclass(frozen=True, init=False)
class CiResult:
    """A confidence interval plus the provenance needed to audit it.

    ``noise_variances`` records, per injected noise component, the exact
    variance used by the Gaussian mechanism; it is empty for non-private
    results.  Unless clipping intervened, the interval satisfies
    ``upper - lower == 2 * z_{1-alpha/2} * sqrt(variance_estimate)``.

    Its fields are stored in one write to the instance dict, not by one
    ``object.__setattr__`` per field, since one is built per release.
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

    def __init__(
        self, point_estimate: float, variance_estimate: float, lower: float, upper: float, alpha: float,
        algorithm: AlgorithmTag, budget_spent: PrivacyBudget | None = None, clipped: ClipFlags = ClipFlags(),
        noise_variances: tuple[tuple[str, float], ...] = (),
    ) -> None:
        try:
            if not (0.0 < alpha < 1.0):
                raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
            if not variance_estimate >= 0.0:
                raise ValidationError(f"variance_estimate must be nonnegative, got {variance_estimate}")
            if not (lower <= point_estimate <= upper):
                raise ValidationError(
                    f"interval [{lower}, {upper}] does not bracket point "
                    f"estimate {point_estimate}"
                )
            if not (-math.inf < lower and upper < math.inf and variance_estimate < math.inf):
                raise ValidationError(f"interval [{lower}, {upper}] with variance {variance_estimate} is not finite")
        except TypeError as exc:
            raise ValidationError(f"alpha, the estimates and the bounds must be real numbers: {exc}") from exc
        self.__dict__.update(
            point_estimate=point_estimate, variance_estimate=variance_estimate, lower=lower, upper=upper,
            alpha=alpha, algorithm=algorithm, budget_spent=budget_spent, clipped=clipped,
            noise_variances=noise_variances,
        )

    def clip_to_unit_interval(self) -> "CiResult":
        """Post-process endpoints (and the point estimate) onto [0, 1].

        Data-independent, so the privacy guarantee and budget are unchanged.
        The flag is set only when a value actually moved.
        """
        if 0.0 <= self.lower and self.upper <= 1.0:
            return self
        lower, upper, point = [0.0 if x < 0.0 else min(x, 1.0) for x in (self.lower, self.upper, self.point_estimate)]
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
    _check_number("x", x, "[-inf, inf]")
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
        err = 0.5 * math.erfc(-x / _SQRT2) - p  # normal_cdf(x), unchecked: x comes from a checked q
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
    _check_number("quantile argument", q, "(0, 1)")
    if q > 0.5:
        p = 1.0 - q
        return -_refine(_acklam(p), p)
    return _refine(_acklam(q), q)
