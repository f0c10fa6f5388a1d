"""Finite-population simulation harness.

A configuration fixes one population (the design-based ground truth); each
repetition redraws the stratified sample, runs the configured interval
mechanisms, and records coverage of the true proportion and interval width.
Everything is a pure function of (config, base_seed): repetitions own derived
streams keyed by index, and aggregation reduces records in index order, so
execution order never changes a summary bit.
"""

from __future__ import annotations

import itertools
import math
import numbers
from array import array
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import extrinsic_variance, mean_shift
from .core import (
    AlgorithmTag,
    InfeasibleError,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    _check_number,
    _design_facts,
    build_design,
    memoised,
    normal_quantile,
    ordered_sum,
)
from .dp_ci import MECHANISMS, _release_function, mechanism
from .estimators import _wald_block, exact_stratum_variance
from .randomness import RandomStream, _CountSampler, _combine_array, _drawn_streams, derive_stream, hypergeometric_counts

RHO_ONE_OVER_MAX_N = "1/max_n"
# numpy's hypergeometric draw needs ngood and nbad below 10**9.
MAX_STRATUM_SIZE = 999_999_999
# 100 times the paper's 10**4 repetitions: each algorithm's interval
# bounds then take 24 MB, and a twenty-stratum run takes minutes.
MAX_REPETITIONS = 1_000_000
# 500 times the paper's twenty strata: the per-stratum state then takes
# about 16 MB, and one repetition of all four algorithms about 0.25 s.
MAX_STRATA = 10_000
# run_experiment draws the noise of a block of repetitions ahead, about this
# many normals at a time: enough to amortise the bulk kernel's fixed cost of
# some 300 numpy calls, few enough to keep a block's draws near a megabyte.
# A block of sample counts also holds at most this many counts.
_NOISE_BLOCK_DRAWS = 1 << 14
_RHO_TEXT = "rho must be a finite positive number, got {value!r}"


@dataclass(frozen=True)
class Uniform:
    """A uniform range for a population parameter; discrete for sizes."""

    low: float
    high: float

    def __post_init__(self) -> None:
        _check_number("low", self.low)
        _check_number("high", self.high)
        if not self.low <= self.high:
            raise ValidationError(f"uniform range has low {self.low} > high {self.high}")


@dataclass(frozen=True)
class Population:
    """Fixed finite population: stratum sizes and attribute-positive counts."""

    stratum_sizes: tuple[int, ...]
    positive_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stratum_sizes", tuple(self.stratum_sizes))
        object.__setattr__(self, "positive_counts", tuple(self.positive_counts))
        if len(self.stratum_sizes) != len(self.positive_counts):
            raise ValidationError("stratum sizes and positive counts must pair up")
        for name, values in (("stratum_sizes", self.stratum_sizes), ("positive_counts", self.positive_counts)):
            fractional = [v for v in values if not isinstance(v, numbers.Integral)]
            if fractional:
                raise ValidationError(f"{name} must be integers, got {fractional[0]!r}")
        for N, K in zip(self.stratum_sizes, self.positive_counts):
            if not 0 <= K <= N:
                raise ValidationError(f"positive count {K} outside [0, {N}]")

    @property
    def stratum_proportions(self) -> tuple[float, ...]:
        return tuple(K / N for N, K in zip(self.stratum_sizes, self.positive_counts))

    @property
    def proportion(self) -> float:
        return sum(self.positive_counts) / sum(self.stratum_sizes)


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of one repeated-sampling experiment.

    ``rho`` is either a number or the string "1/max_n", resolved against the
    realized sample sizes.  ``min_sample_size`` optionally floors every n_h
    (off by default, at least 2 when set).  Clipping flags mirror the
    mechanism arguments.
    """

    alpha: float = 0.1
    strata: int = 1
    stratum_size: int | Uniform = 2000
    rate: float | Uniform = 0.076
    proportion: float | Uniform = 0.5
    rho: float | str = 0.01
    split: float = 0.5
    algorithms: tuple[AlgorithmTag, ...] = (AlgorithmTag.NON_PRIVATE, *MECHANISMS)
    repetitions: int = 10000
    base_seed: int = 0
    clip_proportions: bool = False
    clip_interval: bool = False
    min_sample_size: int | None = None

    def __post_init__(self) -> None:
        _check_number("alpha", self.alpha, "(0, 1)")
        _check_number("strata", self.strata, f"[1, {MAX_STRATA}]", integer=True)
        _check_number("repetitions", self.repetitions, f"[1, {MAX_REPETITIONS}]", integer=True)
        if (floor := self.min_sample_size) is not None:
            _check_number("min_sample_size", floor, "[2, inf)", True, "{name} must be at least 2, got {value}")
        _check_number("base_seed", self.base_seed, integer=True)
        if self.rho != RHO_ONE_OVER_MAX_N:
            _check_number("rho", self.rho, "(0, inf)", message=_RHO_TEXT)
        _check_number("split", self.split, "(0, 1)")
        for name, spec, interval in (
            ("stratum_size", self.stratum_size, f"[1, {MAX_STRATUM_SIZE}]"),
            ("rate", self.rate, "(0.0, 1.0]"),
            ("proportion", self.proportion, "[0.0, 1.0]"),
        ):
            for value in (spec.low, spec.high) if isinstance(spec, Uniform) else (spec,):
                _check_number(f"{name} values", value, interval)
                if name == "stratum_size" and not float(value).is_integer():
                    raise ValidationError(f"stratum_size values must be whole numbers, got {spec}")
        if not self.algorithms:
            raise ValidationError("at least one algorithm is required")
        repeated = sorted({tag.value for tag in self.algorithms if self.algorithms.count(tag) > 1})
        if repeated:
            raise ValidationError(f"algorithms must not repeat, got {', '.join(repeated)} more than once")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate_population(stream: RandomStream, config: ExperimentConfig) -> Population:
    """Realize stratum sizes and positive counts from the configured rules.

    K_h = round(p_h N_h); the realized overall proportion is recomputed from
    the K_h, so it is reported exactly as the coverage target.
    """
    gen = stream.generator()
    H = config.strata
    if isinstance(config.stratum_size, Uniform):
        lo, hi = int(config.stratum_size.low), int(config.stratum_size.high)
        sizes = tuple(int(v) for v in gen.integers(lo, hi + 1, size=H))
    else:
        sizes = (int(config.stratum_size),) * H
    if isinstance(config.proportion, Uniform):
        props = gen.uniform(config.proportion.low, config.proportion.high, size=H)
    else:
        props = np.full(H, float(config.proportion))
    counts = tuple(_round_half_up(p * N) for p, N in zip(props, sizes))
    return Population(sizes, counts)


def _realize_rates(stream: RandomStream, config: ExperimentConfig) -> tuple[float, ...]:
    if isinstance(config.rate, Uniform):
        gen = stream.generator()
        return tuple(float(r) for r in gen.uniform(config.rate.low, config.rate.high, size=config.strata))
    return (float(config.rate),) * config.strata


def _sample_sizes(
    population: Population, rates: Sequence[float], min_sample_size: int | None
) -> tuple[int, ...]:
    sizes = []
    for h, (N, r) in enumerate(zip(population.stratum_sizes, rates)):
        _check_number(f"stratum {h}: rate", r, message="{name} must be a finite number, got {value}")
        n = r * N  # an infinite size is infeasible below
        if math.isfinite(n):
            n = _round_half_up(n)
        if min_sample_size is not None:
            n = max(n, min_sample_size)
        if n < 2:
            raise InfeasibleError(
                f"stratum {h}: rate {r} of size {N} yields sample size {n} < 2"
            )
        if n > N:
            raise InfeasibleError(
                f"stratum {h}: sample size {n} exceeds population size {N}"
            )
        sizes.append(n)
    return tuple(sizes)


def draw_sample(
    stream: RandomStream,
    population: Population,
    rates: Sequence[float],
) -> tuple[tuple[StratumDesign, ...], StratumCounts]:
    """Stratified sample: independent without-replacement counts per stratum.

    Each n_h is r_h N_h rounded half up, with no floor; a config's
    ``min_sample_size`` floors the sizes of the run it configures.
    """
    if len(rates) != len(population.stratum_sizes):
        raise ValidationError("rates must pair with the population's strata")
    sizes = _sample_sizes(population, rates, None)
    design = build_design(list(zip(population.stratum_sizes, sizes)))
    counts = hypergeometric_counts(stream, population.stratum_sizes, population.positive_counts, sizes)
    return design, StratumCounts(counts)


@dataclass(frozen=True)
class AlgorithmSummary:
    """One algorithm's results; ``mean_width_ratio`` is None when some non-private width is 0."""

    coverage: float
    mean_width: float
    width_sd: float
    mean_width_ratio: float | None
    mean_lower: float
    mean_upper: float


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated results of one experiment, per algorithm.

    ``records`` is None unless the run kept them; then it holds one
    ``(lower, upper, point)`` entry per configured algorithm, in config
    order, each of the three a tuple of the ``repetitions`` values in
    repetition order.
    """

    true_proportion: float
    stratum_sizes: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    rho: float
    repetitions: int
    by_algorithm: tuple[tuple[AlgorithmTag, AlgorithmSummary], ...]
    records: tuple[tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]], ...] | None = None


def _resolve_rho(config: ExperimentConfig, sample_sizes: Sequence[int]) -> float:
    if config.rho == RHO_ONE_OVER_MAX_N:
        return 1.0 / max(sample_sizes)
    return float(config.rho)


def _set_up(config: ExperimentConfig) -> tuple[Population, tuple[StratumDesign, ...], float]:
    """The fixed population, design and resolved rho, from stream (base_seed, -1)."""
    setup = derive_stream(config.base_seed, [-1])
    population = generate_population(setup.child(0), config)
    sample_sizes = _sample_sizes(population, _realize_rates(setup.child(1), config), config.min_sample_size)
    design = build_design(list(zip(population.stratum_sizes, sample_sizes)))
    return population, design, _resolve_rho(config, sample_sizes)


class _SampleCounts:
    """The sample counts of consecutive repetitions, drawn ahead a block of streams at a time.

    :func:`_run_all` builds one over every run: ``runs`` lists, per run in
    turn, the stream-id prefix of its repetitions and their order.  A block
    may span runs, so that the grid points of a sweep share blocks.
    Repetition r of a run draws from stream (base_seed, prefix r 0), as
    :func:`draw_sample` would from ``derive_stream(base_seed, [..., r]).child(0)``.
    """

    def __init__(self, base_seed: int, population: Population, sample_sizes: Sequence[int], runs: list[tuple]):
        self.base_seed = base_seed
        self.sampler = _CountSampler(population.stratum_sizes, population.positive_counts, sample_sizes)
        self.lanes = max(1, _NOISE_BLOCK_DRAWS // len(sample_sizes))
        self.reps = ((prefix, rep) for prefix, order in runs for rep in order)
        self.block = np.empty((len(sample_sizes), 0), dtype=np.int64)
        self.at = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` repetitions' counts, as an (H x n) array."""
        parts = []
        while n:
            if self.at == self.block.shape[1]:
                prefixes, reps = (np.array(v, dtype=np.uint64) for v in zip(*itertools.islice(self.reps, self.lanes)))
                ids = _combine_array(_combine_array(prefixes, reps), np.uint64(0))
                self.block, self.at = self.sampler.counts(self.base_seed, ids), 0
            part = self.block[:, self.at:self.at + n]
            parts.append(part)
            self.at += part.shape[1]
            n -= part.shape[1]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def run_experiment(
    config: ExperimentConfig,
    *,
    rep_order: Sequence[int] | None = None,
    keep_records: bool = False,
) -> ExperimentSummary:
    """Run the configured repetitions against one fixed population.

    The population and the design (with the realized sampling rates) come
    from stream (base_seed, -1); repetition r draws its counts and releases
    from stream (base_seed, r).  The counts are drawn ahead in blocks of up
    to ``_NOISE_BLOCK_DRAWS // H`` repetitions, lane-parallel by numpy's own
    hypergeometric sampler (see ``randomness._CountSampler``).  A block of
    repetitions draws every mechanism's noise in one bulk pass and gets its
    non-private baselines in one array pass, which checks its counts and
    adds each repetition's estimate; the private releases take those counts
    (pop-pub that estimate) one repetition per call.  ``rep_order`` only
    permutes execution; results are keyed by repetition index and reduced
    in index order, so the summary is order-invariant.
    """
    order = range(config.repetitions) if rep_order is None else rep_order
    if rep_order is not None and sorted(rep_order) != list(range(config.repetitions)):
        raise ValidationError("rep_order must be a permutation of range(repetitions)")
    return _run_all(_set_up(config), [(config, [], order)], keep_records)[0]


def _run_all(setup: tuple, runs: list[tuple], keep_records: bool) -> list[ExperimentSummary]:
    """Each run's summary, from the caller's set-up, one ``_SampleCounts`` and one prefix id per run.

    A run is a config, a stream path and a repetition order; its repetition
    r uses stream (base_seed, *path, r).  The configs differ in rho alone,
    so the population and design of ``setup``, which is ``_set_up`` of the
    first, serve every run, and a block of sample counts runs on from one
    run's repetitions into the next one's.
    """
    config = runs[0][0]
    population, design, _ = setup
    sizes = memoised(_design_facts, design).sizes
    prefixes = [derive_stream(config.base_seed, path).stream_id for _, path, _ in runs]
    counts = _SampleCounts(config.base_seed, population, sizes, [(p, order) for p, (*_, order) in zip(prefixes, runs)])
    return [
        _run(cfg, (population, design, _resolve_rho(cfg, sizes)), order, counts, prefix, keep_records)
        for prefix, (cfg, _, order) in zip(prefixes, runs)
    ]


def _run(
    config: ExperimentConfig,
    setup: tuple[Population, tuple[StratumDesign, ...], float],
    order: Sequence[int],
    sample_counts: _SampleCounts,
    prefix: int,
    keep_records: bool,
) -> ExperimentSummary:
    """One run on its set-up: repetition r uses stream (base_seed, prefix r) and counts from ``sample_counts``."""
    population, design, rho = setup
    budget = PrivacyBudget.total(rho, config.split)
    true_p = population.proportion

    R = config.repetitions
    tags = config.algorithms
    # (lower, upper, point) columns per algorithm, indexed by repetition, and a
    # last non-private row for width ratios to divide by if no algorithm is one.
    row_tags = tags if AlgorithmTag.NON_PRIVATE in tags else (*tags, AlgorithmTag.NON_PRIVATE)
    columns = [[array("d", bytes(8 * R)) for _ in range(3)] for _ in row_tags]
    base = row_tags.index(AlgorithmTag.NON_PRIVATE)
    baseline = [np.frombuffer(column) for column in columns[base]]  # written a block at once
    # Repetition stream child 0 draws the sample; child 1 + slot feeds each mechanism, bound once per run.
    private = [
        (cols, _release_function(tag), np.uint64(1 + mechanism(tag).slot), mechanism(tag).noise_shape(len(design)))
        for cols, tag in zip(columns, row_tags) if tag is not AlgorithmTag.NON_PRIVATE
    ]
    # Each block of repetitions draws every mechanism's noise in one bulk pass.
    block = max(1, _NOISE_BLOCK_DRAWS // max(len(design), sum(c * f for *_, (c, f) in private)))
    for start in range(0, R, block):
        chunk = order[start:start + block]
        rep_ids = _combine_array(np.uint64(prefix), np.array(chunk, dtype=np.uint64))
        requests = [(_combine_array(rep_ids, child), *shape) for *_, child, shape in private]
        streams = _drawn_streams(config.base_seed, requests) if requests else []
        drawn_counts = sample_counts.take(len(chunk))
        # The block's baseline in one pass; the releases run one repetition at a time, on counts it checked.
        bounds, block_counts = _wald_block(design, drawn_counts, config.alpha, config.clip_interval)
        for column, values in zip(baseline, bounds):
            column[chunk] = values
        for r, counts, *drawn in zip(chunk, block_counts, *streams):
            for ((lower, upper, point), function, *_), stream in zip(private, drawn):
                ci, _ = function(
                    stream, design, counts, budget, config.alpha,
                    clip_proportions=config.clip_proportions, clip_interval=config.clip_interval, per_stratum=False,
                )
                lower[r], upper[r], point[r] = ci.lower, ci.upper, ci.point_estimate
        del streams  # the block's draws are freed before the next block's are made

    bounds = np.array(columns)
    lower, upper = bounds[:, 0], bounds[:, 1]
    width = upper - lower
    covered = (lower <= true_p) & (true_p <= upper)
    rows = tuple(
        (
            tag,
            AlgorithmSummary(
                coverage=float(np.mean(covered[i])),
                mean_width=float(np.mean(width[i])),
                width_sd=float(np.std(width[i], ddof=1)) if R > 1 else 0.0,
                mean_width_ratio=float(np.mean(width[i] / width[base])) if width[base].all() else None,
                mean_lower=float(np.mean(lower[i])),
                mean_upper=float(np.mean(upper[i])),
            ),
        )
        for i, tag in enumerate(tags)
    )
    records = None
    if keep_records:
        records = tuple(tuple(map(tuple, table)) for table in bounds[:len(tags)].tolist())
    return ExperimentSummary(
        true_proportion=true_p,
        stratum_sizes=population.stratum_sizes,
        sample_sizes=memoised(_design_facts, design).sizes,
        rho=rho,
        repetitions=R,
        by_algorithm=rows,
        records=records,
    )


def qq_data(
    config: ExperimentConfig, grid_size: int = 99
) -> tuple[tuple[AlgorithmTag, tuple[tuple[float, float, float], ...]], ...]:
    """Paired quantiles of each released estimator against its limiting law.

    Rows are (q, theoretical, empirical) on the grid q = i/(grid_size+1);
    the private-sizes law includes its second-order bias term.
    """
    # A grid finer than the largest run's repetitions adds no empirical information.
    _check_number("grid_size", grid_size, f"[1, {MAX_REPETITIONS}]", integer=True)
    setup = _set_up(config)
    records = _run_all(setup, [(config, [], range(config.repetitions))], True)[0].records
    assert records is not None
    population, design, rho = setup
    budget = PrivacyBudget.total(rho, config.split)
    p_h = population.stratum_proportions
    squared_weights = memoised(_design_facts, design).squared_weights
    var_phat = ordered_sum(w2 * exact_stratum_variance(s, p) for w2, s, p in zip(squared_weights, design, p_h))
    qs = np.arange(1, grid_size + 1) / (grid_size + 1)
    out = []
    for tag, (_, _, points) in zip(config.algorithms, records):
        mean = population.proportion + mean_shift(design, tag, budget, p_h)
        sd = math.sqrt(var_phat + extrinsic_variance(design, tag, budget, p_h))
        empirical = np.quantile(points, qs)
        theoretical = [mean + normal_quantile(float(q)) * sd for q in qs]
        out.append(
            (tag, tuple((float(q), float(t), float(e)) for q, t, e in zip(qs, theoretical, empirical)))
        )
    return tuple(out)


def rho_sweep(
    config: ExperimentConfig, rho_grid: Sequence[float], *, keep_records: bool = False
) -> tuple[tuple[float, ExperimentSummary], ...]:
    """Re-run the experiment across a budget grid against the shared population.

    Grid point g uses repetition streams (base_seed, g, r), independent of
    every other grid point.  The grid points share population, design and
    strata, so their sample counts are drawn together: a block of counts
    runs on from one grid point's repetitions into the next one's.
    """
    runs = [(cfg, [g], range(config.repetitions)) for g, cfg in enumerate(_grid_configs(config, rho_grid))]
    return tuple((summary.rho, summary) for summary in _run_all(_set_up(runs[0][0]), runs, keep_records))


def _grid_configs(config: ExperimentConfig, rho_grid: Sequence[float]) -> list[ExperimentConfig]:
    """One config per grid value, every value checked before any grid point runs."""
    if not rho_grid:
        raise ValidationError("rho grid must be nonempty")
    for rho in rho_grid:
        _check_number("rho", rho, "(0, inf)", message=_RHO_TEXT)
    return [replace(config, rho=float(rho)) for rho in rho_grid]
