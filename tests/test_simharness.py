import dataclasses
import json
import math
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratci import (
    AlgorithmTag,
    ExperimentConfig,
    InfeasibleError,
    Population,
    RatioApproximationWarning,
    StratumCounts,
    Uniform,
    ValidationError,
    derive_stream,
    draw_sample,
    generate_population,
    qq_data,
    rho_sweep,
    run_experiment,
)
from stratci import dp_ci, randomness, simharness
from stratci.cli import _parse_config_file, _summary_payload
from stratci.dp_ci import MECHANISMS, release
from stratci.estimators import non_private_ci

ALL_TAGS = (
    AlgorithmTag.NON_PRIVATE,
    AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES,
    AlgorithmTag.POPULATION_NOISE_PUBLIC_SIZES,
    AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES,
)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        alpha=0.1,
        strata=1,
        stratum_size=2000,
        rate=0.076,
        proportion=0.5,
        rho=0.01,
        algorithms=ALL_TAGS,
        repetitions=200,
        base_seed=7,
        clip_proportions=True,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestPopulationGeneration:
    def test_fixed_values(self):
        pop = generate_population(derive_stream(1, [-1]), _config())
        assert pop.stratum_sizes == (2000,)
        assert pop.positive_counts == (1000,)
        assert pop.proportion == 0.5

    def test_uniform_ranges(self):
        cfg = _config(
            strata=20,
            stratum_size=Uniform(1500, 2000),
            proportion=Uniform(0.4, 0.6),
            rate=Uniform(0.04, 0.08),
        )
        pop = generate_population(derive_stream(1, [-1]), cfg)
        assert len(pop.stratum_sizes) == 20
        assert all(1500 <= N <= 2000 for N in pop.stratum_sizes)
        assert all(0.35 <= p <= 0.65 for p in pop.stratum_proportions)
        assert 0.4 <= pop.proportion <= 0.6

    def test_population_invariants(self):
        with pytest.raises(ValidationError):
            Population((100,), (101,))
        with pytest.raises(ValidationError):
            Population((100,), (-1,))


class TestDrawSample:
    def test_census_recovers_positive_counts(self):
        pop = Population((500,), (123,))
        design, counts = draw_sample(derive_stream(1, [0]), pop, (1.0,))
        assert design[0].sample_size == 500
        assert counts.counts == (123,)

    def test_empty_attribute_class(self):
        pop = Population((500,), (0,))
        _, counts = draw_sample(derive_stream(1, [0]), pop, (0.2,))
        assert counts.counts == (0,)

    def test_rounding_half_up(self):
        pop = Population((1000,), (500,))
        design, _ = draw_sample(derive_stream(1, [0]), pop, (0.0625,))
        assert design[0].sample_size == 63  # 62.5 rounds up

    def test_min_sample_size_floor(self):
        pop = Population((10000,), (5000,))
        design, _ = draw_sample(derive_stream(1, [0]), pop, (0.001,), min_sample_size=50)
        assert design[0].sample_size == 50

    def test_infeasible_rate(self):
        pop = Population((100,), (50,))
        with pytest.raises(InfeasibleError):
            draw_sample(derive_stream(1, [0]), pop, (0.001,))
        with pytest.raises(InfeasibleError):  # n = 150 > N
            draw_sample(derive_stream(1, [0]), pop, (1.5,))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_rejected(self, rate):
        pop = Population((100, 200), (50, 60))
        with pytest.raises(ValidationError, match=r"stratum 1: rate must be a finite number"):
            draw_sample(derive_stream(1, [0]), pop, (0.2, rate))

    @pytest.mark.parametrize(
        "sizes, positives, field",
        [((2000,), (1000.5,), "positive_counts"), ((2000.0,), (1000,), "stratum_sizes"), ((10, 20), (5, "6"), "positive_counts")],
    )
    def test_population_needs_integers(self, sizes, positives, field):
        # numpy's draw used to truncate K = 1000.5 to 1000 without a word.
        with pytest.raises(ValidationError, match=f"{field} must be integers"):
            Population(sizes, positives)

    def test_unbiased_proportion_estimate(self):
        # E[p_hat] equals the true proportion across 1e5 redraws
        pop = Population((2000,), (700,))
        reps = 10**5
        p_hats = np.empty(reps)
        for r in range(reps):
            design, counts = draw_sample(derive_stream(19, [r]), pop, (0.05,))
            p_hats[r] = counts.counts[0] / design[0].sample_size
        true_p = 0.35
        n = 100
        se = math.sqrt((0.35 * 0.65 / n) * (1900 / 1999) / reps)
        assert abs(float(np.mean(p_hats)) - true_p) <= 4 * se


class TestRunExperiment:
    def test_deterministic_given_config(self):
        summary_a = run_experiment(_config())
        summary_b = run_experiment(_config())
        assert summary_a == summary_b

    def test_permuting_execution_order_is_invisible(self):
        cfg = _config(repetitions=100)
        natural = run_experiment(cfg, keep_records=True)
        rng = np.random.default_rng(3)
        order = list(rng.permutation(100))
        permuted = run_experiment(cfg, rep_order=order, keep_records=True)
        assert natural == permuted

    def test_invalid_rep_order_rejected(self):
        with pytest.raises(ValidationError):
            run_experiment(_config(repetitions=10), rep_order=[0, 1, 1])

    def test_single_repetition_smoke(self):
        summary = run_experiment(_config(repetitions=1))
        for _, row in summary.by_algorithm:
            assert row.coverage in (0.0, 1.0)
            assert row.width_sd == 0.0

    def test_nonprivate_width_ratio_is_exactly_one(self):
        summary = run_experiment(_config(repetitions=50))
        rows = dict(summary.by_algorithm)
        assert rows[AlgorithmTag.NON_PRIVATE].mean_width_ratio == 1.0

    @pytest.mark.parametrize("clip", [False, True])
    def test_width_ratios_without_nonprivate_match_with_it(self, clip):
        # Without a configured nonprivate row, the ratios divide by a hidden baseline row.
        private = ALL_TAGS[1:]
        cfg = _config(strata=3, stratum_size=Uniform(300, 600), repetitions=60, clip_interval=clip, algorithms=private)
        alone = run_experiment(cfg, keep_records=True)
        with_baseline = dataclasses.replace(cfg, algorithms=(*private, AlgorithmTag.NON_PRIVATE))
        both = run_experiment(with_baseline, keep_records=True)
        assert all(row.mean_width_ratio is not None for _, row in alone.by_algorithm)
        assert alone.by_algorithm == both.by_algorithm[:-1]
        assert alone.records == both.records[:-1]

    def test_rho_rule_one_over_max_n(self):
        cfg = _config(
            strata=5,
            stratum_size=Uniform(1500, 2000),
            rate=Uniform(0.04, 0.08),
            rho="1/max_n",
            repetitions=5,
        )
        summary = run_experiment(cfg)
        assert summary.rho == 1.0 / max(summary.sample_sizes)

    def test_records_on_request(self):
        cfg = _config(repetitions=10)
        assert run_experiment(cfg).records is None
        summary = run_experiment(cfg, keep_records=True)
        assert summary.records is not None
        assert len(summary.records) == len(ALL_TAGS)
        for table in summary.records:
            assert len(table) == 3
            for column in table:
                assert type(column) is tuple and len(column) == 10
                assert all(type(x) is float for x in column)
            lower, upper, point = table
            assert all(lo <= p <= hi for lo, p, hi in zip(lower, point, upper))

    @pytest.mark.parametrize("overrides", [
        {},
        dict(strata=3, stratum_size=Uniform(300, 600), rate=Uniform(0.05, 0.2),
             proportion=Uniform(0.02, 0.3), clip_interval=True, algorithms=ALL_TAGS[::-1]),
    ], ids=["one-stratum", "three-strata-clipped"])
    def test_records_agree_with_summary(self, overrides):
        summary = run_experiment(_config(repetitions=300, **overrides), keep_records=True)
        assert summary.records is not None
        true_p = summary.true_proportion
        for (tag, row), (lower, upper, _) in zip(summary.by_algorithm, summary.records, strict=True):
            covered = sum(lo <= true_p <= hi for lo, hi in zip(lower, upper))
            assert covered / summary.repetitions == row.coverage, tag
            assert float(np.mean(np.array(upper) - np.array(lower))) == row.mean_width, tag
            assert float(np.mean(lower)) == row.mean_lower, tag
            assert float(np.mean(upper)) == row.mean_upper, tag

    def test_coverage_sane_at_moderate_budget(self):
        summary = run_experiment(_config(repetitions=2000, rho=0.05))
        for _, row in summary.by_algorithm:
            assert 0.85 <= row.coverage <= 0.95


class TestRhoSweep:
    def test_shared_population_and_grid_shape(self):
        cfg = _config(repetitions=50)
        grid = (1e-3, 1e-2, 1e-1)
        results = rho_sweep(cfg, grid)
        assert tuple(rho for rho, _ in results) == grid
        truths = {s.true_proportion for _, s in results}
        sizes = {s.sample_sizes for _, s in results}
        assert len(truths) == 1 and len(sizes) == 1

    def test_independent_streams_per_grid_point(self):
        cfg = _config(repetitions=50)
        (r1, s1), (r2, s2) = rho_sweep(cfg, (0.01, 0.01))
        rows1 = dict(s1.by_algorithm)
        rows2 = dict(s2.by_algorithm)
        tag = AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES
        assert rows1[tag].mean_width != rows2[tag].mean_width

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            rho_sweep(_config(), ())

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("inf"), float("nan"), "1/max_n", None, True])
    def test_bad_last_grid_value_fails_before_any_repetition(self, monkeypatch, bad):
        ran = []
        monkeypatch.setattr(simharness, "_run", lambda *args, **kwargs: ran.append(args))
        with pytest.raises(ValidationError, match="rho must be a finite positive number"):
            rho_sweep(_config(), (0.01, 0.02, bad))
        assert ran == []


class TestQqData:
    def test_minimal_grid_is_median(self):
        cfg = _config(repetitions=500, algorithms=(AlgorithmTag.NON_PRIVATE,))
        ((tag, rows),) = qq_data(cfg, grid_size=1)
        assert tag is AlgorithmTag.NON_PRIVATE
        ((q, theo, emp),) = rows
        assert q == 0.5
        # empirical median within 3 standard errors of the theoretical mean
        sd = math.sqrt(0.25 / 152)
        assert abs(emp - theo) <= 3 * sd / math.sqrt(500) * math.sqrt(math.pi / 2)

    def test_nonprivate_large_sample_alignment(self):
        cfg = _config(
            stratum_size=20000,
            rate=0.025,  # n = 500
            repetitions=10000,
            algorithms=(AlgorithmTag.NON_PRIVATE,),
        )
        ((_, rows),) = qq_data(cfg, grid_size=19)  # q = 0.05 .. 0.95
        gaps = [abs(theo - emp) for q, theo, emp in rows if 0.05 <= q <= 0.95]
        assert max(gaps) <= 0.01

    def test_private_sizes_mean_includes_bias_term(self):
        cfg = _config(
            repetitions=200,
            rho=1.0 / 152,
            algorithms=(AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES,),
        )
        ((_, rows),) = qq_data(cfg, grid_size=1)
        ((q, theo, _),) = rows
        # theoretical median = p + bias with bias = p/(2 rho2 n^2), rho2 = rho/2
        n = 152
        bias = 0.5 / (2.0 * (1.0 / 304) * n * n)
        assert math.isclose(bias, 3.289473684210526e-3, rel_tol=1e-12)
        var = (
            (2000 - n) / 1999 * 0.25 / n
            + 1.0 / (2 * (1.0 / 304) * n * n)
            + 0.25 / (2 * (1.0 / 304) * n * n)
        )
        assert math.isclose(theo, 0.5 + bias, rel_tol=1e-12)
        assert var > 0  # context for the width scale; median uses mean only

    def test_invalid_grid(self):
        with pytest.raises(ValidationError):
            qq_data(_config(repetitions=10), grid_size=0)

    def test_population_is_built_once(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return generate_population(*args, **kwargs)

        monkeypatch.setattr(simharness, "generate_population", spy)
        qq_data(_config(repetitions=100), grid_size=9)
        assert len(calls) == 1


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            _config(alpha=1.5)

    def test_bad_rho_string(self):
        with pytest.raises(ValidationError):
            _config(rho="1/n")

    def test_bad_rate_range(self):
        with pytest.raises(ValidationError):
            _config(rate=0.0)
        with pytest.raises(ValidationError):
            _config(rate=Uniform(0.5, 1.5))
        with pytest.raises(ValidationError, match=r"proportion values must lie in \[0\.0, 1\.0\]"):
            _config(proportion=-0.1)

    @pytest.mark.parametrize("rho", [float("inf"), float("nan"), 0.0, -1.0, True])
    def test_rho_finite_positive(self, rho):
        with pytest.raises(ValidationError, match="rho must be a finite positive number"):
            _config(rho=rho)

    @pytest.mark.parametrize("size", [Uniform(1999.9, 2000.9), Uniform(1500, 2000.5), 2000.5])
    def test_stratum_size_whole_numbers(self, size):
        with pytest.raises(ValidationError, match="stratum_size values must be whole numbers"):
            _config(stratum_size=size)

    @pytest.mark.parametrize("field", ["strata", "repetitions", "min_sample_size", "base_seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            _config(**{field: value})

    def test_config_is_frozen(self):
        cfg = _config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 0.2


def _number_or_uniform(values):
    return values | st.tuples(values, values).map(lambda ends: Uniform(min(ends), max(ends)))


_LOG_RHO = st.floats(-300.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def _experiments(draw):
    """Keyword arguments of a small ExperimentConfig, and a rho grid or None."""
    fields = dict(
        strata=draw(st.integers(1, 5)),
        stratum_size=draw(_number_or_uniform(st.integers(1, 5000))),
        rate=draw(_number_or_uniform(st.floats(0.0, 1.0, exclude_min=True))),
        proportion=draw(_number_or_uniform(st.floats(0.0, 1.0))),
        rho=draw(_LOG_RHO | st.just("1/max_n")),
        split=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        algorithms=tuple(draw(st.lists(st.sampled_from(ALL_TAGS), min_size=1, max_size=4, unique=True))),
        repetitions=draw(st.integers(1, 20)),
        base_seed=draw(st.integers(-(2**70), 2**70)),
        clip_proportions=draw(st.booleans()),
        clip_interval=draw(st.booleans()),
        min_sample_size=draw(st.none() | st.integers(2, 50)),
    )
    return fields, draw(st.none() | st.lists(_LOG_RHO, min_size=1, max_size=3))


class TestExperimentProperties:
    """Every experiment ends in a typed error or a finite summary that is strict JSON."""

    @settings(max_examples=150, deadline=None)
    @given(case=_experiments())
    def test_typed_error_or_finite_summary(self, case):
        fields, grid = case

        def run():
            try:
                config = ExperimentConfig(**fields)
                if grid is None:
                    return ((config.rho, run_experiment(config)),)
                return rho_sweep(config, grid)
            except (ValidationError, InfeasibleError) as exc:
                return exc

        out = run()
        assert repr(run()) == repr(out)  # reruns are equal, bit for bit
        if isinstance(out, Exception):
            return
        for _, summary in out:
            assert math.isfinite(summary.true_proportion) and math.isfinite(summary.rho)
            for _, row in summary.by_algorithm:
                values = dataclasses.asdict(row)
                ratio = values.pop("mean_width_ratio")
                assert ratio is None or math.isfinite(ratio)
                assert all(math.isfinite(v) for v in values.values()), values
            json.dumps(_summary_payload(summary), allow_nan=False)


def _draws_per_repetition(H):
    return sum(c * f for c, f in (row.noise_shape(H) for row in MECHANISMS.values()))


class TestBlockedNoise:
    """run_experiment draws each block's noise in bulk; the releases must equal direct ones."""

    @staticmethod
    def _direct(config, grid_index=None):
        """Each repetition's (lower, upper, point) per algorithm, from direct calls on plain streams."""
        population, design, rho = simharness._set_up(config)
        budget = simharness.PrivacyBudget.total(rho, config.split)
        sizes = tuple(s.sample_size for s in design)
        out = []
        for r in range(config.repetitions):
            stream = derive_stream(config.base_seed, [r] if grid_index is None else [grid_index, r])
            counts = StratumCounts(randomness.hypergeometric_counts(
                stream.child(0), population.stratum_sizes, population.positive_counts, sizes
            ))
            row = []
            for tag in config.algorithms:
                if tag is AlgorithmTag.NON_PRIVATE:
                    ci = non_private_ci(design, counts, config.alpha)
                    if config.clip_interval:
                        ci = ci.clip_to_unit_interval()
                else:
                    ci, _ = release(
                        tag, stream.child(1 + MECHANISMS[tag].slot), design, counts, budget,
                        config.alpha, clip_proportions=config.clip_proportions,
                        clip_interval=config.clip_interval,
                    )
                row.append((ci.lower, ci.upper, ci.point_estimate))
            out.append(row)
        return out

    @pytest.mark.parametrize(
        "blocks, H, clip",
        [("one", 1, False), ("one", 20, False), ("uneven", 1, False), ("uneven", 20, False), ("uneven", 1, True)],
        ids=["one-1", "one-20", "uneven-1", "uneven-20", "uneven-1-clip"],
    )
    def test_records_equal_direct_releases(self, monkeypatch, blocks, H, clip):
        # Blocks of one repetition, or of three over R = 7 (3 + 3 + 1).
        block_draws = 1 if blocks == "one" else 3 * _draws_per_repetition(H)
        monkeypatch.setattr(simharness, "_NOISE_BLOCK_DRAWS", block_draws)
        drawn, real_drawn_streams = [], simharness._drawn_streams

        def drawn_streams(base_seed, requests):
            drawn.append(sum(len(parents) for parents, _, _ in requests))
            return real_drawn_streams(base_seed, requests)

        monkeypatch.setattr(simharness, "_drawn_streams", drawn_streams)
        config = _config(
            strata=H, stratum_size=Uniform(300, 900), rate=Uniform(0.02, 0.1),
            proportion=Uniform(0.02, 0.6), repetitions=7, base_seed=2**64 - 3, clip_interval=clip,
        )
        order = list(range(7))
        random.Random(H).shuffle(order)
        summary = run_experiment(config, rep_order=order, keep_records=True)
        assert drawn == ([3] * 7 if blocks == "one" else [9, 9, 3])
        if clip:  # the clip binds for every algorithm, the baseline included
            assert all(min(lower) == 0.0 for lower, _, _ in summary.records)
        direct = self._direct(config)
        for i, (lower, upper, point) in enumerate(summary.records):
            assert list(zip(lower, upper, point)) == [row[i] for row in direct]

    def test_sweep_grid_point_streams(self):
        config = _config(strata=3, repetitions=5, base_seed=9)
        ((_, summary),) = rho_sweep(config, [0.01], keep_records=True)
        direct = self._direct(config, grid_index=0)
        for i, (lower, upper, point) in enumerate(summary.records):
            assert list(zip(lower, upper, point)) == [row[i] for row in direct]

    def test_threads_match_sequential(self, monkeypatch):
        # Four threads on small blocks, switching often, so that each thread's
        # bulk draws fall between another's releases.
        monkeypatch.setattr(simharness, "_NOISE_BLOCK_DRAWS", 200)
        configs = [
            _config(strata=20, stratum_size=Uniform(1500, 2000), repetitions=100, base_seed=seed)
            for seed in range(8)
        ]
        sequential = [run_experiment(c, keep_records=True) for c in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_experiment, c, keep_records=True) for c in configs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == sequential


class TestCountBlocks:
    """Sample counts are drawn a block of streams ahead; a sweep's grid points share blocks."""

    @staticmethod
    def _spy(monkeypatch):
        lanes, real = [], randomness._CountSampler.counts

        def counts(self, base_seed, stream_ids):
            lanes.append(len(stream_ids))
            return real(self, base_seed, stream_ids)

        monkeypatch.setattr(randomness._CountSampler, "counts", counts)
        return lanes

    def test_sweep_blocks_span_grid_points(self, monkeypatch):
        lanes = self._spy(monkeypatch)
        config = _config(
            strata=20, stratum_size=Uniform(1500, 2000), rate=Uniform(0.04, 0.08), repetitions=100, base_seed=5
        )
        grid = (0.001, 0.01, 0.1, 0.5, 1.0, 2.0)
        sweep = rho_sweep(config, grid, keep_records=True)
        assert lanes == [600]  # 16384 // 20 = 819 lanes hold all six grid points
        for g, (rho, summary) in enumerate(sweep):
            direct = TestBlockedNoise._direct(dataclasses.replace(config, rho=rho), grid_index=g)
            for i, (lower, upper, point) in enumerate(summary.records):
                assert list(zip(lower, upper, point)) == [row[i] for row in direct]

    @pytest.mark.parametrize("H", [1, 3])
    def test_uneven_blocks_equal_direct_releases(self, monkeypatch, H):
        # Count blocks of 7 lanes over three grid points of 5 repetitions
        # (5 + 2, 3 + 4, 1) straddle grid points and the smaller noise blocks.
        monkeypatch.setattr(simharness, "_NOISE_BLOCK_DRAWS", 7 * H)
        lanes = self._spy(monkeypatch)
        config = _config(strata=H, stratum_size=Uniform(300, 900), repetitions=5, base_seed=9)
        sweep = rho_sweep(config, (0.01, 0.02, 0.03), keep_records=True)
        assert lanes == [7, 7, 1]
        for g, (_, summary) in enumerate(sweep):
            direct = TestBlockedNoise._direct(dataclasses.replace(config, rho=[0.01, 0.02, 0.03][g]), grid_index=g)
            for i, (lower, upper, point) in enumerate(summary.records):
                assert list(zip(lower, upper, point)) == [row[i] for row in direct]

    def test_large_block_runs_on_lanes(self, monkeypatch):
        ran = []
        real = randomness._CountSampler._lanes

        def spy(self, base_seed, ids):
            ran.append(len(ids))
            return real(self, base_seed, ids)

        monkeypatch.setattr(randomness._CountSampler, "_lanes", spy)
        config = _config(strata=2, stratum_size=Uniform(300, 900), repetitions=randomness._MIN_LANES, base_seed=4)
        summary = run_experiment(config, keep_records=True)
        assert ran == [randomness._MIN_LANES]
        direct = TestBlockedNoise._direct(config)
        for i, (lower, upper, point) in enumerate(summary.records):
            assert list(zip(lower, upper, point)) == [row[i] for row in direct]


class TestMechanismBinding:
    """A run binds each mechanism's release function once, by its row's name in ``dp_ci``.

    So a wrapper bound at that name before the run, as the benchmark's
    tracer binds one, sees every release of the run.
    """

    @staticmethod
    def _count(monkeypatch) -> dict:
        calls = {}
        for row in MECHANISMS.values():
            calls[row.function] = 0

            def wrapper(*args, _name=row.function, _original=getattr(dp_ci, row.function), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dp_ci, row.function, wrapper)
        return calls

    @pytest.mark.parametrize("tags", [ALL_TAGS, (AlgorithmTag.STRATUM_NOISE_PRIVATE_SIZES,)], ids=["all", "str-priv"])
    def test_wrapper_sees_every_release(self, monkeypatch, tags):
        config = _config(strata=3, repetitions=7, algorithms=tags)
        plain = run_experiment(config, keep_records=True)
        calls = self._count(monkeypatch)
        assert run_experiment(config, keep_records=True) == plain
        assert calls == {row.function: 7 if tag in tags else 0 for tag, row in MECHANISMS.items()}

    def test_wrapper_sees_every_grid_point(self, monkeypatch):
        config = _config(strata=2, repetitions=5)
        plain = rho_sweep(config, [0.01, 0.1, 1.0], keep_records=True)
        calls = self._count(monkeypatch)
        assert rho_sweep(config, [0.01, 0.1, 1.0], keep_records=True) == plain
        assert calls == {row.function: 15 for row in MECHANISMS.values()}

    def test_ratio_warning_names_the_harness(self):
        # rho_sweep.cfg's smallest budget, 0.001, fires str-priv's ratio warning.
        config, grid, _ = _parse_config_file(str(CONFIGS / "rho_sweep.cfg"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho_sweep(dataclasses.replace(config, repetitions=3), grid)
        ratio = [w for w in caught if w.category is RatioApproximationWarning]
        assert ratio
        assert {w.filename for w in ratio} == {simharness.__file__}
