import dataclasses
import functools
import inspect
import math
import operator
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratci import (
    CiResult,
    ClipFlags,
    AlgorithmTag,
    PrivacyBudget,
    StratumCounts,
    StratumDesign,
    ValidationError,
    build_design,
    normal_cdf,
    normal_quantile,
    wald_interval,
)
from stratci.core import _design_facts, check_paired, ordered_sum
from stratci.randomness import RandomStream, _DrawnStream

mpmath.mp.dps = 40


def _quantile_oracle(q: float) -> float:
    """High-precision inverse normal CDF via mpmath's erfinv."""
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(q) - 1))


class TestOrderedSum:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=300)
    def test_matches_left_fold(self, values):
        total = functools.reduce(operator.add, values, 0.0)
        assert repr(ordered_sum(values)) == repr(total)
        assert repr(ordered_sum(iter(values))) == repr(total)

    def test_empty_is_float_zero(self):
        assert repr(ordered_sum([])) == "0.0"

    def test_not_compensated(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum would give 1.0.
        assert ordered_sum([1e16, 1.0, -1e16]) == 0.0


class TestPrivacyBudget:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyBudget.total(0.0)
        with pytest.raises(ValidationError):
            PrivacyBudget(0.0, 0.0)

    def test_negative_part_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(-0.1, 0.2)

    def test_split_sums_exactly(self):
        for rho in (1 / 152, 0.003, 1e-6, 7.3):
            b = PrivacyBudget.total(rho)
            assert b.rho1 + b.rho2 == b.rho
            assert b.rho1 == b.rho2

    def test_uneven_split(self):
        b = PrivacyBudget.total(1.0, split_fraction=0.25)
        assert b.rho1 == 0.25
        assert b.rho1 + b.rho2 == b.rho

    @pytest.mark.parametrize("make", [
        lambda: PrivacyBudget(None, 1.0),
        lambda: PrivacyBudget(1.0, "0.5"),
        lambda: PrivacyBudget.total(None),
        lambda: PrivacyBudget.total(0.01, None),
    ], ids=["rho1", "rho2", "total-rho", "total-split"])
    def test_non_numbers_raise_validation_errors(self, make):
        with pytest.raises(ValidationError, match="must be real numbers, got "):
            make()


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_frozen_values(self):
        # correctly rounded doubles for the double arguments, from mpmath
        assert math.isclose(normal_quantile(0.95), 1.6448536269514722, rel_tol=1e-9)
        assert math.isclose(normal_quantile(0.975), 1.959963984540054, rel_tol=1e-9)

    def test_out_of_range(self):
        for q in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                normal_quantile(q)

    @pytest.mark.parametrize(
        "q",
        [1e-12, 1e-9, 1e-6, 1e-4, 0.001, 0.02425, 0.0243, 0.1, 0.25, 0.4, 0.5,
         0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12],
    )
    def test_against_erf_oracle(self, q):
        z = normal_quantile(q)
        zt = _quantile_oracle(q)
        if zt == 0.0:
            assert z == 0.0
        else:
            assert abs(z - zt) <= 1e-9 * abs(zt)

    @given(st.floats(min_value=1e-6, max_value=0.5, exclude_max=True))
    @settings(max_examples=200)
    def test_symmetry(self, q):
        z = normal_quantile(q)
        # 1 - q is exact here only up to half an ulp of 1.0; allow the induced slack
        assert abs(z + normal_quantile(1.0 - q)) <= 1e-9 * (1.0 + abs(z))

    def test_symmetry_exact_from_upper_half(self):
        # for q >= 0.5 the reflection uses exactly the same lower-tail evaluation
        for p in (0.7, 0.9, 0.95, 0.999, 0.5000001):
            assert normal_quantile(p) == -normal_quantile(1.0 - p)

    def test_cdf_roundtrip(self):
        for q in (0.01, 0.2, 0.5, 0.77, 0.99):
            assert math.isclose(normal_cdf(normal_quantile(q)), q, rel_tol=1e-12)


class TestDesign:
    def test_weights_from_sizes(self):
        weights = _design_facts(build_design([(1500, 60), (2500, 100)])).weights
        assert weights == (1500 / 4000, 2500 / 4000)
        assert math.isclose(sum(weights), 1.0, abs_tol=1e-12)

    def test_single_stratum_weight_is_one(self):
        assert _design_facts(build_design([(2000, 100)])).weights == (1.0,)

    def test_sample_size_one_rejected(self):
        with pytest.raises(ValidationError):
            StratumDesign(population_size=100, sample_size=1)

    def test_sample_exceeding_population_rejected(self):
        with pytest.raises(ValidationError):
            StratumDesign(population_size=10, sample_size=11)

    def test_census_allowed(self):
        StratumDesign(population_size=10, sample_size=10)

    def test_population_size_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="population_size"):
            build_design([(10**400, 100)])
        build_design([(10**300, 100)])

    def test_non_positive_population_sizes_rejected(self):
        # A zero total, or a negative size offsetting a positive one, would
        # otherwise reach the weight division.
        for sizes in ([(0, 0)], [(5, 2), (-5, 2)], [(10**400, 2), (1 - 10**400, 2)]):
            with pytest.raises(ValidationError, match="population_size"):
                build_design(sizes)

    def test_bool_sizes_rejected(self):
        # bool is an int subclass; True as a size once reached the range checks.
        for N, n in ((True, 2), (10, True), (False, False)):
            with pytest.raises(ValidationError, match="^stratum sizes must be integers$"):
                StratumDesign(population_size=N, sample_size=n)

    def test_counts_validation(self):
        design = build_design([(100, 10)])
        with pytest.raises(ValidationError):
            StratumCounts((-1,))
        from stratci.core import check_paired

        with pytest.raises(ValidationError):
            check_paired(design, StratumCounts((11,)))
        with pytest.raises(ValidationError):
            check_paired(design, StratumCounts((5, 5)))
        check_paired(design, StratumCounts((10,)))

    def test_bool_counts_rejected(self):
        # Every mechanism would release True and False as the counts 1 and 0.
        for counts in ((True, False), (3, False), [True]):
            with pytest.raises(ValidationError, match="must be a nonnegative integer, got (True|False)$"):
                StratumCounts(counts)

    def test_count_message_shows_the_type(self):
        with pytest.raises(ValidationError, match=r"^count for stratum 1 must be a nonnegative integer, got np\.int64\(3\)$"):
            StratumCounts((2, np.int64(3)))
        with pytest.raises(ValidationError, match=r"^count for stratum 0 must be a nonnegative integer, got '3'$"):
            StratumCounts(("3",))
        with pytest.raises(ValidationError, match=r"^count for stratum 0 must be a nonnegative integer, got -1$"):
            StratumCounts((-1,))

    def test_counts_taken_as_a_tuple(self):
        assert StratumCounts(iter([4, 0, 7])).counts == (4, 0, 7)
        assert StratumCounts([1, 2]) == StratumCounts((1, 2))


class TestCiResult:
    def test_bracketing_enforced(self):
        with pytest.raises(ValidationError):
            CiResult(
                point_estimate=0.9, variance_estimate=0.0, lower=0.1, upper=0.2,
                alpha=0.1, algorithm=AlgorithmTag.NON_PRIVATE,
            )

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            CiResult(
                point_estimate=0.5, variance_estimate=-1e-9, lower=0.4, upper=0.6,
                alpha=0.1, algorithm=AlgorithmTag.NON_PRIVATE,
            )

    def test_nan_variance_rejected(self):
        with pytest.raises(ValidationError, match="^variance_estimate must be nonnegative, got nan$"):
            CiResult(0.5, float("nan"), 0.4, 0.6, 0.1, AlgorithmTag.NON_PRIVATE)

    @pytest.mark.parametrize("args", [
        (0.5, None, 0.4, 0.6, 0.1),
        (0.5, 0.01, 0.4, 0.6, None),
        (0.5, 0.01, None, 0.6, 0.1),
        (0.5, 0.01, 0.4, None, 0.1),
        (None, 0.01, 0.4, 0.6, 0.1),
    ], ids=["variance", "alpha", "lower", "upper", "point"])
    def test_non_numbers_raise_validation_errors(self, args):
        with pytest.raises(ValidationError, match="^alpha, the estimates and the bounds must be real numbers: "):
            CiResult(*args, AlgorithmTag.NON_PRIVATE)

    def test_checks_run_in_order_with_their_texts(self):
        # Alpha, then the variance, then the bracketing: each input fails every check after its own.
        tag = AlgorithmTag.NON_PRIVATE
        cases = (
            ((0.9, -1.0, 0.1, 0.2, 1.0, tag), "alpha must lie in (0, 1), got 1.0"),
            ((0.9, -1.0, 0.1, 0.2, 0.1, tag), "variance_estimate must be nonnegative, got -1.0"),
            ((0.9, 0.0, 0.1, 0.2, 0.1, tag), "interval [0.1, 0.2] does not bracket point estimate 0.9"),
        )
        for args, text in cases:
            with pytest.raises(ValidationError) as excinfo:
                CiResult(*args)
            assert str(excinfo.value) == text

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=200)
    def test_width_identity(self, estimate, variance, alpha):
        ci = wald_interval(estimate, variance, alpha)
        expected = 2.0 * normal_quantile(1.0 - alpha / 2.0) * math.sqrt(variance)
        assert ci.clipped == ClipFlags()
        assert math.isclose(ci.upper - ci.lower, expected, rel_tol=1e-12, abs_tol=1e-15)

    def test_clip_to_unit_interval_sets_flag_only_on_change(self):
        inside = wald_interval(0.5, 1e-4, 0.1)
        assert inside.clip_to_unit_interval() is inside
        outside = wald_interval(0.01, 1e-2, 0.1)
        clipped = outside.clip_to_unit_interval()
        assert clipped.clipped.interval_clipped
        assert clipped.lower == 0.0
        assert clipped.lower <= clipped.point_estimate <= clipped.upper

    def test_clip_keeps_point_inside(self):
        ci = wald_interval(-0.05, 1e-4, 0.1)
        clipped = ci.clip_to_unit_interval()
        assert clipped.point_estimate == 0.0
        assert clipped.lower <= clipped.point_estimate <= clipped.upper


# One set of field values per type whose __init__ is written by hand, and a second for dataclasses.replace.
_VALUE_TYPES = {
    CiResult: (
        (0.5, 0.01, 0.4, 0.6, 0.1, AlgorithmTag.STRATUM_NOISE_PUBLIC_SIZES, PrivacyBudget(0.5, 0.25),
         ClipFlags(True, False, True, False), (("stratum_proportion[0]", 0.02),)),
        {"lower": 0.3, "clipped": ClipFlags()},
    ),
    StratumCounts: (((3, 0, 12),), {"counts": (1,)}),
    StratumDesign: ((2000, 100), {"sample_size": 2000}),
    RandomStream: ((7, 2**64 - 1), {"stream_id": 5}),
    _DrawnStream: ((7, 11, 2, 1, [0.25, -1.5]), {"normals": [0.0, 0.0]}),
}


@pytest.mark.parametrize("cls", list(_VALUE_TYPES), ids=lambda cls: cls.__name__)
class TestHandWrittenInit:
    """The value types store their fields through a hand-written __init__; it must act as the generated one."""

    def test_signature_is_the_fields_in_order(self, cls):
        fields = dataclasses.fields(cls)
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in fields]
        for p, f in zip(params, fields):
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if f.default is not dataclasses.MISSING:
                assert p.default == f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert p.default == f.default_factory()
            else:
                assert p.default is inspect.Parameter.empty

    def test_every_field_is_stored(self, cls):
        values, _ = _VALUE_TYPES[cls]
        made = cls(*values)
        expected = {f.name: v for f, v in zip(dataclasses.fields(cls), values)}
        if cls is StratumCounts:
            expected["counts"] = tuple(values[0])
        assert {f.name: getattr(made, f.name) for f in dataclasses.fields(cls)} == expected
        assert list(vars(made)) == list(expected)

    def test_equal_values_make_equal_objects(self, cls):
        values, _ = _VALUE_TYPES[cls]
        a, b = cls(*values), cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)})
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_replace_and_pickle(self, cls):
        values, changes = _VALUE_TYPES[cls]
        made = cls(*values)
        assert dataclasses.replace(made) == made
        changed = dataclasses.replace(made, **changes)
        for name, value in changes.items():
            assert getattr(changed, name) == value
        for obj in (made, changed):
            copy = pickle.loads(pickle.dumps(obj))
            assert type(copy) is cls and copy == obj and vars(copy) == vars(obj)

    def test_fields_are_frozen(self, cls):
        made = cls(*_VALUE_TYPES[cls][0])
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(made, f.name, None)
