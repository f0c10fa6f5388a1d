import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratci import ValidationError, derive_stream
from stratci.randomness import (
    _KI,
    RandomStream,
    _bulk_normals,
    _drawn_streams,
    _philox_first_words,
    _scratch,
    child_normals,
    gaussian,
    hypergeometric_counts,
    standard_normals,
)

_MASK64 = (1 << 64) - 1

# Monte-Carlo checks below use 4-sigma tolerances unless the contract states
# a looser one; all draws are seeded, so they are deterministic.


class TestStreams:
    def test_same_indices_same_stream(self):
        a = derive_stream(42, [0, 0])
        b = derive_stream(42, [0, 0])
        assert a == b
        assert gaussian(a, 0.0, 1.0) == gaussian(b, 0.0, 1.0)

    def test_distinct_indices_distinct_draws(self):
        a = derive_stream(42, [0, 0])
        b = derive_stream(42, [0, 1])
        assert a != b
        assert gaussian(a, 0.0, 1.0) != gaussian(b, 0.0, 1.0)

    def test_child_matches_extended_derivation(self):
        assert derive_stream(42, [7]).child(3) == derive_stream(42, [7, 3])
        assert derive_stream(9, []).child(1, 2) == derive_stream(9, [1, 2])

    def test_negative_indices_allowed(self):
        a = derive_stream(5, [-1])
        b = derive_stream(5, [-2])
        assert a != b

    def test_golden_values(self):
        # frozen draws pin platform-independent reproducibility
        s = derive_stream(42, [7, 3])
        got = [gaussian(s.child(i), 0.0, 1.0) for i in range(3)]
        assert got == [-1.0059117085093925, 0.3003475201522261, 0.6432708038463663]
        counts = [
            hypergeometric_counts(derive_stream(42, [7, 3, i]), [2000], [1000], [100])
            for i in range(3)
        ]
        assert counts == [(39,), (43,), (44,)]

    def test_generator_is_fresh_each_call(self):
        s = derive_stream(1, [2])
        assert s.generator().standard_normal() == s.generator().standard_normal()


class TestGaussian:
    def test_zero_variance_returns_mean_exactly(self):
        assert gaussian(derive_stream(0, [0]), 0.3, 0.0) == 0.3

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            gaussian(derive_stream(0, [0]), 0.0, -1e-12)

    def test_sample_mean(self):
        # CLT bound 3.9 / sqrt(1e6)
        draws = gaussian(derive_stream(11, [0]), 0.0, 1.0, size=10**6)
        assert abs(float(np.mean(draws))) <= 0.004

    def test_mechanism_scale_variance(self):
        # variance 1/(2 rho n^2) at rho=0.005, n=100 is 0.01
        variance = 1.0 / (2.0 * 0.005 * 100**2)
        assert variance == 0.01
        draws = gaussian(derive_stream(12, [0]), 0.0, variance, size=10**6)
        assert abs(float(np.var(draws)) - 0.01) <= 0.02 * 0.01


class TestHypergeometric:
    def test_all_positive(self):
        assert hypergeometric_counts(derive_stream(1, [0]), [10], [10], [4]) == (4,)

    def test_none_positive(self):
        assert hypergeometric_counts(derive_stream(1, [0]), [10], [0], [4]) == (0,)

    def test_census(self):
        assert hypergeometric_counts(derive_stream(1, [0]), [10], [7], [10]) == (7,)

    def test_moments(self):
        N, K, n = 2000, 1000, 100
        draws = derive_stream(13, [0]).generator().hypergeometric(K, N - K, n, size=10**5)
        mean = float(np.mean(draws))
        var = float(np.var(draws))
        assert abs(mean - 50.0) <= 0.5
        exact_var = n * (K / N) * (1 - K / N) * (N - n) / (N - 1)
        assert math.isclose(exact_var, 23.761880940470235, rel_tol=1e-12)
        assert abs(var - exact_var) <= 0.03 * exact_var

    def test_support_bounds_fuzz(self):
        # 1e6 random parameterizations in one vectorized pass
        gen = derive_stream(99, [0]).generator()
        size = 10**6
        N = gen.integers(1, 5000, size=size)
        K = (gen.random(size) * (N + 1)).astype(np.int64)
        n = (gen.random(size) * (N + 1)).astype(np.int64)
        draws = gen.hypergeometric(K, N - K, n)
        lower = np.maximum(0, n + K - N)
        upper = np.minimum(n, K)
        assert np.all(draws >= lower)
        assert np.all(draws <= upper)

    def test_support_bounds_through_api(self):
        gen = derive_stream(98, [0]).generator()
        for i in range(1000):
            N = int(gen.integers(1, 500))
            K = int(gen.integers(0, N + 1))
            n = int(gen.integers(0, N + 1))
            (c,) = hypergeometric_counts(derive_stream(98, [1, i]), [N], [K], [n])
            assert max(0, n + K - N) <= c <= min(n, K)

    def test_counts_match_one_array_call(self):
        # Oracle: numpy's array-argument call on the same stream, which draws
        # the strata in order from the stream's start.
        gen = derive_stream(97, [0]).generator()
        for i in range(3000):
            H = int(gen.choice([1, 2, 5, 20]))
            N = gen.integers(1, 3000, size=H)
            K = gen.integers(0, N + 1)
            n = gen.integers(0, N + 1)
            n[gen.random(H) < 0.1] = 0
            stream = derive_stream(97, [1, i])
            oracle = _scratch.reset(stream).hypergeometric(K, N - K, n)
            counts = hypergeometric_counts(stream, N.tolist(), K.tolist(), n.tolist())
            assert counts == tuple(int(c) for c in oracle)


class TestScratchReset:
    def test_draws_match_fresh_philox(self):
        # Oracle: a fresh Philox generator keyed (base_seed & M, stream_id & M)
        # per call.  The calls run in a shuffled order on the one per-thread
        # scratch generator, with a five-draw call that leaves the Philox
        # buffer part-used and a 32-bit draw that leaves a cached half word,
        # so that state a reset failed to clear would show in the next call.
        M = (1 << 64) - 1
        rnd = random.Random(20261018)

        def fresh(base, sid):
            # A uint64 array: numpy reads a list of ints at or above 2**63 as floats.
            key = np.array([base & M, sid & M], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        for _ in range(10_000):
            base = rnd.choice([
                rnd.getrandbits(64),
                -rnd.getrandbits(64) - 1,
                rnd.getrandbits(64) + (rnd.randint(1, 255) << 64),
            ])
            sid = rnd.getrandbits(64) - rnd.choice([0, 1 << 63])
            stream = RandomStream(base, sid)
            N = [rnd.randint(1, 3000) for _ in range(rnd.choice([1, 2, 5]))]
            K = [rnd.randint(0, x) for x in N]
            n = [rnd.randint(0, x) for x in N]
            z = fresh(base, sid).standard_normal()
            z5 = fresh(base, sid).standard_normal(5)
            u = fresh(base, sid).random(dtype=np.float32)
            oracle = fresh(base, sid)
            counts = tuple(int(oracle.hypergeometric(k, x - k, m)) for x, k, m in zip(N, K, n))
            checks = [
                lambda: standard_normals(base, [sid]) == [z],
                lambda: gaussian(stream, 0.0, 1.0) == z,
                lambda: hypergeometric_counts(stream, N, K, n) == counts,
                lambda: np.array_equal(gaussian(stream, 0.0, 1.0, size=5), z5),
                lambda: _scratch.reset(stream).random(dtype=np.float32) == u,
            ]
            rnd.shuffle(checks)
            for check in checks:
                assert check(), (base, sid)

    def test_standard_normals_in_order(self):
        ids = [derive_stream(3, [i]).stream_id for i in range(50)]
        expected = [gaussian(derive_stream(3, [i]), 0.0, 1.0) for i in range(50)]
        assert standard_normals(3, ids) == expected
        assert standard_normals(3, []) == []


def _slow_path(base_seed, ids):
    """Where the ziggurat's fast path rejects the first word of stream (base_seed, id)."""
    r = _philox_first_words(base_seed & _MASK64, ids)
    return ((r >> np.uint64(9)) & np.uint64((1 << 52) - 1)) >= _KI[(r & np.uint64(0xFF)).astype(np.intp)]


class TestBulkNormals:
    KEYS_PER_EXAMPLE = 20_000

    # 50 examples of 20 000 keys each compare 10**6 keys.  Base seeds come
    # from below 0, from [0, 2**64) and from 2**64 and above; every other
    # random id has its top bit set, and Hypothesis adds ids of its own.
    @settings(max_examples=50, deadline=None)
    @given(
        base_seed=st.one_of(
            st.integers(-(2**80), -1), st.integers(0, _MASK64), st.integers(2**64, 2**80)
        ),
        seed=st.integers(0, 2**32 - 1),
        extra=st.lists(st.integers(0, _MASK64), max_size=20),
    )
    def test_bulk_equals_scalar(self, base_seed, seed, extra):
        ids = np.random.default_rng(seed).integers(0, 2**64, size=self.KEYS_PER_EXAMPLE, dtype=np.uint64)
        ids[::2] |= np.uint64(1 << 63)
        ids = np.concatenate([ids, np.array(extra, dtype=np.uint64)])
        assert _bulk_normals(base_seed, ids).tolist() == standard_normals(base_seed, ids.tolist())

    def test_slow_path_draws_occur_and_match(self):
        ids = np.random.default_rng(7).integers(0, 2**64, size=4000, dtype=np.uint64)
        for base_seed in (0, 20240601, 2**64 - 5):
            slow = _slow_path(base_seed, ids)
            assert 20 <= slow.sum() <= 200  # about 1.5% of 4000
            bulk = _bulk_normals(base_seed, ids)
            assert bulk[slow].tolist() == standard_normals(base_seed, ids[slow].tolist())
            assert bulk.tolist() == standard_normals(base_seed, ids.tolist())

    def test_philox_first_word_matches_numpy(self):
        ids = np.random.default_rng(3).integers(0, 2**64, size=500, dtype=np.uint64)
        for base_seed in (0, 1, _MASK64):
            expected = [
                int(np.random.Philox(key=np.array([base_seed, sid], dtype=np.uint64)).random_raw())
                for sid in ids.tolist()
            ]
            assert _philox_first_words(base_seed, ids).tolist() == expected

    @pytest.mark.parametrize("children, fan", [(1, 1), (3, 1), (20, 1), (2, 1), (1, 2), (20, 2)])
    def test_child_normals_scalar_and_prefetched(self, children, fan):
        parents = [derive_stream(11, [r, 2]) for r in range(5)]
        expected = []
        for stream in parents:
            kids = [
                stream.child(i) if fan == 1 else stream.child(i, j)
                for i in range(children) for j in range(fan)
            ]
            expected.append(standard_normals(11, [k.stream_id for k in kids]))
        assert [child_normals(s, children, fan) for s in parents] == expected
        ids = np.array([s.stream_id for s in parents], dtype=np.uint64)
        ((*drawn,),) = _drawn_streams(11, [(ids, children, fan)])
        assert len(drawn) == len(parents)
        assert [child_normals(s, children, fan) for s in drawn] == expected
        # Reading a drawn stream's normals again gives the same draws.
        assert [child_normals(s, children, fan) for s in drawn] == expected

    # Each example asks one block for up to three (parents, children, fan)
    # requests; every parent's carried normals must be the draws of its
    # child streams, as scalar child_normals makes them.
    @settings(max_examples=100, deadline=None)
    @given(
        base_seed=st.one_of(
            st.integers(-(2**80), -1), st.integers(0, _MASK64), st.integers(2**64, 2**80)
        ),
        requests=st.lists(
            st.tuples(
                st.lists(st.integers(0, _MASK64), min_size=1, max_size=5),
                st.integers(1, 50),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_drawn_streams_carry_scalar_child_normals(self, base_seed, requests):
        block = _drawn_streams(
            base_seed, [(np.array(parents, dtype=np.uint64), children, fan) for parents, children, fan in requests]
        )
        assert len(block) == len(requests)
        for (parents, children, fan), streams in zip(requests, block):
            streams = list(streams)
            assert [(s.base_seed, s.stream_id) for s in streams] == [(base_seed, p) for p in parents]
            for drawn in streams:
                stream = RandomStream(base_seed, drawn.stream_id)
                kids = [
                    stream.child(i) if fan == 1 else stream.child(i, j)
                    for i in range(children) for j in range(fan)
                ]
                expected = standard_normals(base_seed, [k.stream_id for k in kids])
                assert child_normals(stream, children, fan) == expected
                assert child_normals(drawn, children, fan) is drawn.normals
                assert drawn.normals == expected

    def test_drawn_stream_of_another_shape_draws_scalar(self):
        stream = derive_stream(4, [9])
        ((drawn,),) = _drawn_streams(4, [(np.array([stream.stream_id], dtype=np.uint64), 3, 1)])
        normals = drawn.normals
        assert child_normals(drawn, 3) is normals
        for children, fan in [(2, 1), (4, 1), (3, 2), (1, 2)]:
            other = child_normals(drawn, children, fan)
            assert other is not normals
            assert other == child_normals(stream, children, fan)
        assert child_normals(drawn, 2) == normals[:2]
        # Its children and its generator are those of the plain stream.
        assert drawn.child(1, 0) == stream.child(1, 0)
        assert drawn.generator().standard_normal() == stream.generator().standard_normal()
