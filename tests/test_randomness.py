import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stratci import ValidationError, derive_stream, randomness
from stratci.randomness import (
    _KI,
    _MIN_LANES,
    RandomStream,
    _ARRAY_CROSSOVER,
    _bulk_normals,
    _child_id_list,
    _child_ids,
    _combine,
    _CountSampler,
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


# Stream ids below 0, in [0, 2**64) and at 2**64 or above, with the edges of each range.
_PARENT_IDS = st.one_of(st.integers(-(2**80), -1), st.integers(0, _MASK64), st.integers(2**64, 2**80))


class TestChildIds:
    """Child ids made in one array pass are the ids of scalar _combine and RandomStream.child."""

    # Every shape with children 0-64 and fan 1-3, on both sides of _ARRAY_CROSSOVER,
    # for each of 16 parents: 16 * 2 080 * 6 = 199 680 ids.
    PARENTS = [-(2**80), -(2**64) - 1, -(2**63), -1, 0, 1, 2**63, _MASK64, 2**64, 2**64 + 1, 2**80 + 3] + [
        random.Random(5).randint(-(2**70), 2**70) for _ in range(5)
    ]

    def test_id_tree_equals_scalar_combine_and_child(self):
        crossed = set()
        for children in range(65):
            for fan in range(1, 4):
                crossed.add(children * (1 + fan) >= _ARRAY_CROSSOVER)
                tree = _child_ids(
                    np.array([p & _MASK64 for p in self.PARENTS], dtype=np.uint64), children, fan
                ).tolist()
                at = 0
                for parent in self.PARENTS:
                    stream = RandomStream(3, parent)
                    kids = [
                        stream.child(i) if fan == 1 else stream.child(i, j)
                        for i in range(children) for j in range(fan)
                    ]
                    expected = [k.stream_id for k in kids]
                    if fan == 1:
                        assert expected == [_combine(parent, i) for i in range(children)]
                    else:
                        assert expected == [_combine(_combine(parent, i), j) for i in range(children) for j in range(fan)]
                    assert _child_id_list(parent, children, fan) == expected
                    assert tree[at:at + len(expected)] == expected
                    at += len(expected)
                assert at == len(tree)
        assert crossed == {False, True}

    @settings(max_examples=100, deadline=None)
    @given(
        base_seed=_PARENT_IDS,
        parent=_PARENT_IDS,
        fan=st.integers(1, 3),
        extra=st.integers(0, 30),
    )
    def test_child_normals_above_the_crossover(self, base_seed, parent, fan, extra):
        children = -(-_ARRAY_CROSSOVER // (1 + fan)) + extra  # the fewest children that cross, and more
        stream = RandomStream(base_seed, parent)
        kids = [stream.child(i) if fan == 1 else stream.child(i, j) for i in range(children) for j in range(fan)]
        assert child_normals(stream, children, fan) == standard_normals(base_seed, [k.stream_id for k in kids])


def _scalar_counts(base_seed, ids, design):
    """The oracle: hypergeometric_counts stacked over the stream ids, as an (H x L) array."""
    rows = [hypergeometric_counts(RandomStream(base_seed, i), *design) for i in ids.tolist()]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(design[0])).T


@st.composite
def _count_designs(draw):
    """(N, K, n) lists of one to five strata.

    Most strata are in numpy's ratio-of-uniforms regime, with N up to 5 * 10**4
    so that logfactorial takes Stirling's branch; K = 0, K = N, K above N / 2
    and n above N / 2 all occur, as do census strata and, now and then, a
    stratum that numpy draws otherwise, which makes the design fall back.
    """
    strata = draw(st.lists(
        st.tuples(
            st.one_of(st.integers(20, 400), st.integers(400, 50_000)),
            st.sampled_from(["any", "any", "none", "all"]),
            st.sampled_from(["hrua"] * 8 + ["census", "small"]),
            st.randoms(use_true_random=False),
        ),
        min_size=1, max_size=5,
    ))
    design = [], [], []
    for N, positives, kind, rnd in strata:
        K = {"any": rnd.randint(0, N), "none": 0, "all": N}[positives]
        n = {"hrua": rnd.randint(10, N - 10), "census": N, "small": rnd.randint(2, 9)}[kind]
        for column, value in zip(design, (N, K, n)):
            column.append(value)
    return design


class TestCountKernel:
    """The lane-parallel count kernel against scalar hypergeometric_counts, bit for bit."""

    DRAWS_PER_EXAMPLE = 10_000

    # 100 examples of at least 10 000 (stream, stratum) draws each compare
    # 10**6 draws; each example also checks a block below the lane threshold
    # and, when its design runs on lanes, a short block forced onto them.
    @settings(max_examples=100, deadline=None)
    @given(
        base_seed=st.one_of(st.integers(0, _MASK64), st.integers(2**64, 2**80)),
        design=_count_designs(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_equals_scalar(self, base_seed, design, seed):
        # counts() draws stream by stream once the self-check fails, where no kernel fault can show.
        assert randomness._bulk_ok()
        sampler = _CountSampler(*design)
        H = len(design[0])
        ids = np.random.default_rng(seed).integers(0, 2**64, size=-(-self.DRAWS_PER_EXAMPLE // H), dtype=np.uint64)
        expected = _scalar_counts(base_seed, ids, design)
        counts = sampler.counts(base_seed, ids)
        assert counts.dtype == np.int64 and counts.flags.c_contiguous
        assert np.array_equal(counts, expected)
        small = ids[:_MIN_LANES - 1]
        assert np.array_equal(sampler.counts(base_seed, small), expected[:, :small.size])
        if sampler.strata is not None:
            assert np.array_equal(sampler._lanes(base_seed, ids[:7]), expected[:, :7])

    # Fixed designs whose draws, as the oracle traces them, reach every
    # branch of numpy's sampler that the kernel reproduces.
    BRANCH_DESIGNS = (
        ((5000, 2000, 40, 300), (3100, 700, 17, 0), (2600, 150, 40, 30)),
        ((60, 1800, 200, 300), (30, 1000, 150, 300), (12, 1500, 100, 40)),
        ((100_000, 150_000), (49_000, 120_000), (60_000, 1_000)),
    )

    @pytest.mark.parametrize("design", BRANCH_DESIGNS, ids=["stirling-census", "small-N", "large-N"])
    def test_kernel_reaches_every_branch(self, design):
        ids = np.arange(600, dtype=np.uint64)
        reached = set()
        for i in ids.tolist():
            counts, branches = oracles.hypergeometric_trace(11, i, *design)
            assert counts == hypergeometric_counts(RandomStream(11, i), *design)
            reached |= branches
        assert _CountSampler(*design)._lanes(11, ids).T.tolist() == _scalar_counts(11, ids, design).T.tolist()
        if design is self.BRANCH_DESIGNS[0]:
            assert reached == {
                "census", "K in {0, N}", "range", "fast accept", "fast reject", "log test", "stirling",
                "good > bad", "cs < sample",
            }

    @pytest.mark.parametrize("words", [2, 2 * randomness._PASSES + 2])
    def test_lanes_past_the_buffer_are_redrawn_whole(self, words):
        # With room for one try per lane, every lane starts stratum 0 past its
        # limit and is redrawn whole; with room for a few, some lanes run out
        # of buffered doubles inside finish.
        design = ((1800, 1900, 1500, 2000), (900, 1200, 300, 1000), (140, 90, 60, 2000))
        ids = np.random.default_rng(5).integers(0, 2**64, size=300, dtype=np.uint64)
        sampler = _CountSampler(*design)
        sampler.words = words
        assert np.array_equal(sampler._lanes(3, ids), _scalar_counts(3, ids, design))

    def test_a_lane_that_runs_out_in_its_last_stratum_is_redrawn_whole(self):
        # Room for the vector passes' tries only: a lane still rejecting after
        # them finds no double left in finish, at its one and last stratum.
        design = ((1800,), (900,), (140,))
        ids = np.random.default_rng(5).integers(0, 2**64, size=300, dtype=np.uint64)
        sampler = _CountSampler(*design)
        sampler.words = 2 * randomness._PASSES
        words_read = []
        for i in ids.tolist():
            gen = RandomStream(3, i).generator()
            gen.hypergeometric(900, 900, 140)
            state = gen.bit_generator.state  # a fresh Philox has counter 0 and an empty buffer of 4 words
            words_read.append(4 * (state["state"]["counter"][0] - 1) + state["buffer_pos"])
        assert max(words_read) > sampler.words
        assert np.array_equal(sampler._lanes(3, ids), _scalar_counts(3, ids, design))

    # A reordered expression moves the last bit of a constant, a table entry
    # or a try's X far more often than it moves a count, so these are checked
    # bit for bit against numpy's C, as tests/oracles.py transcribes it.
    def test_logfactorial_is_numpys(self):
        # Below 200 000, np.log differs from the C library's log on eight integers, first at 9 170;
        # on seven of them the logfactorial moves too.
        ks = range(200_000)
        assert randomness._logfactorials(np.arange(200_000)).tolist() == [oracles.logfactorial(k) for k in ks]

    def test_constants_tables_and_tries_are_numpys(self):
        rng = np.random.default_rng(8)
        uv = rng.random((2, 2000))
        # (N, K, n) = (90, 45, 25) and the like put (cs + 1)(lo + 1) / (N + 2)
        # on a whole number, which another operand order floors to m - 1;
        # (119, 32, 54) is floored to m - 1 when (lo + 1) / (N + 2) is rounded first.
        strata = [(90, 45, 25), (96, 48, 15), (108, 54, 27), (119, 32, 54)]
        for _ in range(300):
            N = int(rng.choice([rng.integers(20, 400), rng.integers(400, 20_000)]))
            strata.append((N, int(rng.integers(0, N + 1)), int(rng.integers(10, N - 9))))
        hrua = [randomness._Hrua(N, K, n) for N, K, n in strata]
        randomness._build_tables(hrua)
        for (N, K, n), s in zip(strata, hrua):
            setup = oracles.hrua_setup(K, N - K, n)
            assert (s.a, s.h, s.m, s.g, s.b) == (setup["a"], setup["h"], setup["m"], setup["g"], setup["b"])
            assert s.table[:-1].tolist() == [oracles.hrua_t(setup, k) for k in range(s.b)]
            assert s.table[-1] == -math.inf
            u, v = uv
            assert s.x(u, v).tolist() == [setup["a"] + setup["h"] * (vi - 0.5) / ui for ui, vi in uv.T.tolist()]

    @pytest.mark.parametrize(
        "design",
        [((2000,), (1000,), (9,)), ((2000,), (1000,), (1991,)), ((2000, 30), (1000, 10), (100, 25)), ((10**6,), (5 * 10**5,), (4 * 10**5,))],
        ids=["n-below-10", "n-above-N-minus-10", "small-stratum", "table-over-cap"],
    )
    def test_designs_outside_the_kernel_fall_back(self, design):
        sampler = _CountSampler(*design)
        assert sampler.strata is None
        ids = np.arange(_MIN_LANES + 5, dtype=np.uint64)
        assert np.array_equal(sampler.counts(2, ids), _scalar_counts(2, ids, design))

    def test_design_at_the_table_cap_draws_on_lanes(self):
        # One stratum's table of exactly _TABLE_CAP entries, and a census; one more sampled unit passes the cap.
        design = ((300_000, 50), (150_000, 20), (126_742, 50))
        sampler = _CountSampler(*design)
        assert sampler.strata is not None and sampler.hrua[0].b + 1 == randomness._TABLE_CAP
        ids = np.arange(_MIN_LANES, dtype=np.uint64)
        assert np.array_equal(sampler.counts(2, ids), _scalar_counts(2, ids, design))
        assert sampler.hrua[0].table.size == randomness._TABLE_CAP
        assert _CountSampler((300_000,), (150_000,), (126_743,)).strata is None

    def test_tables_are_built_at_the_first_lane_draw_only(self):
        design = ((2000, 3000), (700, 1500), (100, 140))
        sampler = _CountSampler(*design)
        small = np.arange(_MIN_LANES - 1, dtype=np.uint64)
        for _ in range(2):
            assert np.array_equal(sampler.counts(4, small), _scalar_counts(4, small, design))
        assert [s.table for s in sampler.hrua] == [None, None]
        ids = np.arange(_MIN_LANES, dtype=np.uint64)
        assert np.array_equal(sampler.counts(4, ids), _scalar_counts(4, ids, design))
        assert [s.table.size for s in sampler.hrua] == [s.b + 1 for s in sampler.hrua]

    def test_all_census_draws_nothing(self):
        design = ((50, 7), (20, 3), (50, 7))
        ids = np.arange(_MIN_LANES, dtype=np.uint64)
        assert _CountSampler(*design).counts(1, ids).tolist() == [[20] * _MIN_LANES, [3] * _MIN_LANES]


@pytest.fixture
def fresh_self_check():
    """Run the bulk kernels' self-check again in this test, and again after it."""
    check = randomness._bulk_ok
    check.cache_clear()
    yield check
    check.cache_clear()


class TestSelfCheck:
    def test_check_ids_reach_the_ziggurat_slow_path(self):
        ids = np.arange(256, dtype=np.uint64)
        assert sum(int(_slow_path(seed, ids).sum()) for seed in randomness._CHECK_SEEDS) >= 5

    def test_check_designs_reach_every_branch(self):
        reached = set()
        for design in randomness._CHECK_DESIGNS:
            for i in range(randomness._CHECK_LANES):
                reached |= oracles.hypergeometric_trace(0, i, *design)[1]
        assert {"log test", "stirling", "good > bad", "cs < sample", "census", "K in {0, N}"} <= reached

    def test_kernels_agree_with_numpy_here(self, fresh_self_check):
        assert randomness._bulk_ok() is True

    def test_not_run_at_import(self):
        import subprocess
        import sys

        code = "import stratci, stratci.randomness as r; print(r._bulk_ok.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "0"

    @pytest.mark.parametrize("table", ["WI", "LOGFACT"])
    def test_corrupt_table_falls_back_to_scalar(self, monkeypatch, fresh_self_check, table):
        from stratci import ExperimentConfig, Uniform, run_experiment

        config = ExperimentConfig(
            strata=4, stratum_size=Uniform(100, 400), rate=Uniform(0.1, 0.4), proportion=Uniform(0.1, 0.9),
            rho=0.05, repetitions=_MIN_LANES + 40, base_seed=3,
        )
        expected = run_experiment(config, keep_records=True)
        if table == "WI":
            # A tenth of a percent off, in the entry of a check id on the fast path.
            r = int(_philox_first_words(0, np.array([0], dtype=np.uint64))[0])
            assert not _slow_path(0, np.array([0], dtype=np.uint64))[0]
            corrupt = randomness._WI.copy()
            corrupt[r & 0xFF] *= 1.001
        else:
            # log(24!), which g of a check design and many tries here read.
            corrupt = list(randomness._LOGFACT)
            corrupt[24] += 1.0
        monkeypatch.setattr(randomness, f"_{table}", corrupt)
        # The corruption moves the kernels' bits ...
        monkeypatch.setattr(randomness, "_bulk_ok", lambda: True)
        assert run_experiment(config, keep_records=True) != expected
        monkeypatch.undo()
        monkeypatch.setattr(randomness, f"_{table}", corrupt)
        fresh_self_check.cache_clear()
        # ... the self-check sees it, and every draw is then made stream by stream.
        assert run_experiment(config, keep_records=True) == expected
        assert randomness._bulk_ok() is False
