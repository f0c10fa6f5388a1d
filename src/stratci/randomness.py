"""Deterministic, splittable random sources backed by counter-based Philox.

A :class:`RandomStream` is a value type: the pair (base_seed, stream_id) fully
determines its draw sequence, identically on every platform.  Derivation from
index tuples uses a splitmix64 hash-combine, so concurrent tasks can each own
a stream without any draw-order coupling.  A single release derives its
child stream ids by scalar hash-combines, or in one array pass once it needs
at least ``_ARRAY_CROSSOVER`` / 2 of them per pass; the ids are the same
either way.

Noise for many streams can also be drawn ahead, in one vectorised pass: a
bulk kernel computes splitmix64, the first Philox4x64-10 block and numpy's
ziggurat fast path over uint64 arrays, bit for bit as a fresh generator
would.  A stream's draws are a pure function of its key, so the draws for a
stream's children can travel with the stream value itself, which
:func:`child_normals` then returns instead of drawing them again.

Hypergeometric sample counts for many streams of one design are drawn
lane-parallel by :class:`_CountSampler`, numpy's own ratio-of-uniforms
sampler run over arrays of streams, again bit for bit (a lane that runs
out of buffered doubles is redrawn whole, by numpy's scalar sampler); its
``g - gp`` tables are built whole, in one array pass, at its first lane
draw: at most 4 x ``_TABLE_CAP`` logarithms per sampler, whatever entries
its tries reach (near the cap, far more time than its draws take).  Both
bulk kernels are compared with numpy's scalar draws once per process, at
the first bulk draw; on any difference, every draw is made stream by stream.

The draws here are statistical-quality Gaussians; they are not hardened
against floating-point side channels (a known practical caveat for
differentially private noise generation, out of scope here).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _ziggurat
from .core import _check_number

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _combine(state: int, index: int) -> int:
    """The splitmix64 finalizer of ``state ^ index``, with the int ``index`` taken mod 2**64."""
    x = ((state ^ (index & _MASK64)) + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True, init=False)
class RandomStream:
    """An immutable handle on one Philox stream."""

    base_seed: int
    stream_id: int

    def __init__(self, base_seed: int, stream_id: int) -> None:
        if type(base_seed) is not int or type(stream_id) is not int:  # a plain int passes on its type alone
            _check_number("base_seed", base_seed, integer=True)
            _check_number("stream_id", stream_id, integer=True)
        self.__dict__.update(base_seed=base_seed, stream_id=stream_id)

    def child(self, *indices: int) -> "RandomStream":
        """Derive a sub-stream by hash-combining further indices."""
        sid = self.stream_id
        for idx in indices:
            sid = _combine(sid, int(idx))
        return RandomStream(self.base_seed, sid)

    def generator(self) -> np.random.Generator:
        """A fresh numpy Generator positioned at the start of this stream."""
        key = np.array([self.base_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_stream(base_seed: int, indices: Sequence[int]) -> RandomStream:
    """Map (base_seed, index tuple) to a stream, injectively up to hash collisions.

    The seed and the indices are integers.  Like every index, ``base_seed``
    is taken modulo 2**64, so seeds that agree modulo 2**64 give the same
    streams; the CLI accepts only [0, 2**64 - 1].
    """
    sid = 0
    for idx in (base_seed, *indices):
        if type(idx) is not int:  # a plain int passes on its type alone
            _check_number("every seed and index", idx, integer=True)
        sid = _combine(sid, int(idx))
    return RandomStream(base_seed, sid)


@dataclass(frozen=True, eq=False, init=False)
class _DrawnStream(RandomStream):
    """A stream with its :func:`child_normals` draws for one (children, fan) already made."""

    children: int
    fan: int
    normals: list[float]

    def __init__(self, base_seed: int, stream_id: int, children: int, fan: int, normals: list[float]) -> None:
        self.__dict__.update(base_seed=base_seed, stream_id=stream_id, children=children, fan=fan, normals=normals)


class _Scratch(threading.local):
    """Per-thread reusable Philox/Generator pair.

    Resetting the cached bit generator's state is far cheaper than
    constructing a fresh one and produces bit-identical draws, which matters
    in the million-draw Monte-Carlo checks.  The state template holds plain
    lists, which numpy's state setter reads about twice as fast as arrays; a
    reset writes the two key words and assigns the template, whose counter,
    buffer position and cached 32-bit word are those of a fresh stream.
    """

    def __init__(self) -> None:
        self.bitgen = np.random.Philox(key=[0, 0])
        self.gen = np.random.Generator(self.bitgen)
        self.key = [0, 0]
        self.template = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self.key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def reset(self, stream: RandomStream) -> np.random.Generator:
        self.key[0] = stream.base_seed & _MASK64
        self.key[1] = stream.stream_id & _MASK64
        self.bitgen.state = self.template
        return self.gen


_scratch = _Scratch()


def standard_normals(base_seed: int, stream_ids: Iterable[int]) -> list[float]:
    """The first standard-normal draw of each stream (base_seed, stream_id), in order."""
    scratch = _scratch
    key, bitgen, template = scratch.key, scratch.bitgen, scratch.template
    draw = scratch.gen.standard_normal
    key[0] = base_seed & _MASK64
    draws = []
    for sid in stream_ids:
        key[1] = sid & _MASK64
        bitgen.state = template
        draws.append(draw())
    return draws


def child_normals(stream: RandomStream, children: int, fan: int = 1) -> list[float]:
    """The first standard normal of each ``stream.child(i)``, or of each ``child(i, j)`` if ``fan > 1``.

    Ordered by i, then j, for i < ``children`` and j < ``fan``.  A stream that
    carries the draws for this (children, fan) returns its list, which the
    caller must not modify; any other is drawn stream by stream.
    """
    if isinstance(stream, _DrawnStream) and stream.children == children and stream.fan == fan:
        return stream.normals
    return standard_normals(stream.base_seed, _child_id_list(stream.stream_id, children, fan))


_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK52 = _U64((1 << 52) - 1)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_KI = np.frombuffer(_ziggurat.KI, dtype="<u8").astype(_U64)
_WI = np.frombuffer(_ziggurat.WI, dtype="<f8").astype(np.float64)


# splitmix64's increment, shifts and multipliers, made uint64 once.
_SPLITMIX = tuple(map(_U64, (_GOLDEN, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)))
# One array pass of _child_ids costs about as much as 15 scalar _combine
# calls, and a fan above 1 takes two passes: children * (1 + fan) >= 30 holds
# exactly when the scalar loop would make at least 15 calls per pass.
_ARRAY_CROSSOVER = 30


def _combine_array(state, index):
    """:func:`_combine` over uint64 arrays, wrapping mod 2**64 (numpy checks no array overflow)."""
    golden, s1, m1, s2, m2, s3 = _SPLITMIX
    x = (state ^ index) + golden
    x = (x ^ (x >> s1)) * m1
    x = (x ^ (x >> s2)) * m2
    return x ^ (x >> s3)


def _child_ids(parents: np.ndarray, children: int, fan: int) -> np.ndarray:
    """The ids of ``child(i)``, or of ``child(i, j)`` if ``fan > 1``, of each id of a uint64 array, as uint64.

    The (parents x children x fan) tree, flat and ordered by parent, then i,
    then j; each id is the splitmix64 value :func:`_combine` gives.
    """
    ids = _combine_array(parents[:, None], np.arange(children, dtype=_U64))
    if fan > 1:
        ids = _combine_array(ids[:, :, None], np.arange(fan, dtype=_U64))
    return ids.ravel()


def _child_id_list(stream_id: int, children: int, fan: int) -> list[int]:
    """The ids of the streams :func:`child_normals` draws from, in its order, in one array pass once that pays."""
    if children * (1 + fan) >= _ARRAY_CROSSOVER:
        return _child_ids(np.array([stream_id & _MASK64], dtype=_U64), children, fan).tolist()
    if fan == 1:
        return [_combine(stream_id, i) for i in range(children)]
    return [_combine(sub, j) for sub in (_combine(stream_id, i) for i in range(children)) for j in range(fan)]


def _mulhi(m: np.uint64, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit product m * b, from 32-bit halves."""
    m_lo, m_hi = m & _MASK32, m >> _U64(32)
    b_lo, b_hi = b & _MASK32, b >> _U64(32)
    lo_hi = m_hi * b_lo
    cross = ((m_lo * b_lo) >> _U64(32)) + (lo_hi & _MASK32) + m_lo * b_hi
    return m_hi * b_hi + (lo_hi >> _U64(32)) + (cross >> _U64(32))


def _philox_first_words(key0: int, key1: np.ndarray) -> np.ndarray:
    """The first output word of Philox4x64-10 at counter (1, 0, 0, 0), key (key0, key1[i]).

    That is the first ``random_raw()`` of a fresh ``np.random.Philox(key)``.
    The first round has the closed form (key0, 0, key1, M0).
    """
    m0, m1 = _PHILOX_M
    c0, c1, c2, c3 = np.full_like(key1, key0), np.zeros_like(key1), key1, np.full_like(key1, m0)
    for r in range(1, 9):
        k0 = _U64((key0 + r * _PHILOX_W[0]) & _MASK64)
        k1 = key1 + _U64((r * _PHILOX_W[1]) & _MASK64)
        c0, c1, c2, c3 = _mulhi(m1, c2) ^ c1 ^ k0, m1 * c2, _mulhi(m0, c0) ^ c3 ^ k1, m0 * c0
    # Of the tenth round, only the first word is needed.
    return _mulhi(m1, c2) ^ c1 ^ _U64((key0 + 9 * _PHILOX_W[0]) & _MASK64)


def _bulk_normals(base_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """:func:`standard_normals` over a uint64 array of stream ids, as float64."""
    if not _bulk_ok():
        return np.array(standard_normals(base_seed, stream_ids.tolist()), dtype=np.float64)
    return _ziggurat_normals(base_seed, stream_ids)


def _ziggurat_normals(base_seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """The bulk kernel of :func:`_bulk_normals`.

    numpy's ziggurat (Marsaglia & Tsang 2000) reads one 64-bit word r:
    index r & 0xff, sign bit 8, and a 52-bit magnitude above it; the draw is
    +-magnitude * wi[index], accepted when the magnitude is below ki[index].
    The draws that fail that test (about 1.5%) are redrawn by the scalar path.
    """
    r = _philox_first_words(base_seed & _MASK64, stream_ids)
    idx = (r & _U64(0xFF)).astype(np.intp)
    rabs = (r >> _U64(9)) & _MASK52
    normals = rabs.astype(np.float64) * _WI[idx]
    np.negative(normals, out=normals, where=((r >> _U64(8)) & _U64(1)).astype(bool))
    slow = np.flatnonzero(rabs >= _KI[idx])
    if slow.size:
        normals[slow] = standard_normals(base_seed, stream_ids[slow].tolist())
    return normals


def _drawn_streams(base_seed: int, requests: Sequence[tuple]) -> list[Iterator[_DrawnStream]]:
    """Per request (parent stream ids as a uint64 array, children, fan), an iterator of its parents.

    The iterator yields, per parent id p in order, the stream (base_seed, p)
    carrying ``child_normals(RandomStream(base_seed, p), children, fan)``,
    made as it is read.  One bulk draw fills every request.
    """
    ids = [_child_ids(parents, children, fan) for parents, children, fan in requests]
    normals = _bulk_normals(base_seed, np.concatenate(ids))
    out, at = [], 0
    for (parents, children, fan), sub in zip(requests, ids):
        n = len(parents)
        rows = normals[at:at + sub.size].reshape(n, children * fan).tolist()
        at += sub.size
        out.append(map(_DrawnStream, [base_seed] * n, parents.tolist(), [children] * n, [fan] * n, rows))
    return out


def gaussian(stream: RandomStream, mean: float, variance: float, size: int | None = None):
    """Draw from N(mean, variance); the first draw(s) of the stream.

    ``variance == 0`` returns the mean exactly.  ``size=None`` gives a scalar
    float, otherwise an ndarray.
    """
    _check_number("variance", variance, "[0, inf)")
    if variance == 0.0:
        return mean if size is None else np.full(size, mean)
    gen = _scratch.reset(stream)
    sd = variance ** 0.5
    if size is None:
        return mean + sd * gen.standard_normal()
    return mean + sd * gen.standard_normal(size)


def hypergeometric_counts(
    stream: RandomStream,
    population_sizes: Sequence[int],
    positive_counts: Sequence[int],
    sample_sizes: Sequence[int],
) -> tuple[int, ...]:
    """Hypergeometric(N_h, K_h, n_h) count per stratum, drawn in stratum order from the stream's start.

    Scalar draws in order read the same bits as numpy's one array-argument
    call, at a fraction of its per-call cost.  The caller checks
    0 <= K_h <= N_h and 0 <= n_h <= N_h.
    """
    gen = _scratch.reset(stream)
    return tuple(
        int(gen.hypergeometric(K, N - K, n))
        for N, K, n in zip(population_sizes, positive_counts, sample_sizes)
    )


_LOGFACT = np.frombuffer(_ziggurat.LOGFACT, dtype="<f8").tolist()
_HALF_LN_2PI = 0.9189385332046728
# Stadlober's hat constants 2 sqrt(2/e) and 3 - 2 sqrt(3/e), as numpy writes them.
_D1, _D2 = 1.7155277699214135, 0.8989161620588988
# A design whose g - gp tables would hold more entries than this falls back
# to scalar draws; the twenty-stratum configs need about 3 000.
_TABLE_CAP = 1 << 16
# Blocks of fewer lanes draw stream by stream, which is then as fast.
_MIN_LANES = 160
# Vector tries per stratum before the lanes still rejecting finish one by one
# from their buffers; a lane with fewer tries left at a stratum is redrawn whole.
_PASSES = 4


def _logfactorials(k: np.ndarray) -> np.ndarray:
    """numpy's ``logfactorial`` over an int array: its table below 126, else Stirling's series to the 1/k**3 term.

    Each logarithm is the C library's, through ``math.log`` (``np.log``
    differs from it in the last bit on some integers), and every other
    operation keeps the C code's order, so each entry is numpy's bit for bit.
    """
    table = np.array(_LOGFACT)
    big = k >= len(table)
    out = table[np.where(big, 0, k)]
    x = k[big].astype(np.float64)
    logs = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
    out[big] = (x + 0.5) * logs - x + (_HALF_LN_2PI + (1.0 / x) * (1 / 12.0 - 1 / (360.0 * x * x)))
    return out


class _Hrua:
    """numpy's ``hypergeometric_hrua`` for one stratum (Stadlober 1989): its constants and ``g - gp`` table.

    The draw is made on the smaller of (K, N - K) and of (n, N - n), then
    mapped back.  :func:`_build_tables` sets ``g`` and the table, whole, at
    the sampler's first lane draw: ``table[k]`` holds T = g - gp(k) for k in
    [0, b), and ``table[b]`` holds -inf, so that a try outside [0, b) fails
    both fast tests, as numpy's range test rejects it.  Every expression
    keeps the C code's operand order.
    """

    def __init__(self, N: int, K: int, n: int) -> None:
        self.good, self.flip, self.complement = K, K > N - K, N - n < n
        self.cs = cs = min(n, N - n)
        self.lo = lo = min(K, N - K)
        self.hi = hi = max(K, N - K)
        p, q = lo / N, hi / N
        self.a = cs * p + 0.5
        c = math.sqrt(float(N - cs) * cs * p * q / (N - 1) + 0.5)
        self.h = _D1 * c + _D2
        self.m = math.floor(float(cs + 1) * (lo + 1) / (N + 2))
        self.b = min(min(cs, lo) + 1, math.floor(self.a + 16 * c))
        self.g = self.table = None  # set by _build_tables at the first lane draw

    def x(self, u, v):
        """X = a + h (V - 0.5) / U of a try, over floats or arrays."""
        return self.a + self.h * (v - 0.5) / u

    def finish(self, uniforms: Iterator[float]) -> tuple[int, int]:
        """numpy's rejection loop on a lane's next doubles: (k, doubles read); StopIteration if they run out."""
        read = 0
        while True:
            u, v = next(uniforms), next(uniforms)
            read += 2
            if u == 0.0:  # X is infinite, which the range test rejects
                continue
            x = self.x(u, v)
            if x < 0.0 or x >= self.b:
                continue
            k = math.floor(x)
            t = float(self.table[k])
            if u * (4.0 - u) - 3.0 <= t:
                return k, read
            if u * (u - t) >= 1:
                continue
            if 2.0 * math.log(u) <= t:
                return k, read

    def unmap(self, row: np.ndarray) -> None:
        """numpy's map of the draws k back to counts, in place."""
        if self.flip:
            np.subtract(self.cs, row, out=row)
        if self.complement:
            np.subtract(self.good, row, out=row)


def _build_tables(strata: Sequence[_Hrua]) -> None:
    """Set ``g`` and the whole table of every stratum, in one array pass over all of them.

    Stratum s takes b + 1 slots of one array: gp(k) for k in [0, b), then
    gp(m), which is g; T = g - gp follows, and the last slot becomes the
    -inf.  gp sums its four logfactorials in the C code's order.
    """
    b = np.array([s.b for s in strata])
    ends = np.cumsum(b + 1)
    starts = ends - (b + 1)
    k = np.arange(ends[-1]) - np.repeat(starts, b + 1)
    k[ends - 1] = [s.m for s in strata]
    lo, cs, hi = (np.repeat([getattr(s, name) for s in strata], b + 1) for name in ("lo", "cs", "hi"))
    lf = _logfactorials(np.stack([k, lo - k, cs - k, hi - cs + k]))
    gp = lf[0] + lf[1] + lf[2] + lf[3]
    g = gp[ends - 1]
    table = np.repeat(g, b + 1) - gp
    table[ends - 1] = -math.inf
    for s, gs, start, end in zip(strata, g.tolist(), starts.tolist(), ends.tolist()):
        s.g, s.table = gs, table[start:end]


class _CountSampler:
    """:func:`hypergeometric_counts` of one design, over lanes of streams at once.

    ``counts(base_seed, ids)`` is the C-contiguous int64 (H x L) array whose
    column i is ``hypergeometric_counts(RandomStream(base_seed, ids[i]), *design)``,
    bit for bit.  It runs numpy's HRUA over the lanes: each lane reads its
    stream's doubles, which numpy's Philox generator draws into a buffer,
    two per try, from where its previous stratum stopped; after a few vector
    passes the lanes still rejecting finish one at a time, each from its own
    buffer; a lane that runs out there, or starts a stratum past its
    ``limit``, is redrawn whole by :func:`hypergeometric_counts` after the
    last stratum.  Every stratum's table is built at the first lane draw.  A
    census stratum draws nothing.  A design with a stratum that numpy draws
    otherwise (n < 10 or n > N - 10), or whose tables would pass
    ``_TABLE_CAP``, and a block of fewer than ``_MIN_LANES`` lanes, draw
    stream by stream.
    """

    def __init__(self, population_sizes: Sequence[int], positive_counts: Sequence[int], sample_sizes: Sequence[int]):
        self.design = tuple(population_sizes), tuple(positive_counts), tuple(sample_sizes)
        # A census draws nothing: its count is K.  None marks a stratum outside HRUA.
        strata = [K if n == N else _Hrua(N, K, n) if 10 <= n <= N - 10 else None for N, K, n in zip(*self.design)]
        self.hrua = hrua = [s for s in strata if isinstance(s, _Hrua)]
        self.strata = strata if None not in strata and sum(s.b + 1 for s in hrua) <= _TABLE_CAP else None
        # Buffered doubles per lane: two per try, about 1.5 tries per stratum
        # and some to spare; a lane that runs out is redrawn whole.
        self.words = 2 * math.ceil((3 * len(hrua) + 6 * math.sqrt(len(hrua)) + 2 * _PASSES) / 2)

    def counts(self, base_seed: int, stream_ids: np.ndarray) -> np.ndarray:
        if self.strata is None or len(stream_ids) < _MIN_LANES or not _bulk_ok():
            rows = [hypergeometric_counts(RandomStream(base_seed, i), *self.design) for i in stream_ids.tolist()]
            return np.array(rows, dtype=np.int64).reshape(len(rows), len(self.design[0])).T.copy()
        return self._lanes(base_seed, stream_ids)

    # A try with U = 0 divides by zero, as in C; its X is infinite, and rejected.
    @np.errstate(divide="ignore", invalid="ignore")
    def _lanes(self, base_seed: int, ids: np.ndarray) -> np.ndarray:
        if self.hrua and self.hrua[0].table is None:
            _build_tables(self.hrua)
        L, W = len(ids), self.words
        uniforms = np.empty((L, W))
        scratch = _scratch
        key, bitgen, template, draw = scratch.key, scratch.bitgen, scratch.template, scratch.gen.random
        key[0] = base_seed & _MASK64
        for row, sid in zip(uniforms, ids.tolist()):
            key[1] = sid
            bitgen.state = template
            draw(out=row)
        flat = uniforms.ravel()
        pairs = uniforms.reshape(L * W // 2, 2)  # one (U, V) pair per try
        cursor = np.arange(0, L * W // 2, W // 2)  # each lane's next pair
        limit = cursor + (W // 2 - _PASSES)
        out = np.empty((len(self.strata), L), dtype=np.int64)
        short = np.zeros(L, dtype=bool)  # lanes whose buffer may not hold their draws
        for row, s in zip(out, self.strata):
            if not isinstance(s, _Hrua):
                row[:] = s
                continue
            short |= cursor > limit
            lanes = (~short).nonzero()[0]
            at = cursor[lanes]
            table = s.table
            for _ in range(_PASSES):
                uv = pairs[at]
                at += 1
                u, v = uv[:, 0], uv[:, 1]
                x = s.x(u, v)
                # k in [-1, b]; both ends read the -inf at table[b].
                k = np.floor(np.minimum(np.maximum(x, -1.0, out=x), s.b, out=x), out=x).astype(np.intp)
                t = table[k]
                accept = u * (4.0 - u) - 3.0 <= t
                # Neither fast test decides these; numpy's log test takes C's log.
                close = (~accept & (u * (u - t) < 1)).nonzero()[0]
                if close.size:
                    logs = np.fromiter(map(math.log, u[close].tolist()), np.float64, close.size)
                    accept[close] = 2.0 * logs <= t[close]
                done = lanes[accept]
                row[done], cursor[done] = k[accept], at[accept]
                rest = ~accept
                lanes, at = lanes[rest], at[rest]
                if not lanes.size:
                    break
            cursor[lanes] = at
            for lane in lanes.tolist():
                try:
                    row[lane], read = s.finish(iter(flat[2 * int(cursor[lane]):(lane + 1) * W].tolist()))
                except StopIteration:
                    short[lane] = True
                    continue
                cursor[lane] += read // 2
            s.unmap(row)
        for lane in short.nonzero()[0].tolist():
            out[:, lane] = hypergeometric_counts(RandomStream(base_seed, int(ids[lane])), *self.design)
        return out


# The self-check's inputs: 256 stream ids per seed for the normals, nine in
# all on the ziggurat's slow path, and designs whose first 64 lanes under
# seed 0 reach Stirling's branch of logfactorial, the log test, both of
# numpy's maps back, K = 0 and a census.
_CHECK_SEEDS = (0, 20240601)
_CHECK_LANES = 64
_CHECK_DESIGNS = (
    ((5000, 2000, 40, 300), (3100, 700, 17, 0), (2600, 150, 40, 30)),
    ((60, 1800, 200), (30, 1000, 150), (12, 1500, 100)),
)


@functools.cache
def _bulk_ok() -> bool:
    """Whether both bulk kernels draw numpy's own bits here, checked once per process at the first bulk draw.

    The frozen tables and the kernels' constants were checked against numpy
    2.4.6 only.  On a mismatch every later draw is made stream by stream.
    """
    ids = np.arange(256, dtype=_U64)
    for seed in _CHECK_SEEDS:
        if _ziggurat_normals(seed, ids).tolist() != standard_normals(seed, ids.tolist()):
            return False
    lanes = ids[:_CHECK_LANES]
    for design in _CHECK_DESIGNS:
        expected = [list(hypergeometric_counts(RandomStream(0, i), *design)) for i in lanes.tolist()]
        if _CountSampler(*design)._lanes(0, lanes).T.tolist() != expected:
            return False
    return True
