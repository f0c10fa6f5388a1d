"""Deterministic, splittable random sources backed by counter-based Philox.

A :class:`RandomStream` is a value type: the pair (base_seed, stream_id) fully
determines its draw sequence, identically on every platform.  Derivation from
index tuples uses a splitmix64 hash-combine, so concurrent tasks can each own
a stream without any draw-order coupling.

Noise for many streams can also be drawn ahead, in one vectorised pass: a
bulk kernel computes splitmix64, the first Philox4x64-10 block and numpy's
ziggurat fast path over uint64 arrays, bit for bit as a fresh generator
would.  A stream's draws are a pure function of its key, so the draws for a
stream's children can travel with the stream value itself, which
:func:`child_normals` then returns instead of drawing them again.

The draws here are statistical-quality Gaussians; they are not hardened
against floating-point side channels (a known practical caveat for
differentially private noise generation, out of scope here).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _ziggurat
from .core import ValidationError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _combine(state: int, index: int) -> int:
    """The splitmix64 finalizer of ``state ^ index``, with the int ``index`` taken mod 2**64."""
    x = ((state ^ (index & _MASK64)) + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RandomStream:
    """An immutable handle on one Philox stream."""

    base_seed: int
    stream_id: int

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

    Like every index, ``base_seed`` is taken modulo 2**64, so seeds that agree
    modulo 2**64 give the same streams; the CLI accepts only [0, 2**64 - 1].
    """
    sid = _combine(0, int(base_seed))
    for idx in indices:
        sid = _combine(sid, int(idx))
    return RandomStream(base_seed, sid)


@dataclass(frozen=True, eq=False)
class _DrawnStream(RandomStream):
    """A stream with its :func:`child_normals` draws for one (children, fan) already made."""

    children: int
    fan: int
    normals: list[float]


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
    sid = stream.stream_id
    if fan == 1:
        ids = [_combine(sid, i) for i in range(children)]
    else:
        ids = [_combine(sub, j) for sub in (_combine(sid, i) for i in range(children)) for j in range(fan)]
    return standard_normals(stream.base_seed, ids)


_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK52 = _U64((1 << 52) - 1)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (_U64(0xD2E7470EE14C6C93), _U64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_KI = np.frombuffer(_ziggurat.KI, dtype="<u8").astype(_U64)
_WI = np.frombuffer(_ziggurat.WI, dtype="<f8").astype(np.float64)


def _combine_array(state, index):
    """:func:`_combine` over uint64 arrays, wrapping mod 2**64 (numpy checks no array overflow)."""
    x = (state ^ index) + _U64(_GOLDEN)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


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
    """:func:`standard_normals` over a uint64 array of stream ids, as float64.

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
    ids = []
    for parents, children, fan in requests:
        sub = _combine_array(parents[:, None], np.arange(children, dtype=_U64))
        if fan > 1:
            sub = _combine_array(sub[:, :, None], np.arange(fan, dtype=_U64))
        ids.append(sub.ravel())
    normals = _bulk_normals(base_seed, np.concatenate(ids))
    out, at = [], 0
    for (parents, children, fan), sub in zip(requests, ids):
        rows = normals[at:at + sub.size].reshape(len(parents), children * fan).tolist()
        at += sub.size
        out.append(map(_DrawnStream, repeat(base_seed), parents.tolist(), repeat(children), repeat(fan), rows))
    return out


def gaussian(stream: RandomStream, mean: float, variance: float, size: int | None = None):
    """Draw from N(mean, variance); the first draw(s) of the stream.

    ``variance == 0`` returns the mean exactly.  ``size=None`` gives a scalar
    float, otherwise an ndarray.
    """
    if not variance >= 0.0:
        raise ValidationError(f"variance must be nonnegative, got {variance}")
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
