"""Deterministic, splittable random sources backed by counter-based Philox.

A :class:`RandomStream` is a value type: the pair (base_seed, stream_id) fully
determines its draw sequence, identically on every platform.  Derivation from
index tuples uses a splitmix64 hash-combine, so concurrent tasks can each own
a stream without any draw-order coupling.

The draws here are statistical-quality Gaussians; they are not hardened
against floating-point side channels (a known practical caveat for
differentially private noise generation, out of scope here).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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
    """Map (base_seed, index tuple) to a stream, injectively up to hash collisions."""
    sid = _combine(0, int(base_seed))
    for idx in indices:
        sid = _combine(sid, int(idx))
    return RandomStream(base_seed, sid)


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
