"""Seeded, splittable randomness.

Every stochastic experiment in the reproduction takes an explicit seed and
derives independent substreams per component (per processor, per workload)
from ``[seed, crc32(repr(keys))]``, so that adding a component never
perturbs the draws seen by another — runs are bitwise reproducible and
comparisons between architectures use common random numbers.

Two stream types share that derivation:

* :func:`derive_rng` returns a numpy ``Generator``, for callers that draw
  arrays (the workload generators, the multi-module arrivals);
* :func:`derive_stream` returns a :class:`PCG64Stream`, a pure-Python copy
  of the same generator's scalar ``integers(low, high)`` and ``random()``
  draws, bit for bit: numpy's ``SeedSequence`` pool mixing, PCG64's
  XSL-RR output, its buffered 32-bit draws with Lemire rejection and its
  53-bit doubles.  Callers that draw one number at a time (the coherence
  runners, the fault plans, the circuit and hot-spot models) use it.

numpy is imported only by :func:`derive_rng` and :func:`make_rng`, not by
this module, so numpy loads only for array draws: a cfm run draws nothing
(its schedule is static) and a cache or hierarchy run draws scalars.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, List, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_TWO32 = 1 << 32

# numpy's SeedSequence constants (bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def make_rng(seed: SeedLike = 0) -> np.random.Generator:
    """Return a numpy Generator for ``seed`` (pass-through if already one)."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _entropy(seed: object, keys: tuple) -> List[int]:
    """The ``[base, digest]`` entropy both stream types seed from.

    A seed that is itself a stream (a numpy Generator or a
    :class:`PCG64Stream`) folds one draw into the derivation, so repeated
    calls differ.
    """
    draw = getattr(seed, "integers", None)
    base = int(draw(0, 2**31 - 1)) if draw is not None else int(seed)
    return [base, zlib.crc32(repr(keys).encode("utf-8"))]


def derive_rng(seed: SeedLike, *keys: object) -> np.random.Generator:
    """Derive an independent numpy substream identified by ``keys``.

    ``derive_rng(42, "proc", 3)`` always yields the same stream, and streams
    for distinct key tuples are statistically independent (distinct
    ``SeedSequence`` entropy).  If ``seed`` is itself a Generator we fold
    one draw from it into the derivation so repeated calls differ.
    """
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, keys)))


def derive_stream(seed: SeedLike, *keys: object) -> "PCG64Stream":
    """Derive the scalar stream ``derive_rng(seed, *keys)`` would draw.

    Its ``integers(low, high)`` and ``random()`` calls return exactly what
    the same calls on ``derive_rng(seed, *keys)`` return, in any
    interleaving, without loading numpy.
    """
    return PCG64Stream(_seed_state(_entropy(seed, keys)))


def _uint32_words(n: int) -> List[int]:
    """``n`` as little-endian 32-bit words (numpy's ``_int_to_uint32_array``)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _seed_state(entropy: List[int]) -> List[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)`` in pure Python."""
    words = [w for n in entropy for w in _uint32_words(n)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        state32.append(value ^ (value >> 16))
    return [state32[2 * k] | (state32[2 * k + 1] << 32)
            for k in range(_POOL_SIZE)]


class PCG64Stream:
    """numpy's PCG64 ``Generator``, for scalar ``integers`` and ``random``.

    Built from ``generate_state(4, uint64)`` words as numpy's ``PCG64``
    seeds itself (``pcg64_set_seed``: state and increment are each two
    words, high word first).  ``integers`` covers widths up to 2**32, the
    only ones numpy draws with 32-bit outputs; a wider range raises.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed_words: List[int]) -> None:
        initstate = (seed_words[0] << 64) | seed_words[1]
        initseq = (seed_words[2] << 64) | seed_words[3]
        # pcg_setseq_128_srandom_r: step, add the initial state, step.
        self._inc = ((initseq << 1) | 1) & _M128
        state = (self._inc + initstate) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        # The high half of the last 64-bit draw, kept for the next 32-bit
        # draw (numpy's has_uint32/uinteger); -1 when empty.
        self._high = -1

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        value = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _M64

    def _next32(self) -> int:
        high = self._high
        if high >= 0:
            self._high = -1
            return high
        value = self._next64()
        self._high = value >> 32
        return value & _M32

    def integers(self, low: int, high: int) -> int:
        """One integer uniform on ``[low, high)``, as numpy draws it."""
        width = high - low
        if width <= 1:
            if width == 1:
                return low  # numpy draws nothing for a one-value range
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        if width > _TWO32:
            raise ValueError(
                f"integers: width {width} exceeds 2**32, the widest range "
                "this stream draws")
        if width == _TWO32:
            return low + self._next32()
        # Lemire's multiply-shift with numpy's 32-bit rejection threshold.
        product = self._next32() * width
        if (product & _M32) < width:
            threshold = _TWO32 % width
            while (product & _M32) < threshold:
                product = self._next32() * width
        return low + (product >> 32)

    def random(self) -> float:
        """One double uniform on ``[0, 1)``: ``(u64 >> 11) * 2**-53``."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)
