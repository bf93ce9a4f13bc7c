"""Tests for seeded, splittable randomness.

:func:`derive_stream` is pinned to numpy: its scalar draws must equal
``derive_rng``'s for the seeds and key tuples the callers use.
"""

import random

import numpy as np
import pytest

from repro.sim.rng import derive_rng, derive_stream, make_rng


def test_same_seed_same_stream():
    a = make_rng(7).random(10)
    b = make_rng(7).random(10)
    assert np.array_equal(a, b)


def test_generator_passthrough():
    g = np.random.default_rng(1)
    assert make_rng(g) is g


def test_derived_streams_reproducible():
    a = derive_rng(42, "proc", 3).random(5)
    b = derive_rng(42, "proc", 3).random(5)
    assert np.array_equal(a, b)


def test_derived_streams_independent_per_key():
    a = derive_rng(42, "proc", 3).random(5)
    b = derive_rng(42, "proc", 4).random(5)
    assert not np.array_equal(a, b)


def test_derived_streams_differ_per_seed():
    a = derive_rng(1, "x").random(5)
    b = derive_rng(2, "x").random(5)
    assert not np.array_equal(a, b)


def test_derive_from_generator_advances():
    g = np.random.default_rng(0)
    a = derive_rng(g, "x").random(3)
    b = derive_rng(g, "x").random(3)
    assert not np.array_equal(a, b)


# --------------------------------------------------------------------------
# derive_stream: numpy's scalar draws, bit for bit, without numpy

SEEDS = [0, 1, 7, 2**31 - 1, 2**32, 2**64 + 3, 10**30]

#: The key tuples the scalar-draw callers derive their streams with.
RUNNER_KEYS = [
    ("bench.cache", 4, 80),
    ("bench.hierarchy", 2, 2, 100),
    ("bench.circuit", 8, 0.5),
    ("chaos.cache", 4, 6),
    ("chaos.hier", 2, 2, 4),
    ("fault-plan", 8, 8, 2, 1024, 3, ("bank_stuck", "nc_stall")),
    ("circuit_retry", 8, 4),
    ("hotspot", 16, 4, 1),
    ("allocation", 16, 4),
    ("omp_stall", 8, 4),
]

WIDTHS = [1, 2, 3, 4, 6, 2**31 - 1, 2**32]


def _interleaved(seed, keys, n=300):
    """The same scripted mix of ``integers`` (every width in WIDTHS, at
    several lows) and ``random()`` calls against both stream types."""
    script = random.Random(f"{seed}{keys}")
    numpy_side = derive_rng(seed, *keys)
    stream = derive_stream(seed, *keys)
    for _ in range(n):
        if script.random() < 0.3:
            yield numpy_side.random(), stream.random()
        else:
            low = script.choice([-3, 0, 5])
            high = low + script.choice(WIDTHS)
            yield int(numpy_side.integers(low, high)), stream.integers(low,
                                                                       high)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", RUNNER_KEYS, ids=lambda k: k[0])
def test_stream_matches_numpy_scalar_draws(seed, keys):
    for expected, got in _interleaved(seed, keys):
        assert got == expected
        assert type(got) is type(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_value_range_consumes_nothing(seed):
    """numpy draws nothing for a one-value range, so neither may the
    stream: the draws after it must still line up."""
    numpy_side = derive_rng(seed, "bench.cache", 4, 80)
    stream = derive_stream(seed, "bench.cache", 4, 80)
    for low in (5, 0):
        assert stream.integers(low, low + 1) == low
        assert int(numpy_side.integers(low, low + 1)) == low
        for _ in range(50):
            assert stream.integers(0, 3) == int(numpy_side.integers(0, 3))
            assert stream.random() == numpy_side.random()


@pytest.mark.parametrize("width", [1, 2, 3, 6, 2**31 - 1, 2**32])
def test_array_draw_equals_scalar_draws_in_order(width):
    drawn = derive_rng(7, "allocation", 16, width).integers(0, width, size=40)
    stream = derive_stream(7, "allocation", 16, width)
    assert [int(d) for d in drawn] == [stream.integers(0, width)
                                       for _ in range(40)]


def _numpy_message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("low, high", [(0, 0), (0, -1), (5, 5), (3, 2),
                                       (-1, -1)])
def test_empty_range_raises_numpys_message(low, high):
    expected = _numpy_message(lambda: derive_rng(0, "x").integers(low, high))
    with pytest.raises(ValueError) as info:
        derive_stream(0, "x").integers(low, high)
    assert str(info.value) == expected


def test_negative_seed_raises_numpys_message():
    expected = _numpy_message(lambda: derive_rng(-1, "x"))
    with pytest.raises(ValueError) as info:
        derive_stream(-1, "x")
    assert str(info.value) == expected


def test_width_above_2_to_the_32_raises():
    with pytest.raises(ValueError, match="exceeds 2\\*\\*32"):
        derive_stream(0, "x").integers(0, 2**32 + 1)


def test_generator_seed_folds_one_draw_as_derive_rng_does():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    numpy_side, stream = derive_rng(a, "x"), derive_stream(b, "x")
    assert [stream.random() for _ in range(5)] == list(numpy_side.random(5))
    # Both seeds gave up exactly one draw.
    assert a.integers(0, 2**31 - 1) == b.integers(0, 2**31 - 1)
