"""fp16 scaling factors stay finite and nonzero at both extremes.

A plain fp16 round trip turns a scale below ~3e-8 into 0 and one above
65520 into inf, after which the group dequantizes to NaN (or flushes to
±0).  ``fp16_scale`` clamps the rounded scale to ``[2^-24, 65504]``;
every quantizer with 16-bit scales goes through it.  Inside that range
it must be the plain round trip, bit for bit; outside it, tiny groups
must come back finite with their zeros intact and huge groups must
saturate at ``±grid_max · 65504``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codec import INT_A, MantCodec
from repro.core.fused import quantize_activations_int8
from repro.datatypes import IntType, fp16_scale
from repro.datatypes.floats import FP16_SCALE_MAX, FP16_SCALE_MIN
from repro.quant.ant import AntQuantizer
from repro.quant.config import Granularity
from repro.quant.kvcache import IntKVCache, MantKVCache
from repro.quant.quantizer import GroupQuantizer

TINY, HUGE = 1e-12, 1e12


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def extreme_block(magnitude, seed=0):
    """(2, 64) normal values at ``magnitude`` with one exact-zero entry."""
    x = np.random.default_rng(seed).normal(size=(2, 64)) * magnitude
    x[0, 3] = 0.0
    return x


def assert_tiny_ok(out):
    assert np.all(np.isfinite(out))
    assert out[0, 3] == 0.0                      # exact zeros stay zero


def assert_saturated(out, ceiling):
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) == ceiling
    assert np.all(np.abs(out) <= ceiling)


def test_bounds_are_fp16_values():
    assert FP16_SCALE_MIN == float(np.finfo(np.float16).smallest_subnormal)
    assert FP16_SCALE_MAX == float(np.finfo(np.float16).max)


@settings(max_examples=300, deadline=None)
@given(st.floats(FP16_SCALE_MIN, FP16_SCALE_MAX))
def test_in_range_is_plain_round_trip(s):
    x = np.array([s, s * 0.5 + FP16_SCALE_MIN])
    assert np.array_equal(bits(fp16_scale(x)),
                          bits(x.astype(np.float16).astype(np.float64)))


def test_out_of_range_clamps():
    x = np.array([1e-300, 2.0**-26, 2.0**-25, 65520.0, 1e300, np.inf])
    assert fp16_scale(x).tolist() == [FP16_SCALE_MIN] * 3 + [FP16_SCALE_MAX] * 3
    assert fp16_scale(1e-30) == FP16_SCALE_MIN


def test_group_quantizer_int8_extremes():
    gq = GroupQuantizer(IntType(8), Granularity.GROUP, 64)
    assert_tiny_ok(gq.qdq(extreme_block(TINY)))
    assert_saturated(gq.qdq(extreme_block(HUGE)), 127 * FP16_SCALE_MAX)


@pytest.mark.parametrize("gran", [Granularity.TENSOR, Granularity.CHANNEL])
def test_group_quantizer_other_granularities(gran):
    gq = GroupQuantizer(IntType(4), gran, 64)
    assert_tiny_ok(gq.qdq(extreme_block(TINY)))
    assert_saturated(gq.qdq(extreme_block(HUGE)), 7 * FP16_SCALE_MAX)


def test_mant_codec_extremes():
    codec = MantCodec(bits=4, group_size=64)
    a_int = np.full((2, 1), float(INT_A))
    tiny = extreme_block(TINY)
    # MANT grids have no zero level: a tiny group only has to stay finite.
    assert np.all(np.isfinite(codec.qdq(tiny, np.full((2, 1), 17.0))))
    assert_tiny_ok(codec.qdq(tiny, a_int))
    assert_tiny_ok(codec.decode(codec.encode(tiny, a_int)))
    huge = extreme_block(HUGE)
    assert_saturated(codec.qdq(huge, a_int), 7 * FP16_SCALE_MAX)
    assert_saturated(codec.decode(codec.encode(huge, a_int)), 7 * FP16_SCALE_MAX)


def test_int8_activations_extremes():
    assert_tiny_ok(quantize_activations_int8(extreme_block(TINY)).dequantize())
    assert_saturated(quantize_activations_int8(extreme_block(HUGE)).dequantize(),
                     127 * FP16_SCALE_MAX)


def test_ant_extremes():
    ant = AntQuantizer(bits=4, granularity=Granularity.GROUP, group_size=64)
    assert_tiny_ok(ant.qdq(extreme_block(TINY)))
    assert np.all(np.isfinite(ant.qdq(extreme_block(HUGE))))


@pytest.mark.parametrize("make", [IntKVCache, MantKVCache])
@pytest.mark.parametrize("magnitude", [TINY, HUGE])
def test_kv_caches_stay_finite(make, magnitude):
    rng = np.random.default_rng(1)
    cache = make()
    k, v = rng.normal(size=(2, 2, 70, 64)) * magnitude
    k[:, 66, 5] = v[:, 66, 5] = 0.0       # zeros in the staged prefill tail
    cache.prefill(k, v)
    for _ in range(70):
        k_t, v_t = rng.normal(size=(2, 2, 64)) * magnitude
        k_t[:, 5] = v_t[:, 5] = 0.0
        cache.append(k_t, v_t)
    assert np.all(np.isfinite(cache.keys()))
    assert np.all(np.isfinite(cache.values()))
