"""INT quantize-dequantize shortcut == the grid-index round trip, bit for bit.

``IntType.qdq`` computes ``clip(rint(x / s), ±qmax) * s`` directly, and
``to_groups``/``from_groups`` skip ``moveaxis`` when the grouped axis is
already last.  Both are claimed bitwise equal to the generic path: snap
``x / s`` to a grid index, look the grid value up, rescale.  These
properties check that claim over random shapes, axes, group sizes,
all-zero groups and extreme magnitudes, comparing raw float64 bit
patterns (so ``-0.0`` vs ``+0.0`` counts as a difference).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.groups import from_groups, to_groups
from repro.datatypes.base import GridDataType
from repro.datatypes.int_type import IntType
from repro.quant.config import Granularity
from repro.quant.quantizer import GroupQuantizer


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def index_round_trip(dtype, x, scale):
    """The generic grid path: ``grid[encode(x / s)] * s``."""
    return dtype.grid[dtype.encode(x / scale)] * scale


def reference_group_qdq(gq, x, axis):
    """``GroupQuantizer.qdq`` (GROUP granularity) spelled out with an
    unconditional ``moveaxis`` and the index round trip."""
    moved = np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    pad = (-length) % gq.group_size
    padded = np.pad(moved, [(0, 0)] * (moved.ndim - 1) + [(0, pad)])
    groups = padded.reshape(*padded.shape[:-1], -1, gq.group_size)
    amax = np.max(np.abs(groups), axis=-1, keepdims=True)
    amax = np.where(amax <= 0, gq.dtype.grid_max, amax)
    scale = gq._round_scale(amax / gq.dtype.grid_max)
    out = index_round_trip(gq.dtype, groups, scale)
    flat = out.reshape(*out.shape[:-2], -1)[..., :length]
    return np.moveaxis(flat, -1, axis)


@st.composite
def grouped_tensors(draw):
    """A 3-D tensor, a grouped axis, a group size, and a magnitude."""
    group_size = draw(st.sampled_from([1, 3, 4, 8, 16, 64]))
    axis = draw(st.sampled_from([2, 0, 1]))           # last, first, middle
    n_groups = draw(st.integers(1, 4))
    # Divides the group, or leaves a ragged (zero-padded) tail group.
    length = n_groups * group_size - draw(st.integers(0, group_size - 1))
    shape = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    shape.insert(axis, length)
    seed = draw(st.integers(0, 2**31 - 1))
    exp = draw(st.integers(-300, 300))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 10.0**exp
    if draw(st.booleans()):                           # an all-zero group
        idx = [slice(None)] * 3
        idx[axis] = slice(0, group_size)
        x[tuple(idx)] = 0.0
    return x, axis, group_size


@given(bits_=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**31 - 1),
       exp=st.integers(-300, 300))
@settings(max_examples=60, deadline=None)
def test_int_qdq_equals_index_round_trip(bits_, seed, exp):
    dtype = IntType(bits_)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 33)) * 10.0**exp
    x[0] = 0.0
    x[1, :5] = -x[1, :5] * 1e-30                      # tiny negatives -> -0.0
    scale = dtype.scale_for(x, axis=-1)
    assert np.array_equal(bits(dtype.qdq(x, scale)),
                          bits(index_round_trip(dtype, x, scale)))
    # Tensor-wise default scale, and the base-class path it replaces.
    assert np.array_equal(bits(dtype.qdq(x)), bits(GridDataType.qdq(dtype, x)))


@given(case=grouped_tensors(), bits_=st.sampled_from([4, 8]))
@settings(max_examples=80, deadline=None)
def test_group_qdq_equals_index_round_trip_exact_scales(case, bits_):
    x, axis, group_size = case
    gq = GroupQuantizer(IntType(bits_), Granularity.GROUP, group_size,
                        fp16_scales=False)
    assert np.array_equal(bits(gq.qdq(x, axis=axis)),
                          bits(reference_group_qdq(gq, x, axis)))


@given(case=grouped_tensors(), bits_=st.sampled_from([4, 8]))
@settings(max_examples=80, deadline=None)
def test_group_qdq_equals_index_round_trip_fp16_scales(case, bits_):
    x, axis, group_size = case
    gq = GroupQuantizer(IntType(bits_), Granularity.GROUP, group_size)
    assert np.array_equal(bits(gq.qdq(x, axis=axis)),
                          bits(reference_group_qdq(gq, x, axis)))


@given(case=grouped_tensors())
@settings(max_examples=60, deadline=None)
def test_groups_round_trip(case):
    x, axis, group_size = case
    view = to_groups(x, group_size, axis=axis)
    assert view.groups.shape[-1] == group_size
    assert np.array_equal(bits(from_groups(view)), bits(x))
    # Substituted groups land back where they came from.
    doubled = from_groups(view, view.groups * 2.0)
    assert np.array_equal(bits(doubled), bits(x * 2.0))
