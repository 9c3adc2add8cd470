"""Numeric data types used by MANT and every baseline method.

All types share the :class:`~repro.datatypes.base.GridDataType` interface:
a sorted grid of representable values with absmax scaling, nearest-point
``encode`` and table ``decode``.  Singletons for the common widths are
exported here (``int4``, ``pot4``, ``flint4``, ``fp4_e2m1``, ``nf4``).
"""

from repro.datatypes.base import GridDataType, nearest_grid_index, absmax_scale
from repro.datatypes.int_type import IntType, int2, int4, int8, round_to_int
from repro.datatypes.pot import PotType, pot4, pot4_with_zero
from repro.datatypes.flint import FlintType, flint4, flint_positive_grid
from repro.datatypes.floats import (
    FloatType,
    fp4_e2m1,
    fp8_e4m3,
    float_grid,
    cast_fp16,
    fp16_scale,
)
from repro.datatypes.normalfloat import NormalFloatType, nf4, nf_positive_half
from repro.datatypes.mxfp import mxfp4_qdq, e8m0_scale, MXFP_GROUP_SIZE
from repro.datatypes.abfloat import AbfloatType, OutlierVictimCodec

__all__ = [
    "GridDataType",
    "nearest_grid_index",
    "absmax_scale",
    "IntType",
    "int2",
    "int4",
    "int8",
    "round_to_int",
    "PotType",
    "pot4",
    "pot4_with_zero",
    "FlintType",
    "flint4",
    "flint_positive_grid",
    "FloatType",
    "fp4_e2m1",
    "fp8_e4m3",
    "float_grid",
    "cast_fp16",
    "fp16_scale",
    "NormalFloatType",
    "nf4",
    "nf_positive_half",
    "mxfp4_qdq",
    "e8m0_scale",
    "MXFP_GROUP_SIZE",
    "AbfloatType",
    "OutlierVictimCodec",
]
