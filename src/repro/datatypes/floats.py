"""Low-bit IEEE-like float grids (FP4 E2M1, FP8 variants, FP16 casting).

``fp4_e2m1`` is the 4-bit float the paper's Fig. 5 shows MANT matching at
``a = 17`` and the element type of MXFP4.  Subnormals are included, so
the positive sequence is ``0, 0.5, 1, 1.5, 2, 3, 4, 6``.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes.base import GridDataType

__all__ = ["FloatType", "fp4_e2m1", "fp8_e4m3", "float_grid", "cast_fp16", "fp16_scale"]


def float_grid(exp_bits: int, man_bits: int, bias: int | None = None) -> np.ndarray:
    """All non-negative values of a sign/exp/mantissa minifloat.

    No inf/NaN encodings — the top exponent is a normal binade, the
    convention of FP4 E2M1 and FP8 E4M3 used in DNN quantization.
    """
    if bias is None:
        bias = 2 ** (exp_bits - 1) - 1
    values = [0.0]
    n_man = 2**man_bits
    for e in range(2**exp_bits):
        for m in range(n_man):
            if e == 0:
                # Subnormal: (m / 2^M) * 2^(1 - bias)
                v = (m / n_man) * 2.0 ** (1 - bias)
            else:
                v = (1.0 + m / n_man) * 2.0 ** (e - bias)
            values.append(v)
    return np.unique(np.asarray(values, dtype=np.float64))


class FloatType(GridDataType):
    """Sign + exp_bits + man_bits minifloat grid."""

    def __init__(self, exp_bits: int, man_bits: int, bias: int | None = None):
        pos = float_grid(exp_bits, man_bits, bias)
        grid = np.concatenate([-pos[::-1], pos])
        bits = 1 + exp_bits + man_bits
        super().__init__(name=f"fp{bits}_e{exp_bits}m{man_bits}", bits=bits, grid=grid)
        self.exp_bits = exp_bits
        self.man_bits = man_bits


def cast_fp16(x: np.ndarray) -> np.ndarray:
    """Round-trip through IEEE binary16, the paper's full-precision type."""
    return np.asarray(x).astype(np.float16).astype(np.float64)


# fp16's finite nonzero magnitude range: smallest subnormal, largest finite.
FP16_SCALE_MIN = 2.0**-24
FP16_SCALE_MAX = 65504.0


def fp16_scale(scale) -> np.ndarray:
    """Round a positive scaling factor to fp16, clamped to its finite range.

    A plain fp16 round trip turns scales below ~3e-8 into 0 (the group
    then dequantizes to NaN or ±0) and scales above 65520 into inf (all
    NaN).  Clamping to ``[2^-24, 65504]`` keeps every group finite: tiny
    groups quantize on the smallest fp16 step and huge groups saturate at
    ``±grid_max · 65504``.  Both bounds are fp16 values and rounding is
    monotone, so clamping first equals clamping the rounded scale, and
    scales inside the range round exactly as a plain round trip.
    """
    clamped = np.minimum(np.maximum(scale, FP16_SCALE_MIN), FP16_SCALE_MAX)
    return clamped.astype(np.float16).astype(np.float64)


fp4_e2m1 = FloatType(2, 1)
fp8_e4m3 = FloatType(4, 3)
